"""Spectral-density estimation for scalar observables of measure-preserving
dynamics: lag autocorrelations by (optionally tapered) time averages, a
filtered trigonometric reconstruction of the density on [-pi, pi), and peak
extraction.

Each lag n is averaged over its own window of length N - n with its own
normalization, and the coefficient set is completed by Hermitian symmetry,
so the reconstructed density is real up to roundoff.  Finite-M densities
can go negative; values are reported as-is, never clipped.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ShapeError, SizeError
from .weights import exponential_bump, make_weight_vector

__all__ = [
    "AutocorrelationSet",
    "SpectralDensity",
    "cosine_filter",
    "cosine_sharp_filter",
    "bump_smoothstep_filter",
    "autocorrelations",
    "density",
    "peak_report",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class AutocorrelationSet:
    """Estimated lag coefficients a_n for n = -M..M with a_{-n} = conj(a_n).

    values[M + n] holds a_n.  The 1/(2 pi) prefactor that makes these the
    Fourier coefficients of the spectral density is already included.
    """

    values: np.ndarray
    M: int

    def lag(self, n: int) -> complex:
        if abs(n) > self.M:
            raise DomainError(f"lag {n} outside [-{self.M}, {self.M}]")
        return complex(self.values[self.M + n])


def autocorrelations(
    series,
    M: int,
    w: Callable | None = None,
    weighted: bool = True,
) -> AutocorrelationSet:
    """Estimate a_n = <series_j conj(series_{j+n})> / (2 pi) for 0 <= n <= M.

    In weighted mode each lag n is averaged with a fresh taper over its own
    window of length N - n, normalized by that window's weight sum; in
    unweighted mode the plain mean over the window is used.  Negative lags
    are filled by conjugate symmetry, which therefore holds exactly.

    Raises:
        DomainError: M < 0, or the series holds NaN or inf.
        SizeError: M >= N - 1, so some window would have fewer than 2 samples.
    """
    s = np.asarray(series, dtype=complex).ravel()
    N = s.shape[0]
    if M < 0:
        raise DomainError(f"M must be >= 0, got {M}")
    if M >= N - 1:
        raise SizeError(f"need M <= N - 2 (got M={M}, N={N})")
    if not np.isfinite(s).all():
        raise DomainError("series contains non-finite values")
    if w is None:
        w = exponential_bump()
    values = np.zeros(2 * M + 1, dtype=complex)
    for n in range(M + 1):
        window = s[: N - n] * np.conj(s[n:N])
        if weighted:
            wv = make_weight_vector(N - n, w)
            window *= wv.normalized
            a_n = np.sum(window) / TWO_PI
        else:
            a_n = np.mean(window) / TWO_PI
        if n == 0:
            # s conj(s) is |s|^2: real by definition (fused multiplies can
            # leave a one-ulp imaginary residue)
            a_n = complex(a_n.real, 0.0)
        values[M + n] = a_n
        values[M - n] = np.conj(a_n)
    return AutocorrelationSet(values=values, M=M)


def cosine_filter(x):
    """Sharp cosine taper 1/2 + cos(pi x)/2 on [-1, 1].

    Raises:
        DomainError: |x| > 1 or x is NaN.
    """
    arr = np.asarray(x, dtype=float)
    # comparisons with NaN are False, so NaN fails this check too
    if not np.all(np.abs(arr) <= 1.0):
        raise DomainError(f"filter argument outside [-1, 1]: {x!r}")
    out = 0.5 + 0.5 * np.cos(np.pi * arr)
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def _smoothstep_quartic(t):
    # C^3 smoothstep rising 0 -> 1 on [0, 1]
    return t**4 * (35.0 - 84.0 * t + 70.0 * t**2 - 20.0 * t**3)


def _bump_smoothstep(x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(arr) <= 1.0):  # NaN fails too
        raise DomainError(f"filter argument outside [-1, 1]: {x!r}")
    out = 1.0 - _smoothstep_quartic(np.abs(arr))
    if np.isscalar(x) or arr.ndim == 0:
        return float(out)
    return out


def cosine_sharp_filter() -> Callable:
    """The default reconstruction filter (cosine taper)."""
    return cosine_filter


def bump_smoothstep_filter() -> Callable:
    """Polynomial taper 1 - smoothstep(|x|) with the quartic C^3 smoothstep.

    Non-default alternative to the cosine taper; decays with higher-order
    flatness at the origin.
    """
    return _bump_smoothstep


@dataclass(frozen=True)
class SpectralDensity:
    """Filtered trigonometric density xi(theta) = sum_n filt(n/M) a_n e^{i n theta}.

    coefficients[M + n] already includes the filter value.  The analytic
    integral over [-pi, pi) equals 2 pi times the n = 0 coefficient.
    """

    coefficients: np.ndarray
    M: int

    def eval(self, theta: float) -> float:
        return float(self.eval_grid(np.array([theta]))[0])

    def eval_grid(self, grid) -> np.ndarray:
        """Evaluate on an array of angles; asserts the imaginary residue is
        below 1e-10 relative before discarding it.

        With z = e^{i theta}, the positive lags sum_{n=1..M} c_n z^n and the
        negative lags sum_{n=1..M} c_{-n} conj(z)^n are each evaluated by a
        Horner recurrence: O(G M) multiply-adds for G angles, on any grid.

        Raises:
            DomainError: the grid holds NaN or inf.
            ShapeError: the coefficients are not Hermitian.
        """
        grid = np.asarray(grid, dtype=float)
        if not np.isfinite(grid).all():
            raise DomainError("density grid contains non-finite angles")
        c, M = self.coefficients, self.M
        z = np.exp(1j * grid)
        zbar = np.conj(z)
        pos = np.zeros_like(z)
        neg = np.zeros_like(z)
        for n in range(M, 0, -1):
            pos += c[M + n]
            pos *= z
            neg += c[M - n]
            neg *= zbar
        vals = c[M] + pos + neg
        scale = max(float(np.max(np.abs(vals), initial=0.0)), 1e-300)
        resid = float(np.max(np.abs(vals.imag), initial=0.0)) / scale
        if resid > 1e-10:
            raise ShapeError(
                f"density evaluation has non-Hermitian residue {resid:.3e}; "
                "coefficient set is inconsistent")
        return vals.real

    @property
    def analytic_integral(self) -> float:
        """Exact value of the integral over one period: 2 pi c_0."""
        return float(TWO_PI * self.coefficients[self.M].real)


def density(acs: AutocorrelationSet, filt: Callable | None = None) -> SpectralDensity:
    """Apply a reconstruction filter to an autocorrelation set.

    A filter is any vectorised even function on [-1, 1] with value 1 at 0
    and 0 at the ends.
    """
    if filt is None:
        filt = cosine_sharp_filter()
    ns = np.arange(-acs.M, acs.M + 1)
    taper = np.asarray(filt(ns / max(acs.M, 1)), dtype=float)
    return SpectralDensity(coefficients=taper * acs.values, M=acs.M)


def _find_peaks(x: np.ndarray, min_prominence: float) -> np.ndarray:
    """Indices of the local maxima of x, as scipy.signal.find_peaks gives them:
    the middle sample of each run of equal values that rises from its left
    neighbour and falls to its right one.  With min_prominence > 0 a peak p
    is kept when x[p] - max(left_min, right_min) >= min_prominence, each min
    taken out to the nearest strictly higher sample on that side or the end."""
    starts = np.concatenate(([0], np.flatnonzero(x[1:] != x[:-1]) + 1))
    ends = np.append(starts[1:] - 1, x.size - 1)
    v = x[starts]
    k = np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1
    peaks = (starts[k] + ends[k]) // 2
    if min_prominence > 0:
        keep = np.empty(peaks.size, dtype=bool)
        for n, p in enumerate(peaks):
            left, right = np.flatnonzero(x[:p] > x[p]), np.flatnonzero(x[p:] > x[p])
            lo = left[-1] + 1 if left.size else 0
            hi = p + right[0] if right.size else x.size
            keep[n] = x[p] - max(x[lo:p + 1].min(), x[p:hi].min()) >= min_prominence
        peaks = peaks[keep]
    return peaks


def peak_report(
    dens: SpectralDensity,
    grid_size: int = 4096,
    min_prominence: float = 0.0,
) -> list[tuple[float, float]]:
    """Local maxima of the density on a periodic grid over [-pi, pi).

    Peaks are found on a half-period padded copy of the grid, so peaks and
    their prominence at the seam are treated periodically; min_prominence
    = 0 keeps every local maximum.  Returns (theta, height) pairs sorted by
    theta; a flat density yields an empty list.

    Raises:
        SizeError: grid_size < 16.
        DomainError: min_prominence negative or not finite.
    """
    if grid_size < 16:
        raise SizeError(f"grid_size >= 16 required, got {grid_size}")
    if not (np.isfinite(min_prominence) and min_prominence >= 0):
        raise DomainError(f"min_prominence must be finite and >= 0, got {min_prominence}")
    grid = np.linspace(-np.pi, np.pi, grid_size, endpoint=False)
    vals = dens.eval_grid(grid)
    half = grid_size // 2
    ext = np.concatenate([vals[-half:], vals, vals[:half]])
    idx = _find_peaks(ext, min_prominence)
    idx = idx[(idx >= half) & (idx < half + grid_size)] - half
    peaks = sorted((float(grid[i]), float(vals[i])) for i in idx)
    return peaks
