"""Trajectory generators used as ground-truth data sources.

Every generator is deterministic given its parameters and seed.  Modular
coordinates are reduced with floored modulo and stay inside [0, modulus).
"""
from __future__ import annotations

import hashlib
import itertools
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, ShapeError, SizeError, as_integer, as_length, as_real

__all__ = [
    "Trajectory",
    "RngStream",
    "HarmonicSeries",
    "driven_logistic",
    "standard_map",
    "harmonic_series",
    "second_difference",
    "ou_sample",
    "quasiperiodic_field",
]

SQRT2 = math.sqrt(2.0)
TWO_PI = 2.0 * math.pi
_NORMALS_PER_DRAW = 1 << 20     # ou_sample noise block: 8 MB of float64
_KICK_ROWS = 4096               # standard_map_batch resampled kicks: rows per draw


def _mod_tau(x: float) -> float:
    # floored modulo; x % m can round up to m itself for tiny negative x,
    # which would violate the [0, 2 pi) range contract
    r = x % TWO_PI
    return 0.0 if r >= TWO_PI else r


@dataclass(frozen=True)
class RngStream:
    """A seedable, labeled random stream.

    Child streams are derived by hashing (seed, label path), so adding a new
    labeled consumer never perturbs the draws of existing ones.

    Raises:
        ConfigError: seed not an integer (1.0 would give another stream than 1).
    """

    seed: int
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "seed", as_integer(self.seed, "seed", ConfigError))

    def split(self, label: str) -> "RngStream":
        """Derive an independent child stream for the given label."""
        path = f"{self.label}/{label}" if self.label else label
        return RngStream(seed=self.seed, label=path)

    def generator(self) -> np.random.Generator:
        """Fresh numpy Generator; identical (seed, label) gives identical draws."""
        digest = hashlib.blake2b(
            f"{self.seed}:{self.label}".encode(), digest_size=16).digest()
        return np.random.Generator(np.random.PCG64(int.from_bytes(digest, "big")))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-ordered state snapshots, one row per step.

    states has shape (N, d); dt is the sampling interval (1.0 for maps);
    seed is the generating stream's seed or None; meta records the
    generating system and its parameters.  Instances compare and hash by
    identity.

    Raises:
        SizeError: fewer than 2 states.
        ConfigError: a non-finite state, dt not a finite real > 0 (a bool
            or a string included), or seed neither None nor an integer.
    """

    states: np.ndarray
    dt: float = 1.0
    seed: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "dt", as_real(self.dt, "dt", ConfigError, 0.0, strict=True))
        if self.seed is not None:
            object.__setattr__(self, "seed", as_integer(self.seed, "seed", ConfigError))
        states = np.asarray(self.states, dtype=float)
        if states.ndim == 1:
            states = states[:, None]
        if states.shape[0] < 2:
            raise SizeError(f"trajectory needs at least 2 states, got {states.shape[0]}")
        if not np.all(np.isfinite(states)):
            raise ConfigError("trajectory contains non-finite states")
        # a read-only view: the caller's array is neither copied nor frozen
        states = states.view()
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def driven_logistic(eps: float, x0: float, theta0: float, N: int) -> Trajectory:
    """Quasiperiodically driven logistic map on (x, theta).

    x_{n+1} = 3.5 (1 + eps cos(2 pi theta_n)) x_n (1 - x_n),
    theta_{n+1} = theta_n + sqrt(2) mod 1.

    eps = 0 gives the plain period-4 logistic regime, eps = 0.01 a
    quasiperiodic response, eps = 0.1 chaos.  The loop runs on Python
    floats: a numpy-scalar x0 would make every step numpy scalar arithmetic.

    Raises:
        SizeError: N not an integer >= 2.
        ConfigError: eps, x0 or theta0 not a finite real (bools and strings
            included), eps < 0 or so large that the drive 3.5 (1 + eps)
            overflows, or an orbit that escapes to infinity.
    """
    N = as_integer(N, "N", SizeError, 2)
    eps = as_real(eps, "eps", ConfigError, 0.0)
    if not math.isfinite(3.5 * (1.0 + eps)):
        raise ConfigError(f"eps must keep the drive 3.5 (1 + eps) finite, got {eps!r}")
    x0, theta0 = as_real(x0, "x0", ConfigError), as_real(theta0, "theta0", ConfigError)
    theta = (theta0 + SQRT2 * np.arange(N)) % 1.0
    drive = 3.5 * (1.0 + eps * np.cos(TWO_PI * theta))
    x = array("d", [0.0]) * N
    x[0] = cur = x0
    for n, d in enumerate(memoryview(drive[:-1]), 1):
        cur = d * cur * (1.0 - cur)
        x[n] = cur
    states = np.column_stack([np.frombuffer(x), theta])
    return Trajectory(states, dt=1.0, meta={
        "system": "driven_logistic", "eps": eps, "x0": x0, "theta0": theta0})


def _lambda(lambda_mode, rng: RngStream | None):
    """Validate a lambda mode: the fixed kick as a float, or None to resample."""
    if isinstance(lambda_mode, str):
        if lambda_mode != "uniform_resample":
            raise ConfigError(f"unknown lambda mode: {lambda_mode!r}")
        if rng is None:
            raise ConfigError("uniform_resample mode requires an RngStream")
        return None
    return as_real(lambda_mode, "lambda", ConfigError)


def _orbit_steps(kicks, cp: float, cth: float, p, theta, n: int):
    """Advance one standard-map orbit from (cp, cth) by one step per kick,
    writing step n, n + 1, ... into p[n], theta[n], ...; returns the last state.

    The loop runs on Python floats: numpy ufuncs on a handful of elements
    cost more per step than the arithmetic itself.  `% TWO_PI` plus the
    inline guard is _mod_tau without a function call per coordinate.
    """
    sin = math.sin
    for n, lam in enumerate(kicks, n):
        cp = (cp + lam * sin(cth)) % TWO_PI
        if cp >= TWO_PI:
            cp = 0.0
        cth = (cth + cp) % TWO_PI
        if cth >= TWO_PI:
            cth = 0.0
        p[n] = cp
        theta[n] = cth
    return cp, cth


def standard_map(
    lambda_mode,
    p0: float,
    theta0: float,
    N: int,
    rng: RngStream | None = None,
) -> Trajectory:
    """Standard map on the 2-torus [0, 2 pi)^2.

    p_{n+1} = p_n + lambda_n sin(theta_n) mod 2 pi, then
    theta_{n+1} = theta_n + p_{n+1} mod 2 pi (the theta update uses the
    already-updated momentum).

    Args:
        lambda_mode: a fixed kick strength (float), or the string
            "uniform_resample" to redraw lambda_n uniformly from [0, 5]
            at every step (requires rng).
        rng: RngStream for the stochastic mode.

    This is the one-IC case of standard_map_batch.

    Raises:
        SizeError: N not an integer >= 2.
        ConfigError: unknown mode, stochastic mode without rng, a lambda
            that is not a finite real (a bool included), or a non-finite
            initial condition.
    """
    states = standard_map_batch(lambda_mode, [p0], [theta0], N, rng)[:, 0, :]
    meta = {"system": "standard_map",
            "lambda": lambda_mode if isinstance(lambda_mode, str) else float(lambda_mode)}
    return Trajectory(states, dt=1.0, seed=rng.seed if rng is not None else None, meta=meta)


def standard_map_batch(
    lambda_mode,
    p0: np.ndarray,
    theta0: np.ndarray,
    N: int,
    rng: RngStream | None = None,
) -> np.ndarray:
    """Standard-map orbits for a batch of initial conditions.

    Returns a C-ordered array of shape (N, n_ic, 2), with the update rule
    and stochastic convention of standard_map.  Each orbit writes its
    (p, theta) straight into the output.  The resample mode draws the
    (N - 1) x n_ic kicks from one generator in blocks of _KICK_ROWS rows
    and carries each orbit's state across blocks; PCG64 yields the same
    values however a draw is split, so IC i consumes column i of the whole
    block.  The batch holds 16 N n_ic bytes of output plus one kick block
    (8 _KICK_ROWS n_ic bytes, and one column of it as Python floats).

    Raises:
        ShapeError: p0 and theta0 are not 1-D arrays of equal length.
        SizeError, ConfigError: as standard_map.
    """
    N = as_integer(N, "N", SizeError, 2)
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=float))
    if p0.ndim != 1 or p0.shape != theta0.shape:
        raise ShapeError("p0 and theta0 must be 1-D arrays of equal length, "
                         f"got shapes {p0.shape} and {theta0.shape}")
    n_ic = p0.shape[0]
    lam = _lambda(lambda_mode, rng)
    if not (np.all(np.isfinite(p0)) and np.all(np.isfinite(theta0))):
        raise ConfigError("initial conditions must be finite")
    out = np.empty((N, n_ic, 2))
    flat = memoryview(out.reshape(-1))
    # orbit i's p and theta at step n, as strided views of the output
    views = [(flat[2 * i::2 * n_ic], flat[2 * i + 1::2 * n_ic]) for i in range(n_ic)]
    states = [(_mod_tau(p), _mod_tau(theta)) for p, theta in zip(p0.tolist(), theta0.tolist())]
    for (p, theta), (cp, cth) in zip(views, states):
        p[0], theta[0] = cp, cth
    if lam is not None:
        for (p, theta), (cp, cth) in zip(views, states):
            _orbit_steps(itertools.repeat(lam, N - 1), cp, cth, p, theta, 1)
        return out
    gen = rng.generator()
    for start in range(1, N, _KICK_ROWS):
        kicks = gen.uniform(0.0, 5.0, (min(_KICK_ROWS, N - start), n_ic))
        for i, (p, theta) in enumerate(views):
            states[i] = _orbit_steps(kicks[:, i].tolist(), *states[i], p, theta, start)
    return out


@dataclass(frozen=True)
class HarmonicSeries:
    """Sampled harmonic motion with finite-difference second derivatives.

    positions holds N + 2 samples X_0..X_{N+1}; interior_positions the N
    samples X_1..X_N; second_derivative their N second_difference values.
    Noise, when requested, is added to the positions before differencing,
    so it is amplified by the 1/k^2 of the stencil.
    """

    positions: np.ndarray
    interior_positions: np.ndarray
    second_derivative: np.ndarray
    dt: float
    meta: dict = field(default_factory=dict, compare=False)


def harmonic_series(
    amplitude: float,
    phase: float,
    dt: float,
    N: int,
    noise_sigma: float = 0.0,
    rng: RngStream | None = None,
) -> HarmonicSeries:
    """Harmonic position samples A cos(n k + phase) plus optional noise.

    Args:
        amplitude, phase: finite reals.
        dt: sampling step k > 0 (see second_difference).
        N: number of interior samples (so N + 2 positions are generated).
        noise_sigma: standard deviation (finite, >= 0) of iid Gaussian noise on positions.
        rng: required when noise_sigma > 0.

    Raises:
        SizeError: N not an integer >= 3.
        ConfigError: before any draw, naming a scalar that is not a finite
            real (amplitude, phase), a finite real >= 0 (noise_sigma) or a
            length scale (dt, see second_difference), or noise without rng.
        DomainError: positions or their second differences overflow.
    """
    N = as_integer(N, "N", SizeError, 3)
    amplitude = as_real(amplitude, "amplitude", ConfigError)
    phase = as_real(phase, "phase", ConfigError)
    noise_sigma = as_real(noise_sigma, "noise_sigma", ConfigError, 0.0)
    dt = as_length(dt, "dt", ConfigError)
    n = np.arange(N + 2)
    x = amplitude * np.cos(n * dt + phase)
    if noise_sigma > 0:
        if rng is None:
            raise ConfigError("noise_sigma > 0 requires an RngStream")
        with np.errstate(over="ignore"):  # second_difference refuses an infinite position
            x = x + noise_sigma * rng.generator().standard_normal(N + 2)
    xdd = second_difference(x, dt)
    meta = {
        "system": "harmonic_series",
        "amplitude": amplitude, "phase": phase, "noise_sigma": noise_sigma,
        "n_positions": N + 2, "n_interior": N,
        "indexing": "positions are X_0..X_{N+1}; derivatives cover n=1..N",
    }
    return HarmonicSeries(positions=x, interior_positions=x[1:-1],
                          second_derivative=xdd, dt=dt, meta=meta)


def second_difference(x: np.ndarray, dt: float) -> np.ndarray:
    """(x_{n+1} + x_{n-1} - 2 x_n) / dt^2 at n = 1..N of samples x_0..x_{N+1}.

    Raises:
        ConfigError: dt not a length scale (errors.as_length): finite and
            > 0, with dt^2 and 1/dt^2 finite and nonzero.
        DomainError: x holds NaN or inf, or a second difference overflows.
    """
    dt = as_length(dt, "dt", ConfigError)
    with np.errstate(over="ignore", invalid="ignore"):
        xdd = (x[2:] + x[:-2] - 2.0 * x[1:-1]) / dt**2
    if not np.isfinite(xdd).all():
        raise DomainError("positions hold NaN or inf, or their second differences overflow")
    return xdd


def ou_sample(
    theta_rate: float,
    diffusion: float,
    x0: float,
    dt: float,
    N: int,
    substeps: int = 1,
    rng: RngStream | None = None,
) -> Trajectory:
    """Euler-Maruyama samples of dx = -theta_rate x dt + diffusion dB.

    Each recorded sample advances `substeps` internal Euler steps of size
    dt/substeps.  The stationary variance approaches diffusion^2/(2 theta_rate).

    Raises:
        SizeError: N not an integer >= 2.
        ConfigError: substeps not an integer >= 1; theta_rate, diffusion or dt
            not a finite real > 0, or x0 not a finite real (bools and strings
            included); 1 - theta_rate*dt/substeps <= 0 (unstable step); or a
            path that overflows.
    """
    N = as_integer(N, "N", SizeError, 2)
    substeps = as_integer(substeps, "substeps", ConfigError, 1)
    theta_rate = as_real(theta_rate, "theta_rate", ConfigError, 0.0, strict=True)
    diffusion = as_real(diffusion, "diffusion", ConfigError, 0.0, strict=True)
    dt, x0 = as_real(dt, "dt", ConfigError, 0.0, strict=True), as_real(x0, "x0", ConfigError)
    h = dt / substeps
    decay = 1.0 - theta_rate * h
    if decay <= 0.0:
        raise ConfigError(
            f"unstable Euler step: 1 - theta_rate*dt/substeps = {decay} <= 0")
    if rng is None:
        rng = RngStream(0, "ou")
    gen = rng.generator()
    noise_scale = diffusion * math.sqrt(h)
    # normals come in draws of whole samples, `substeps` per sample: PCG64
    # yields the same stream however the draws are split, so the block size
    # only bounds the memory the draw takes
    block = max(1, _NORMALS_PER_DRAW // substeps)
    x = array("d", [0.0]) * N
    x[0] = cur = x0
    for start in range(1, N, block):
        noise = memoryview(gen.standard_normal(min(block, N - start) * substeps))
        for i, k in enumerate(range(0, len(noise), substeps), start):
            for z in noise[k:k + substeps]:
                cur = cur * decay + noise_scale * z
            x[i] = cur
    return Trajectory(np.frombuffer(x)[:, None], dt=dt, seed=rng.seed, meta={
        "system": "ou", "theta_rate": theta_rate, "diffusion": diffusion,
        "x0": x0, "substeps": substeps})


def quasiperiodic_field(
    D: int,
    N: int,
    seed: int,
) -> Trajectory:
    """Smooth quasiperiodic field in R^D driven by an irrational 2-torus rotation.

    Each coordinate is a random cosine combination of six fixed integer
    harmonics of the torus angle, so the time series is analytic in the
    rotation and a best-fit linear propagator converges as the window grows.
    Used as the bundled stand-in for near-periodic high-dimensional snapshot
    data in the propagator error sweeps.
    """
    N, D = as_integer(N, "N", SizeError, 2), as_integer(D, "D", ConfigError, 1)
    harmonics = np.array([[1, 0], [0, 1], [1, 1], [1, -1], [2, 0], [0, 2]])
    gen = RngStream(seed, "quasiperiodic_field").generator()
    coef = gen.standard_normal((D, len(harmonics)))
    phases = gen.uniform(0.0, TWO_PI, (D, len(harmonics)))
    omega = np.array([SQRT2 - 1.0, math.sqrt(3.0) - 1.0])
    theta = (np.arange(N)[:, None] * omega[None, :]) % 1.0
    ang = TWO_PI * theta @ harmonics.T                       # (N, harmonics)
    # states[n, d] = sum_h coef[d, h] cos(ang[n, h] + phases[d, h])
    states = (np.cos(ang[:, None, :] + phases[None, :, :]) * coef[None, :, :]).sum(axis=2)
    return Trajectory(states, dt=1.0, seed=seed, meta={
        "system": "quasiperiodic_field", "D": D})
