"""CSV ingestion and emission.

All numeric output is written with 17 significant digits (lossless for
doubles) through an atomic temp-file-and-rename, so a failed run never
leaves a partial file behind.  Ingestion validates eagerly: parse errors
carry line numbers, monthly series must be gap-free, and non-finite values
are rejected.
"""
from __future__ import annotations

import math
import os
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, IngestError
from .systems import Trajectory

__all__ = [
    "fmt",
    "write_csv_atomic",
    "write_complex_matrix_csv",
    "read_scalar_csv",
    "read_complex_csv",
    "read_nino34_csv",
    "read_trajectory_csv",
    "write_trajectory_csv",
    "ingest_series",
]


def fmt(x) -> str:
    """Full double precision rendering (17 significant digits)."""
    return f"{float(x):.17g}"


def write_csv_atomic(path, header: str, rows: Iterable[Sequence]) -> None:
    """Write a CSV with header atomically (temp file + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(header.rstrip("\n") + "\n")
            for row in rows:
                fh.write(",".join(
                    cell if isinstance(cell, str) else fmt(cell)
                    for cell in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_complex_matrix_csv(path, matrix: np.ndarray) -> None:
    """Complex matrix as CSV with two columns per entry (re_j, im_j)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    header = ",".join(f"re_{j},im_{j}" for j in range(matrix.shape[1]))
    expanded = []
    for row in matrix:
        cells = []
        for v in row:
            cells.append(fmt(v.real))
            cells.append(fmt(v.imag))
        expanded.append(cells)
    write_csv_atomic(path, header, expanded)


def _data_rows(path, comments: list | None = None):
    """(lineno, cells) for each data row of a CSV file.

    Blank lines and '#' comments are skipped; comment texts are appended to
    `comments` when given.  The first data row is an optional header: it is
    skipped when its first cell is not a number.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"file not found: {path}")
    first = True
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                if text and comments is not None:
                    comments.append(text)
                continue
            cells = text.split(",")
            if first:
                first = False
                if not _is_number(cells[0]):
                    continue
            yield lineno, cells


def _parse_float(cell: str, path, lineno: int) -> float:
    try:
        value = float(cell)
    except ValueError as exc:
        raise IngestError(f"{path}:{lineno}: cannot parse {cell!r} as a number") from exc
    if not math.isfinite(value):
        raise IngestError(f"{path}:{lineno}: non-finite value {cell!r}")
    return value


def read_scalar_csv(path) -> np.ndarray:
    """One real value per row (an optional header row is skipped)."""
    values = []
    for lineno, cells in _data_rows(path):
        values.append(_parse_float(cells[0], path, lineno))
    if not values:
        raise IngestError(f"{path}: no data rows")
    return np.array(values)


def read_complex_csv(path) -> np.ndarray:
    """Two columns re,im per row (optional header row skipped)."""
    values = []
    for lineno, cells in _data_rows(path):
        if len(cells) < 2:
            raise IngestError(f"{path}:{lineno}: expected two columns re,im")
        re = _parse_float(cells[0], path, lineno)
        im = _parse_float(cells[1], path, lineno)
        values.append(complex(re, im))
    if not values:
        raise IngestError(f"{path}: no data rows")
    return np.array(values)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def read_nino34_csv(path):
    """Monthly index series with header year,month,value.

    Returns (months, values) where months is a list of (year, month) pairs.
    Rows must be consecutive months; a gap raises naming the missing month.
    """
    months: list[tuple[int, int]] = []
    values: list[float] = []
    for lineno, cells in _data_rows(path):
        cells = [c.strip() for c in cells]
        if len(cells) < 3:
            raise IngestError(f"{path}:{lineno}: expected year,month,value")
        try:
            year, month = int(cells[0]), int(cells[1])
        except ValueError as exc:
            raise IngestError(f"{path}:{lineno}: bad year/month {cells[:2]}") from exc
        if not 1 <= month <= 12:
            raise IngestError(f"{path}:{lineno}: month {month} outside 1..12")
        value = _parse_float(cells[2], path, lineno)
        if months:
            prev = months[-1][0] * 12 + months[-1][1] - 1
            cur = year * 12 + month - 1
            if cur != prev + 1:
                exp_y, exp_m = divmod(prev + 1, 12)
                raise IngestError(
                    f"{path}:{lineno}: missing month {exp_y}-{exp_m + 1:02d} "
                    f"(found {year}-{month:02d})")
        months.append((year, month))
        values.append(value)
    if not months:
        raise IngestError(f"{path}: no data rows")
    return months, np.array(values)


def read_trajectory_csv(path) -> Trajectory:
    """State rows, one time step per row; optional '# system=... dt=... seed=...'
    comment header restores metadata."""
    comments: list[str] = []
    rows = [[_parse_float(c, path, lineno) for c in cells]
            for lineno, cells in _data_rows(path, comments)]
    dt, seed, meta = 1.0, None, {}
    for text in comments:
        for token in text[1:].split():
            if "=" in token:
                key, _, val = token.partition("=")
                if key == "dt":
                    dt = float(val)
                elif key == "seed":
                    seed = None if val == "none" else int(val)
                else:
                    meta[key] = val
    if not rows:
        raise IngestError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise IngestError(f"{path}: inconsistent column counts {sorted(widths)}")
    return Trajectory(np.array(rows), dt=dt, seed=seed, meta=meta)


def write_trajectory_csv(path, traj: Trajectory) -> None:
    """Inverse of read_trajectory_csv."""
    seed = "none" if traj.seed is None else traj.seed
    write_csv_atomic(path, f"# system={traj.meta.get('system', 'unknown')} "
                     f"dt={fmt(traj.dt)} seed={seed}", traj.states)


_FORMATS = {
    "scalar_csv": read_scalar_csv,
    "complex_csv": read_complex_csv,
    "nino34_csv": read_nino34_csv,
    "trajectory_csv": read_trajectory_csv,
}


def ingest_series(path, format: str):
    """Validated ingestion dispatch for the supported series formats."""
    try:
        reader = _FORMATS[format]
    except KeyError:
        raise ConfigError(
            f"unknown format {format!r}; choose from {sorted(_FORMATS)}") from None
    return reader(path)
