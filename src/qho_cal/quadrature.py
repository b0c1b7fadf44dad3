"""Small numeric helpers: Gauss-Legendre nodes, the rules for a time grid and
for its intervals, stable CSV float formatting and the one CSV writer."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

__all__ = ["gauss_legendre", "checked_grid", "interval_lengths", "csv_float", "write_csv"]

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for [lo, hi]. Degenerate intervals get zero weights.
    lo and hi broadcast: a column of upper limits gives one row of nodes and
    weights per interval."""
    if n < 1:
        raise ValueError(f"need at least one node, got {n}")
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    x, w = _GL_CACHE[n]
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return mid + half * x, half * w


def checked_grid(grid) -> tuple[float, ...]:
    """The times of ``grid`` as floats, checked to be non-empty, finite,
    non-negative and strictly increasing."""
    times = tuple(float(t) for t in grid)
    if not times:
        raise ValueError("grid must not be empty")
    if not (np.isfinite(times).all() and np.all(np.diff(times) > 0) and min(times) >= 0):
        raise ValueError("grid times must be finite, non-negative and strictly increasing")
    return times


def interval_lengths(grid) -> tuple[np.ndarray, np.ndarray]:
    """The distinct lengths of the intervals (0, grid[0]], (grid[0], grid[1]],
    ... and each interval's index into them. A length within four ulp of
    grid[-1] of an earlier one takes its index: np.linspace spans merge."""
    spans = np.diff(grid, prepend=0.0)
    index, firsts = np.full(spans.size, -1), []
    while (todo := np.flatnonzero(index < 0)).size:
        near = np.abs(spans[todo] - spans[todo[0]]) <= 4.0 * np.spacing(grid[-1])
        index[todo[near]] = len(firsts)
        firsts.append(todo[0])
    return spans[firsts], index


def csv_float(x: float) -> str:
    """Deterministic short float formatting for CSV emission."""
    return f"{float(x):.12g}"


def write_csv(path, columns: str, rows, header_lines=()) -> None:
    """``# `` provenance lines, the ``columns`` line, then one line per row:
    numbers through csv_float, strings as they are. Every line is formatted
    before the file is opened, so a failing row leaves no file; a path that
    cannot be written is a ConfigError."""
    lines = [f"# {line}\n" for line in header_lines] + [columns + "\n"]
    lines += [",".join(x if isinstance(x, str) else csv_float(x) for x in row) + "\n"
              for row in rows]
    try:
        with open(path, "w") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ConfigError(f"cannot write CSV {path}: {exc}") from exc
