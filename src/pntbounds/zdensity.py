"""Zero-density coefficients and the reciprocal zero-sum bound.

The density estimate N(sigma, T) <= C1 T^(8(1-sigma)/3) log^(5-2 sigma) T
+ C2 log^2 T is read through its coefficient table (C1, C2 against sigma
on a 0.001 grid over [0.98, 1]).  The table ships as a CSV data file and
is validated on load, so updated zero-density constants can be swapped
in without touching code.  C1 is nondecreasing and C2 nonincreasing in
sigma; off-grid queries rely on exactly that monotonicity: take C1 from
the grid point above and C2 from the grid point below.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

__all__ = [
    "RIEMANN_HEIGHT",
    "LOG_RIEMANN_HEIGHT",
    "DensityRow",
    "DensityTable",
    "load_table",
    "recip_sum_bounds",
]

RIEMANN_HEIGHT = 3_000_175_332_800  # verified height: all zeros below have beta = 1/2
LOG_RIEMANN_HEIGHT = math.log(RIEMANN_HEIGHT)

_HEADER = ["sigma", "d", "alpha", "delta", "C1", "C2"]
_GRID_LO, _GRID_HI, _GRID_STEP, _GRID_ROWS = 0.980, 1.000, 0.001, 21
_RECIP_DEFECT = 0.9321
_LOG_4PI_E = math.log(4.0 * math.pi) + 1.0


@dataclass(frozen=True)
class DensityRow:
    sigma: float
    d: float
    alpha: float
    delta: float
    C1: float
    C2: float


@dataclass(frozen=True)
class DensityTable:
    """Validated (sigma, C1, C2) table.

    N(sigma, t) = 0 for t <= RIEMANN_HEIGHT; enforcing that is the
    caller's job (the bounding engines integrate upward from the height).
    """

    rows: tuple[DensityRow, ...]

    @property
    def sigma_grid(self) -> list[float]:
        return [r.sigma for r in self.rows]

    def coeffs(self, sigma):
        """(C1, C2) at sigma, lane by lane for an ndarray sigma.

        A sigma within 1e-12 of a grid point takes that row; any other
        takes C1 from the row above and C2 from the row below, the
        conservative rule above.
        """
        s = np.asarray(sigma, dtype=float)
        outside = ~((s >= _GRID_LO) & (s <= _GRID_HI))
        if outside.any():
            bad = sigma if s.ndim == 0 else s[outside][0]
            raise ValueError(f"sigma={bad} outside table range [{_GRID_LO}, {_GRID_HI}]")
        grid = np.array(self.sigma_grid)
        i = np.clip(np.rint((s - _GRID_LO) / _GRID_STEP).astype(int), 0, len(grid) - 1)
        on_grid = np.abs(grid[i] - s) < 1e-12
        hi = np.searchsorted(grid, s)
        c1 = np.array([r.C1 for r in self.rows])[np.where(on_grid, i, hi)]
        c2 = np.array([r.C2 for r in self.rows])[np.where(on_grid, i, hi - 1)]
        return (c1, c2) if s.ndim else (float(c1), float(c2))


def load_table(path: str | Path | None = None) -> DensityTable:
    """Load and validate the coefficient table (packaged CSV by default)."""
    if path is None:
        ref = resources.files("pntbounds").joinpath("data/zero_density.csv")
        text = ref.read_text(encoding="utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    reader = csv.reader(text.strip().splitlines())
    header = next(reader)
    if header != _HEADER:
        raise ValueError(f"bad density table header {header!r}, expected {_HEADER!r}")
    rows = [DensityRow(*(float(v) for v in line)) for line in reader if line]
    if len(rows) != _GRID_ROWS:
        raise ValueError(f"expected {_GRID_ROWS} rows, got {len(rows)}")
    for i, r in enumerate(rows):
        want = _GRID_LO + i * _GRID_STEP
        if abs(r.sigma - want) > 1e-9:
            raise ValueError(f"row {i}: sigma={r.sigma}, expected {want:.3f}")
        if r.C1 <= 0 or r.C2 <= 0:
            raise ValueError(f"row {i}: nonpositive coefficient")
        if i > 0:
            if r.C1 < rows[i - 1].C1:
                raise ValueError(f"C1 not nondecreasing at sigma={r.sigma}")
            if r.C2 > rows[i - 1].C2:
                raise ValueError(f"C2 not nonincreasing at sigma={r.sigma}")
    return DensityTable(rows=tuple(rows))


def recip_sum_bounds(log_T: float) -> tuple[float, float]:
    """(lower, upper) for the sum of 1/Im(rho) over zeros with 0 < Im <= T.

    upper = log^2(T / 2 pi) / (4 pi), lower = upper - 0.9321;
    requires T >= 4 pi e.
    """
    if log_T < _LOG_4PI_E:
        raise ValueError(f"recip_sum_bounds requires T >= 4*pi*e, got log T = {log_T}")
    upper = (log_T - math.log(2.0 * math.pi)) ** 2 / (4.0 * math.pi)
    return upper - _RECIP_DEFECT, upper
