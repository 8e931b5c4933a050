"""Zero-density coefficients and the reciprocal zero-sum bound.

The density estimate N(sigma, T) <= C1 T^(8(1-sigma)/3) log^(5-2 sigma) T
+ C2 log^2 T is read through its coefficient table (C1, C2 against sigma
on a 0.001 grid over [0.98, 1]).  The table ships as a CSV data file and
is validated on load, so updated zero-density constants can be swapped
in without touching code.  C1 is nondecreasing and C2 nonincreasing in
sigma at the grid points.  An off-grid sigma in the cell (sigma_c, sigma_{c+1})
takes C1 from the grid point above and C2 from the one below, with sigma's
own exponents.  The rows alone give only N(sigma, T) <= N(sigma_c, T), with
sigma_c's exponents, so every off-grid query assumes of the table's source
that for every sigma in the cell N(sigma, T) <= C1(sigma_{c+1})
T^(8(1-sigma)/3) log^(5-2 sigma) T + C2(sigma_c) log^2 T.
"""

from __future__ import annotations

import bisect
import csv
import math
import sys
from importlib import resources
from pathlib import Path
from typing import NamedTuple

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
_GRID_LO, _GRID_STEP, _GRID_ROWS = 0.980, 0.001, 21
_RECIP_DEFECT = 0.9321
_LOG_4PI_E = math.log(4.0 * math.pi) + 1.0
_MAX_LOG_T = math.sqrt(sys.float_info.max)  # (log T - log 2 pi)^2 stays a finite float below it


class DensityRow(NamedTuple):
    sigma: float
    C1: float
    C2: float


class DensityTable(NamedTuple):
    """Validated (sigma, C1, C2) table.

    N(sigma, t) = 0 for t <= RIEMANN_HEIGHT; enforcing that is the
    caller's job (the bounding engines integrate upward from the height).
    """

    rows: tuple[DensityRow, ...]

    @property
    def sigma_grid(self) -> list[float]:
        return [r.sigma for r in self.rows]

    def coeffs(self, sigma: float) -> tuple[float, float]:
        """(C1, C2) from the rows ``rows_at`` picks."""
        i1, i2 = self.rows_at(sigma)
        return self.rows[i1].C1, self.rows[i2].C2

    def rows_at(self, sigma: float) -> tuple[int, int]:
        """Indices of the rows giving (C1, C2) at sigma: a sigma within 1e-12 of a grid point takes that
        row; any other takes C1 from the row above and C2 from the row below, the conservative rule above."""
        grid = self.sigma_grid
        if not grid[0] <= sigma <= grid[-1]:  # a row at or above, and one at or below
            raise ValueError(f"sigma={sigma} outside table range [{grid[0]}, {grid[-1]}]")
        i = min(max(round((sigma - _GRID_LO) / _GRID_STEP), 0), len(grid) - 1)
        if abs(grid[i] - sigma) < 1e-12:
            return i, i
        hi = bisect.bisect_left(grid, sigma)
        return hi, hi - 1


def load_table(path: str | Path | None = None) -> DensityTable:
    """Load and validate the coefficient table (packaged CSV by default)."""
    if path is None:
        ref = resources.files("pntbounds").joinpath("data/zero_density.csv")
        text = ref.read_text(encoding="utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    reader = csv.reader(text.strip().splitlines())
    header = next(reader, [])
    if header != _HEADER:
        raise ValueError(f"bad density table header {header!r}, expected {_HEADER!r}")
    rows = []
    for i, line in enumerate(line for line in reader if line):
        try:
            vals = [float(v) for v in line]
        except ValueError as exc:  # name the row, as the checks below do
            raise ValueError(f"row {i}: {exc}") from None
        if len(vals) != len(_HEADER) or not all(map(math.isfinite, vals)):
            raise ValueError(f"row {i}: expected {len(_HEADER)} finite numbers, got {vals}")
        rows.append(DensityRow(vals[0], *vals[4:]))  # d, alpha, delta: checked, not kept
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
    requires T >= 4 pi e and log T below ``_MAX_LOG_T``, from where the square overflows.
    """
    if not _LOG_4PI_E <= log_T < _MAX_LOG_T:  # NaN and inf too
        raise ValueError(f"recip_sum_bounds requires T >= 4*pi*e and log T < {_MAX_LOG_T:.6g}, "
                         f"got log T = {log_T}")
    upper = (log_T - math.log(2.0 * math.pi)) ** 2 / (4.0 * math.pi)
    return upper - _RECIP_DEFECT, upper
