"""Zero-density estimate N0(sigma, T) and the reciprocal zero-sum bound.

The coefficient table (C1, C2 against sigma on a 0.001 grid over
[0.98, 1]) ships as a CSV data file and is validated on load, so updated
zero-density constants can be swapped in without touching code.  C1 is
nondecreasing and C2 nonincreasing in sigma; off-grid queries rely on
exactly that monotonicity: take C1 from the grid point above and C2 from
the grid point below.
"""

from __future__ import annotations

import bisect
import csv
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .extnum import ExtReal

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
    caller's job (the bounding engines integrate upward from the height),
    N0 below is the pure formula.
    """

    rows: tuple[DensityRow, ...]

    @property
    def sigma_grid(self) -> list[float]:
        return [r.sigma for r in self.rows]

    def coeffs(self, sigma: float) -> tuple[float, float]:
        """(C1, C2) at sigma; off-grid uses the conservative rule above."""
        if sigma < _GRID_LO or sigma > _GRID_HI:
            raise ValueError(f"sigma={sigma} outside table range [{_GRID_LO}, {_GRID_HI}]")
        grid = self.sigma_grid
        i = round((sigma - _GRID_LO) / _GRID_STEP)
        if 0 <= i < len(grid) and abs(grid[i] - sigma) < 1e-12:
            return self.rows[i].C1, self.rows[i].C2
        hi = bisect.bisect_left(grid, sigma)
        return self.rows[hi].C1, self.rows[hi - 1].C2

    def N0(self, sigma: float, log_T: float) -> ExtReal:
        """C1(sigma) T^(8(1-sigma)/3) log^(5-2 sigma) T + C2(sigma) log^2 T.

        Valid as a zero count only for T > H; below that the true count
        is zero and the formula value is flagged, not suppressed.
        """
        if log_T < LOG_RIEMANN_HEIGHT:
            warnings.warn(
                f"N0 queried below the verified height (log T = {log_T:.4f} < "
                f"{LOG_RIEMANN_HEIGHT:.4f}); the zero count there is 0",
                RuntimeWarning,
                stacklevel=2,
            )
        c1, c2 = self.coeffs(sigma)
        lt = math.log(log_T)
        term1 = ExtReal.exp_of(math.log(c1) + (8.0 * (1.0 - sigma) / 3.0) * log_T + (5.0 - 2.0 * sigma) * lt)
        term2 = ExtReal.exp_of(math.log(c2) + 2.0 * lt)
        return term1 + term2


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
