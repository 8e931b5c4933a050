import bisect
import math
import sys
from importlib import resources

import numpy as np
import pytest

from pntbounds.zdensity import (
    LOG_RIEMANN_HEIGHT,
    RIEMANN_HEIGHT,
    load_table,
    recip_sum_bounds,
)


def test_riemann_height_value():
    assert RIEMANN_HEIGHT == 3_000_175_332_800
    assert LOG_RIEMANN_HEIGHT == pytest.approx(28.72969, abs=1e-5)


def test_table_loads_with_expected_grid(density_table):
    grid = density_table.sigma_grid
    assert len(grid) == 21
    assert grid[0] == pytest.approx(0.980)
    assert grid[-1] == pytest.approx(1.000)
    assert type(density_table.rows[0])._fields == ("sigma", "C1", "C2")  # the CSV's d, alpha, delta are not kept


def test_monotonicity_enforced_at_load(tmp_path):
    lines = resources.files("pntbounds").joinpath("data/zero_density.csv").read_text().splitlines()
    *head, _, c2 = lines[6].split(",")  # sigma = 0.985
    lines[6] = ",".join([*head, "19.015", c2])  # break C1 order
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines))
    with pytest.raises(ValueError, match="C1"):
        load_table(bad)


def test_header_and_shape_enforced(tmp_path):
    f = tmp_path / "short.csv"
    f.write_text("sigma,d,alpha,delta,C1,C2\n0.980,0.3,0.06,0.31,16.0,2.2\n")
    with pytest.raises(ValueError, match="21 rows"):
        load_table(f)
    f.write_text("sigma,C1,C2\n0.980,16.0,2.2\n")
    with pytest.raises(ValueError, match="header"):
        load_table(f)


def test_coeffs_on_grid(density_table):
    assert density_table.coeffs(0.990) == (16.848, 2.150)
    assert density_table.coeffs(0.980) == (16.281, 2.231)
    assert density_table.coeffs(1.000) == (17.418, 2.069)


def test_coeffs_off_grid_take_safe_sides(density_table):
    # C1 from the grid point above, C2 from the one below
    assert density_table.coeffs(0.9855) == (16.621, 2.191)
    assert density_table.coeffs(0.9999932) == (17.418, 2.077)


def test_coeffs_conservative_in_every_cell(density_table):
    grid = density_table.sigma_grid
    for lo, hi in zip(grid[:-1], grid[1:]):
        mid = 0.5 * (lo + hi)
        c1, c2 = density_table.coeffs(mid)
        assert c1 >= density_table.coeffs(lo)[0]
        assert c2 >= density_table.coeffs(hi)[1]


def test_coeffs_domain(density_table):
    for bad in (0.98 - 5e-13, 1.0 + 5e-13, 0.5, 1.0001, math.nan):
        with pytest.raises(ValueError) as refused:
            density_table.coeffs(bad)
        assert str(refused.value) == f"sigma={bad} outside table range [0.98, 1.0]"


def _coeffs_oracle(table, sigma):
    """The scalar rule as first written: nearest grid row if within 1e-12, else bisect."""
    grid = table.sigma_grid
    i = round((sigma - 0.98) / 0.001)
    if 0 <= i < len(grid) and abs(grid[i] - sigma) < 1e-12:
        return table.rows[i].C1, table.rows[i].C2
    hi = bisect.bisect_left(grid, sigma)
    return table.rows[hi].C1, table.rows[hi - 1].C2


def _lane_coeffs(table, sigmas):
    """(C1, C2) lists from the rows float ``rows_at`` calls pick, as the optimizer's bindings read them."""
    picked = [table.rows_at(s) for s in np.asarray(sigmas).tolist()]
    return [table.rows[i1].C1 for i1, _ in picked], [table.rows[i2].C2 for _, i2 in picked]


def test_coeffs_lanes_match_float_calls(density_table):
    # the optimizer binds each lane to the rows ``rows_at`` picks at its sigma;
    # they must give what a float ``coeffs`` call gives, on and off the grid
    grid = np.array(density_table.sigma_grid)
    lanes = np.concatenate([grid, grid + 5e-13, grid - 5e-13, grid + 2e-12, grid - 2e-12, [1.0]])
    lanes = lanes[(lanes >= 0.98) & (lanes <= 1.0)]
    assert lanes.size == 21 * 5 + 1 - 4   # only 0.98 - d and 1.0 + d fall outside
    c1, c2 = _lane_coeffs(density_table, lanes)
    want = [density_table.coeffs(s) for s in lanes.tolist()]
    assert list(zip(c1, c2)) == want
    assert want == [_coeffs_oracle(density_table, s) for s in lanes.tolist()]
    # within 5e-13 counts as on the grid, 2e-12 away as off it
    rows = density_table.rows
    inner = grid[1:-1]
    assert _lane_coeffs(density_table, inner + 5e-13)[0] == [r.C1 for r in rows[1:-1]]
    assert _lane_coeffs(density_table, inner - 5e-13)[1] == [r.C2 for r in rows[1:-1]]
    assert _lane_coeffs(density_table, inner + 2e-12)[0] == [r.C1 for r in rows[2:]]
    assert _lane_coeffs(density_table, inner - 2e-12)[1] == [r.C2 for r in rows[:-2]]


def test_coeffs_refuses_sigma_beyond_the_tables_own_grid_ends(density_table, tmp_path):
    # load_table lets a grid sigma sit up to 1e-9 off its nominal value; below
    # the first row there is no row to take C2 from (index -1 would wrap to
    # the last, smallest C2), and above the last none to take C1 from
    lines = resources.files("pntbounds").joinpath("data/zero_density.csv").read_text().splitlines()
    lines[1] = "0.9800000005" + lines[1][len("0.980"):]
    lines[-1] = "0.9999999995" + lines[-1][len("1.000"):]
    path = tmp_path / "nudged.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    table = load_table(path)
    for sigma in (0.98, 1.0):
        with pytest.raises(ValueError, match="outside table range"):
            table.coeffs(sigma)
    assert table.coeffs(0.9800000005) == density_table.coeffs(0.98)


def test_recip_sum_at_validity_edge():
    lo, up = recip_sum_bounds(math.log(4.0 * math.pi * math.e))
    want = (1.0 + math.log(2.0)) ** 2 / (4.0 * math.pi)
    assert up == pytest.approx(want, rel=1e-14)
    assert up == pytest.approx(0.2281285, abs=1e-6)
    assert lo == pytest.approx(up - 0.9321, rel=1e-14)


def test_recip_sum_at_riemann_height():
    lo, up = recip_sum_bounds(LOG_RIEMANN_HEIGHT)
    want = (LOG_RIEMANN_HEIGHT - math.log(2 * math.pi)) ** 2 / (4 * math.pi)
    assert up == pytest.approx(want, rel=1e-14)
    assert LOG_RIEMANN_HEIGHT - math.log(2 * math.pi) == pytest.approx(26.8918, abs=1e-4)
    assert lo == up - 0.9321


def test_recip_sum_domain():
    with pytest.raises(ValueError):
        recip_sum_bounds(2.0)


@pytest.mark.parametrize("log_T", [1.35e154, 1e200, sys.float_info.max])
def test_recip_sum_refuses_log_t_whose_square_overflows(log_T):
    # 1e200 once raised OverflowError, which the CLI does not catch
    recip_sum_bounds(1.34e154)  # the square of log T / 2 pi still fits a float here
    with pytest.raises(ValueError, match=r"and log T < 1\.34078e\+154"):
        recip_sum_bounds(log_T)


@pytest.mark.parametrize("log_T", [math.nan, math.inf, -math.inf])
def test_recip_sum_refuses_non_finite_log_t(log_T):
    # NaN once gave (nan, nan) and inf gave (inf, inf)
    with pytest.raises(ValueError, match="requires T >= 4"):
        recip_sum_bounds(log_T)
