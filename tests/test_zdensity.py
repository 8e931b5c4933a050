import math

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


def test_monotonicity_enforced_at_load(density_table, tmp_path):
    rows = density_table.rows
    lines = ["sigma,d,alpha,delta,C1,C2"]
    for r in rows:
        c1 = 20.0 - r.sigma if abs(r.sigma - 0.985) < 1e-9 else r.C1  # break C1 order
        lines.append(f"{r.sigma},{r.d},{r.alpha},{r.delta},{c1},{r.C2}")
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
    with pytest.raises(ValueError):
        density_table.coeffs(0.5)
    with pytest.raises(ValueError):
        density_table.coeffs(1.0001)


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
