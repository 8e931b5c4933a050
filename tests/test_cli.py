import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pntbounds import cli
from pntbounds.engine import DEFAULT_ROW_PARAMS, VK_DEFAULT_PARAMS
from pntbounds.extnum import ExtReal


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_table1_single_row(capsys):
    rc, out, _ = run(capsys, "table1", "--rows", "6000")
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # header + one row
    assert "6000" in lines[1] and "0.8335" in lines[1]


def test_table1_full_table_has_15_rows(capsys):
    rc, out, _ = run(capsys, "table1")
    assert rc == 0
    assert len(out.strip().splitlines()) == 16


def test_table1_json_carries_unrounded_internals(capsys):
    rc, out, _ = run(capsys, "table1", "--rows", "6000", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["A_unrounded"] <= row["A"]
    assert set(row["eps0"]) == {"mantissa", "decimal_exponent"}
    assert row["monotone_certified"] is True


def test_table1_csv_header_exact(capsys):
    rc, out, _ = run(capsys, "table1", "--format", "csv")
    assert rc == 0
    assert out.splitlines()[0] == "X,sigma,K,A,B,C,eps0_mantissa,eps0_exp10"
    assert len(out.strip().splitlines()) == 16


def test_table1_output_deterministic(capsys):
    _, out1, _ = run(capsys, "table1", "--format", "csv")
    _, out2, _ = run(capsys, "table1", "--format", "csv")
    assert out1 == out2


def test_table1_custom_anchor_with_overrides(capsys):
    rc, out, _ = run(capsys, "table1", "--log-x0", "6000", "--sigma", "0.99",
                     "--K", "4", "--format", "json")
    assert rc == 0
    row = json.loads(out)[0]
    assert row["sigma"] == 0.99 and row["K"] == 4


def test_table1_vk_regime(capsys):
    rc, out, _ = run(capsys, "table1", "--log-x0", "2.8e10", "--regime", "vk",
                     "--format", "json")
    assert rc == 0
    row = json.loads(out)[0]
    assert row["regime"] == "vk"
    assert abs(row["C"] - 0.1852) < 1e-9
    # the deepest value served in text still has a mantissa that means something
    rc, out, _ = run(capsys, "table1", "--log-x0", "2.8e10", "--regime", "vk")
    assert rc == 0 and out.split()[-1] == "7.02e-78980"


def test_table1_override_out_of_hypothesis_fails(capsys):
    rc, _, err = run(capsys, "table1", "--log-x0", "6000", "--sigma", "0.5")
    assert rc == 1
    assert "error" in err


def test_table1_refuses_a_K_that_would_exhaust_memory(capsys):
    # refused before any work: a medium row's cost is linear in K
    rc, out, err = run(capsys, "table1", "--log-x0", "3000", "--K", "100000000")
    assert (rc, out, err) == (1, "", "error: K = 100000000 outside 1..1000\n")


@pytest.mark.parametrize("argv, reason", [
    ("table1 --sigma 0.5", "--sigma applies only to a --log-x0 row"),
    ("table1 --K 7", "--K applies only to a --log-x0 row"),
    ("table1 --regime vk", "--regime applies only to a --log-x0 row"),
    ("table1 --log-x0 1e6 --K 7 --regime large", "--K applies only to the medium regime, not large"),
    ("table1 --log-x0 1e6 --K 7", "--K applies only to the medium regime, not large"),
    ("table1 --log-x0 2.8e10 --K 1 --regime vk", "--K applies only to the medium regime, not vk"),
    ("table1 --log-x0 6000 --optimize --sigma 0.99",
     "--optimize chooses sigma and K and cannot be combined with --sigma or --K"),
    ("table1 --log-x0 6000 --optimize --K 4",
     "--optimize chooses sigma and K and cannot be combined with --sigma or --K"),
    ("table1 --rows 6000 --log-x0 6000",
     "--rows cannot be combined with --log-x0"),
])
def test_table1_refuses_flags_it_would_ignore(capsys, argv, reason):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert [line for line in out.err.splitlines() if "error:" in line] == \
        [f"pntbounds table1: error: {reason}"]


def test_table1_optimize_failure_says_why(capsys):
    # a VK row far out certifies (its quadratic in w is taken in logs, so nothing overflows), and is
    # refused only because its eps0 is too extreme to print, at 1e300 as at 1e24 and 1e250; the
    # refusal names its row, as a certificate's does
    for log_x0, label in (("1e24", "1e+24"), ("1e250", "1e+250"), ("1e300", "1e+300")):
        rc, out, err = run(capsys, "table1", "--log-x0", log_x0, "--regime", "vk", "--optimize")
        assert (rc, out) == (1, "")
        assert re.fullmatch(rf"error: row {re.escape(label)}: e\^\(-[0-9.e+]+\) is too extreme to print: its "
                            r"mantissa would carry fewer than 3 significant digits\n", err), err
    # a custom row's certificate refusal names its row, as a table row's does
    rc, out, err = run(capsys, "table1", "--log-x0", "150000", "--regime", "large", "--sigma", "0.999")
    assert (rc, out) == (1, "")
    assert err == ("error: row 150000: monotonicity not proved (term 4 nonincreasing fails) "
                   "at log x0 = 150000, sigma=0.999\n")


@pytest.mark.parametrize("log_x0, regime", [("1e12", "vk"), ("2.9e10", "vk"), ("2.85e10", "large"),
                                            ("1e9", "large")])
@pytest.mark.parametrize("optimize", [False, True])
def test_table1_auto_serves_vk_from_the_upper_crossing_on(capsys, log_x0, regime, optimize):
    # auto takes VK at and above the upper envelope crossing (log x ~ 2.894e10), where the VK
    # envelope is the smaller, and large below it down to 1e5
    argv = ["table1", "--log-x0", log_x0, "--format", "json", *(["--optimize"] if optimize else [])]
    auto = run(capsys, *argv, "--regime", "auto")
    assert auto == run(capsys, *argv, "--regime", regime) == run(capsys, *argv)
    assert auto[0] == 0 and json.loads(auto[1])[0]["regime"] == regime


@pytest.mark.parametrize("regime, log_x0", [("medium", 6000.0), ("large", 1e6), ("vk", 3e10)])
@pytest.mark.parametrize("optimize", [False, True])
def test_table1_custom_row_is_labelled_by_its_anchor(capsys, regime, log_x0, optimize):
    argv = ["table1", "--log-x0", repr(log_x0), "--regime", regime, "--format", "json"]
    rc, out, _ = run(capsys, *argv, *(["--optimize"] if optimize else []))
    assert rc == 0
    (row,) = json.loads(out)
    assert (row["label"], row["regime"], row["X"]) == (f"{log_x0:g}", regime, log_x0)


# regime -> (domain probed, anchors always probed); seeded log-uniform anchors fill the rest
CUSTOM_DOMAINS = {"medium": (2488.0, 1e6, (2488.0, 2999.0)), "large": (1e5, 1e12, (1e5, 1.5e5, 2.3e5)),
                  "vk": (2.8e10, 1e20, (2.8e10,))}


@pytest.mark.parametrize("regime", CUSTOM_DOMAINS)
def test_table1_custom_row_takes_sigma_and_K_from_the_table_row_below_it(capsys, regime):
    # a fixed large sigma of 0.999 did not certify on [1e5, 2.35e5)
    lo, hi, fixed = CUSTOM_DOMAINS[regime]
    rng = random.Random(f"custom-{regime}")
    anchors = [*fixed, *(math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(12))]
    same = [p for p in (*DEFAULT_ROW_PARAMS, VK_DEFAULT_PARAMS) if p.regime == regime]
    for log_x0 in anchors:
        rc, out, err = run(capsys, "table1", "--log-x0", repr(log_x0), "--regime", regime, "--format", "json")
        assert (rc, err) == (0, ""), log_x0
        (row,) = json.loads(out)
        below = max((p for p in same if p.anchor <= log_x0), key=lambda p: p.anchor)
        assert (row["sigma"], row["K"]) == (below.sigma, below.K), log_x0


def test_table1_unknown_row_label(capsys):
    rc, _, err = run(capsys, "table1", "--rows", "nope")
    assert rc == 2
    assert "no rows match" in err


def test_brackets_row(capsys):
    rc, out, _ = run(capsys, "brackets", "--regime", "nu2", "--log-x0", "1e6")
    assert rc == 0
    assert "0.4923764" in out and "1.0346912" in out and "1.1502603" in out


def test_brackets_default_prints_six_rows(capsys):
    rc, out, _ = run(capsys, "brackets")
    assert rc == 0
    assert len(out.strip().splitlines()) == 7


def test_brackets_nu3(capsys):
    rc, out, _ = run(capsys, "brackets", "--regime", "nu3", "--format", "json")
    assert rc == 0
    row = json.loads(out)[0]
    assert abs(row["B2"] - 0.18525) < 5e-5


def test_crossovers(capsys):
    rc, out, _ = run(capsys, "crossovers")
    assert rc == 0
    assert "91.2854" in out
    assert "54563.08" in out


def test_eval_psi_matches_reference_epsilon(capsys):
    rc, out, _ = run(capsys, "eval", "--log-x", "6000", "--quantity", "psi")
    assert rc == 0
    assert "3.35e-22" in out


def test_eval_absolute_reported_in_double_range(capsys):
    rc, out, _ = run(capsys, "eval", "--log-x", "100", "--quantity", "psi")
    assert rc == 0
    assert "absolute bound" in out
    rc, out, _ = run(capsys, "eval", "--log-x", "6000", "--quantity", "psi")
    assert "absolute bound" not in out


def test_eval_below_verified_range(capsys):
    rc, _, err = run(capsys, "eval", "--log-x", "1", "--quantity", "psi")
    assert rc == 2
    assert "verify-small" in err


def test_eval_json(capsys):
    rc, out, _ = run(capsys, "eval", "--log-x", "58", "--quantity", "pi", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["quantity"] == "pi"
    assert payload["relative_bound"]["decimal_exponent"] == -1


def test_density_table_env_var(capsys, monkeypatch, tmp_path):
    from importlib import resources

    src = resources.files("pntbounds").joinpath("data/zero_density.csv").read_text()
    alt = tmp_path / "table.csv"
    alt.write_text(src)
    monkeypatch.setenv(cli.ENV_TABLE, str(alt))
    rc, out, _ = run(capsys, "table1", "--rows", "6000")
    assert rc == 0 and "0.8335" in out


def test_corrupt_density_table_fails_cleanly(capsys, monkeypatch, tmp_path):
    alt = tmp_path / "bad.csv"
    alt.write_text("sigma,C1\n0.98,16\n")
    monkeypatch.setenv(cli.ENV_TABLE, str(alt))
    rc, _, err = run(capsys, "table1", "--rows", "6000")
    assert rc == 1
    assert "header" in err


_BUNDLED_CSV = (Path(cli.__file__).parent / "data" / "zero_density.csv").read_text(encoding="utf-8")


def _one_error_line(rc, out, err):
    return rc == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1


def _with_field(row: int, field: int, value: str) -> str:
    lines = _BUNDLED_CSV.splitlines()
    cells = lines[row + 1].split(",")
    cells[field] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("content, reason", [
    ("", "header"),
    (_BUNDLED_CSV.replace("\n0.990,", "\n0.990,1,", 1), "expected 6 finite numbers"),
    ("\n".join(ln.rsplit(",", 1)[0] if i == 3 else ln
               for i, ln in enumerate(_BUNDLED_CSV.splitlines())), "expected 6 finite numbers"),
    (_with_field(5, 4, "nan"), "expected 6 finite numbers"),
    (_with_field(5, 4, "inf"), "expected 6 finite numbers"),
    (_with_field(20, 5, "-inf"), "expected 6 finite numbers"),
    (_with_field(0, 0, "NaN"), "expected 6 finite numbers"),
    (_with_field(7, 3, "x"), "could not convert"),
    (None, "No such file"),
    ("DIR", "Is a directory"),
])
def test_density_table_probes_fail_closed(capsys, tmp_path, content, reason):
    path = tmp_path / "table.csv"
    if content == "DIR":
        path.mkdir()
    elif content is not None:
        path.write_text(content, encoding="utf-8")
    rc, out, err = run(capsys, "--density-table", str(path), "table1", "--rows", "6000")
    assert _one_error_line(rc, out, err), err
    assert reason in err
    if reason == "could not convert":  # the cell's row is named, counted from the first data row
        assert "row 7: could not convert string to float: 'x'" in err


@st.composite
def _mutated_csv(draw) -> str:
    lines = _BUNDLED_CSV.splitlines()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if not lines:
            break
        i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
        kind = draw(st.sampled_from(["drop_row", "dup_row", "drop_field", "add_field", "set_field",
                                     "truncate"]))
        cells = lines[i].split(",")
        j = draw(st.integers(min_value=0, max_value=len(cells) - 1))
        if kind == "drop_row":
            del lines[i]
        elif kind == "dup_row":
            lines.insert(i, lines[i])
        elif kind == "drop_field":
            lines[i] = ",".join(cells[:j] + cells[j + 1:])
        elif kind == "add_field":
            lines[i] = ",".join(cells[:j] + ["1"] + cells[j:])
        elif kind == "set_field":
            cells[j] = draw(st.sampled_from(["nan", "inf", "-inf", "", "x", "0", "-1", "1e308",
                                             "17.5", "0.9855"]))
            lines[i] = ",".join(cells)
        else:
            lines = lines[:i]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_mutated_csv(), st.sampled_from([["table1", "--rows", "6000,1e5"], ["crossovers"],
                                        ["eval", "--log-x", "6000", "--quantity", "theta"]]))
def test_cli_fuzz_mutated_density_tables(tmp_path_factory, content, argv):
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    path.write_text(content, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = cli.main(["--density-table", str(path), *argv])
    assert caught == []
    assert rc == 0 or _one_error_line(rc, out.getvalue(), err.getvalue())


@pytest.mark.parametrize("argv", [["brackets"], ["table1", "--rows", "1e5"]])
def test_domain_errors_exit_1(capsys, monkeypatch, argv):
    from pntbounds import engine, regimes

    def no_fixed_point(log_x0):
        raise regimes.ConvergenceError("B0 fixed point did not converge in 200 iterations")

    monkeypatch.setattr(regimes, "bracket_nu2", no_fixed_point)
    monkeypatch.setattr(engine, "bracket_nu2", no_fixed_point)
    rc, out, err = run(capsys, *argv)
    assert _one_error_line(rc, out, err)
    assert "did not converge" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["table1", "--format", "yaml"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, flag", [
    ("table1 --log-x0 nan", "--log-x0"),
    ("table1 --log-x0 inf --regime large", "--log-x0"),
    ("table1 --log-x0 nan --regime vk", "--log-x0"),
    ("brackets --log-x0 nan", "--log-x0"),
    ("eval --log-x nan --quantity psi", "--log-x"),
    ("eval --log-x inf --quantity theta", "--log-x"),
    ("table1 --log-x0 6000 --sigma nan", "--sigma"),
])
def test_non_finite_numbers_are_usage_errors(argv, flag):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-m", "pntbounds.cli", *argv.split()],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 2
    assert f"argument {flag}:" in res.stderr
    assert "Traceback" not in res.stderr and res.stdout == ""


@pytest.mark.parametrize("argv", [
    ("table1", "--log-x0", "1e300"),
    ("eval", "--log-x", "1e308", "--quantity", "pi"),
])
def test_meaningless_mantissas_fail_closed(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "significant digits" in err


@pytest.mark.parametrize("argv", [
    "table1 --log-x0 1e300 --regime vk",
    "table1 --log-x0 1e305 --regime vk",
    "table1 --log-x0 3e7 --regime large --sigma 0.9999",
    "table1 --log-x0 1e308 --regime large",
])
def test_overflowing_rows_fail_closed(argv):
    # A overflowing a float, and an eps0 too extreme to print, each end in
    # one error line: no traceback and no numpy warning on stderr
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-m", "pntbounds.cli", *argv.split()],
                         env=env, capture_output=True, text=True, timeout=60)
    assert (res.returncode, res.stdout) == (1, "")
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


_FINITE = st.floats(min_value=-1e308, max_value=1e308, allow_nan=False, allow_infinity=False)
_SIGMA = st.one_of(st.floats(min_value=0.97, max_value=1.01), _FINITE)


@st.composite
def _cli_argv(draw) -> list[str]:
    command = draw(st.sampled_from(["table1", "brackets", "eval"]))
    if command == "eval":
        return ["eval", f"--log-x={draw(_FINITE)!r}",
                "--quantity", draw(st.sampled_from(["psi", "theta", "pi"]))]
    argv = [command, f"--log-x0={draw(_FINITE)!r}"]
    if command == "brackets":
        return argv + ["--regime", draw(st.sampled_from(["nu2", "nu3"]))]
    argv += ["--regime", draw(st.sampled_from(["medium", "large", "vk", "auto"]))]
    if draw(st.booleans()):
        argv.append(f"--sigma={draw(_SIGMA)!r}")
    if draw(st.booleans()):
        argv.append(f"--K={draw(st.integers(min_value=-2, max_value=12))}")
    return argv


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_cli_argv())
@example(["table1", "--log-x0", "1e300", "--regime", "vk"])
@example(["table1", "--log-x0", "1e305", "--regime", "vk"])
@example(["table1", "--log-x0", "1e308", "--regime", "large"])
@example(["table1", "--log-x0=-1e+308", "--regime", "large"])
@example(["eval", "--log-x", "1e308", "--quantity", "pi"])
@example(["brackets", "--log-x0", "1e308", "--regime", "nu3"])
def test_cli_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    assert rc in (0, 1, 2)
    assert caught == []
    if rc == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_verify_small_passes(capsys):
    rc, out, _ = run(capsys, "verify-small")
    assert rc == 0
    assert out.count("pass") >= 3
    assert "MARGIN" in out and "ASSUMED" in out


def test_eps0_sci_format():
    # the mantissa of e^(log 3.45 - 47335 log 10) comes out as 3.450000000050351, so its
    # ceiling is 3.46; the old 1e-6 slack printed 3.45, below the value
    assert cli.eps0_sci(ExtReal.exp_of(math.log(3.45) - 47335 * math.log(10.0))) == "3.46e-47335"
    assert cli.eps0_sci(ExtReal.from_real(23.1447)) == "2.32e+01"
    assert cli.eps0_sci(ExtReal.from_real(2.310000005)) == "2.32e+00"
    assert cli.eps0_sci(ExtReal.from_real(9.996)) == "1.00e+01"


@settings(max_examples=3000, deadline=None, derandomize=True, database=None)
@given(st.floats(min_value=1e-300, max_value=1e300))
@example(2.310000005)
@example(2.31)
@example(9.999)
@example(1.0)
def test_eps0_sci_rounds_the_mantissa_up_exactly(v):
    # the printed decimal is the ceiling of log10_parts' mantissa at 2 decimals
    e = ExtReal.from_real(v)
    m, exp10 = e.log10_parts()
    mantissa, _, exponent = cli.eps0_sci(e).partition("e")
    printed = Fraction(mantissa) * Fraction(10) ** (int(exponent) - exp10)
    assert Fraction(m) <= printed < Fraction(m) + Fraction(1, 100)
    assert printed * 100 == int(printed * 100)


def test_sieve_checked_ranges_are_decided_once(capsys, monkeypatch):
    # psi's range in engine moves verify-small's psi line, coverage's first two spans and eval's gate together
    from pntbounds import engine

    monkeypatch.setitem(engine.SIEVE_CHECKED_HI, "psi", 53.0)
    rc, out, _ = run(capsys, "verify-small")
    assert rc == 0
    assert "   psi on [2, 53]: pass (" in out
    assert "segment [2, 53]: PASS - sieve check at " in out
    assert "segment (53, exp(58.336)]: PASS - " in out
    between = f"{math.log(56.0):.6f}"  # above log 53, below the unpatched log 59
    assert run(capsys, "eval", "--log-x", between, "--quantity", "psi")[0] == 0
    rc, _, err = run(capsys, "eval", "--log-x", "3.9", "--quantity", "psi")
    assert rc == 2 and f"(log x >= {math.log(53.0):.4f})" in err


def test_verify_small_sieves_only_its_ranges(capsys, monkeypatch):
    # it sieves to the top of its checked ranges and builds row log2 alone; a wider sieve printed
    # the same bytes, so it takes no --limit
    from pntbounds import engine, primes

    limits, rows = [], []
    build_sieve, compute_row = primes.build_sieve, engine.compute_row
    monkeypatch.setattr(primes, "build_sieve", lambda limit: limits.append(limit) or build_sieve(limit))
    monkeypatch.setattr(engine, "compute_row", lambda p, table: rows.append(p.label) or compute_row(p, table))
    monkeypatch.setattr(engine, "compute_default_rows", None)
    rc, out, _ = run(capsys, "verify-small")
    assert (rc, limits, rows) == (0, [2657], ["log2"])
    assert out == (Path(__file__).resolve().parents[1] / "perfbench/reference/verify_small.txt").read_text()
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-small", "--limit", "100000"])
    assert exc.value.code == 2
