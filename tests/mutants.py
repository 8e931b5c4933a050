"""A standing mutation check for the certificates, lane binding, served envelopes and domain checks.

Each entry of ``MUTANTS`` breaks one piece of the program on purpose: it
names the file, the exact old text (which must occur there exactly once),
the new text, what the mutant breaks, and the tests expected to fail on it.
Run as a program,

    python tests/mutants.py [name ...]

copies the repository into a temporary directory, checks that the named
tests pass there unmutated, then applies each mutant in turn to a fresh
copy and runs its tests.  It prints ``killed`` (a test failed), ``survived``
(all passed) or ``error`` (pytest could not run them) per mutant, and exits
1 unless every mutant is killed.  pytest does not collect this file; the
tier-1 test ``tests/test_mutants.py`` checks that every old text still
occurs exactly once, so the list cannot rot.  A change to any of these
adds its own mutants here.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str                  # relative to the repository root
    old: str                   # occurs exactly once in ``path``
    new: str
    breaks: str
    killers: tuple[str, ...]   # pytest node ids, relative to the repository root


_ENGINE, _DERIVED, _PRIMES = "src/pntbounds/engine.py", "src/pntbounds/derived.py", "src/pntbounds/primes.py"
_T_ENGINE, _T_DERIVED = "tests/test_engine.py", "tests/test_derived.py"
_T_SERVED = f"{_T_DERIVED}::test_served_envelopes_list_each_quantitys_sets_in_order"
_T_STEPS = "tests/test_primes.py::test_steps_match_brute_force"

MUTANTS: tuple[Mutant, ...] = (
    Mutant("phi_sup_slope_halved", _ENGINE, "        phi += dq / q\n", "        phi += 0.5 * dq / q\n",
           "a term's q'/q slope is halved, so a rising term can pass the decrease certificate",
           (f"{_T_ENGINE}::test_certified_terms_never_rise",)),
    Mutant("coverage_slope_quartered", _ENGINE, "row.C / (2.0 * math.sqrt(lo))", "row.C / (4.0 * math.sqrt(lo))",
           "the coverage slope f'(log 59) takes C/(4 sqrt L) for C/(2 sqrt L)",
           (f"{_T_ENGINE}::test_coverage_segment_fails_closed",)),
    Mutant("h58_margin_plus_one", _DERIVED, 'Premise("h(58) >= 0", h0 - _COVERAGE_TOL, lo)',
           'Premise("h(58) >= 0", h0 + 1.0 - _COVERAGE_TOL, lo)',
           "the pi transfer's h(58) margin is raised by 1",
           (f"{_T_DERIVED}::test_h_condition_holds_b_plus_alpha_at_two",)),
    Mutant("vk_truncation_halved", _ENGINE, "trunc - RVM_LOG_POW, log_x0", "trunc - 0.5 * RVM_LOG_POW, log_x0",
           "the VK truncation premise compares against half of RVM_LOG_POW",
           (f"{_T_ENGINE}::test_vk_certificate_names_each_failed_premise",)),
    Mutant("epsilon0_split_moved", _ENGINE, "    if B > C * X * decay_arg_prime(decay, X):\n",
           "    if B > 1.01 * C * X * decay_arg_prime(decay, X):\n",
           "epsilon0_at takes the supremum at X for an envelope that still rises just beyond X",
           (f"{_T_ENGINE}::test_epsilon0_anchored_when_maximizer_interior",)),
    Mutant("emit_drops_last_premise", _ENGINE, "refusal(f.premises)", "refusal(f.premises[:-1])",
           "emission decides all but the last premise of the fit's certificate",
           (f"{_T_ENGINE}::test_emission_refuses_on_the_float_calls_premises",)),
    Mutant("theta_default_extra", _DERIVED, "extra = 10.0 ** -REGIMES[psi.regime].a_decimals if extra is None",
           "extra = 0.01 if extra is None",
           "theta's default extra ignores the regime's decimals of A",
           (f"{_T_DERIVED}::test_theta_default_extra_is_what_eval_serves",)),
    Mutant("verify_ends_repeated", _PRIMES,
           "ends = [x for x in (lo, hi) if not (xs.size and x in (xs[0], xs[-1]))]", "ends = [lo, hi]",
           "verify_pointwise evaluates lo and hi twice when they are jump points",
           ("tests/test_primes.py::test_verify_pointwise_calls_li_once_and_bound_once_per_point",)),
    Mutant("psi_below_ignores_powers", _PRIMES, "self._power_cum[n_pw - is_pw]", "self._power_cum[n_pw]",
           "psi just below a jump counts the powers up to and including the jump, so a power's own step is lost",
           (_T_STEPS,)),
    Mutant("theta_below_read_at_jump", _PRIMES, "self._cum_log[a:b]", "self._cum_log[a + 1:b + 1]",
           "theta just below a jump is read at the jump",
           (_T_STEPS, "tests/test_primes.py::test_verify_pointwise_matches_pointwise_reference")),
    Mutant("li_stops_once_n_passes_ln_x", _PRIMES,
           "n > lx_max and settled(abs(step) < 1e-17 * abs(total))", "n > lx_max",
           "li returns at the first tested term past ln x, before its steps fall below double precision",
           ("tests/test_primes.py::test_li_stop_rule_every_fourth_term_gives_the_same_sum",)),
    Mutant("regime_compare_tolerance", _ENGINE, "tol=1e-9 * 60.0", "tol=1e-10 * 60.0",
           "regime_compare bisects its lower crossing 10x tighter, moving api.json's last bits",
           ("tests/test_golden.py::test_benchmark_capture_rewrites_every_reference_file",)),
    Mutant("coverage_b_below_2_weak", _ENGINE, 'Premise("B < 2", 2.0 - row.B, lo, strict=True)',
           'Premise("B < 2", 2.0 - row.B, lo)',
           "the coverage premise B < 2 holds at B = 2",
           (f"{_T_ENGINE}::test_coverage_segment_fails_closed",)),
    Mutant("holds_ignores_strict", _ENGINE,
           "return self.margin > 0.0 if self.strict else self.margin >= 0.0", "return self.margin >= 0.0",
           "a strict premise holds at margin 0",
           (f"{_T_ENGINE}::test_premise_sign_rule_at_the_edges",)),
    Mutant("h_b_plus_alpha_strict", _DERIVED, 'Premise("B + alpha <= 2", 2.0 - (B + alpha), lo)',
           'Premise("B + alpha <= 2", 2.0 - (B + alpha), lo, strict=True)',
           "the h' premise B + alpha <= 2 fails at B + alpha = 2",
           (f"{_T_DERIVED}::test_h_condition_holds_b_plus_alpha_at_two",)),
    Mutant("derived_reads_regimes_private", _DERIVED, "from .regimes import DecayKind,",
           "from .regimes import _R_PRIME_FALLS, DecayKind,",
           "derived takes regimes' private r'-falls constant instead of its margin function",
           ("tests/test_surface.py::test_private_names_cross_modules_only_where_listed",)),
    Mutant("bound_c1_from_row_c", _ENGINE, "np.tile(cell + 1, 2)", "np.tile(cell, 2)",
           "optimize binds each probe lane's C1 to row c, the C2 row, instead of row c + 1 above it",
           (f"{_T_ENGINE}::test_every_sigma_a_search_ranks_reads_the_rows_its_lane_was_bound_to",)),
    Mutant("bound_s2b_from_ln_2c1", _ENGINE, "return log_2c1[rows[0]], log_2c2[rows[1]]",
           "return log_2c1[rows[0]], log_2c1[rows[1]]",
           "every binder takes its lanes' ln 2 C2 (VK's s2b) from ln 2 C1",
           (f"{_T_ENGINE}::test_medium_lanes_equal_their_float_calls_by_hex",)),
    Mutant("medium_binds_c1_from_c2_rows", _ENGINE, "log_2c, k_max = _bound_log_2c(table, rows),",
           "log_2c, k_max = _bound_log_2c(table, (rows[1], rows[1])),",
           "the medium binder takes each lane's C1 from its C2 row, rows[1]",
           (f"{_T_ENGINE}::test_medium_lanes_equal_their_float_calls_by_hex",)),
    Mutant("large_binds_c2_from_c1_rows", _ENGINE, "log_2c1, log_2c2 = _bound_log_2c(table, rows)",
           "log_2c1, log_2c2 = _bound_log_2c(table, (rows[0], rows[0]))",
           "the large binder takes each lane's C2 from its C1 row, rows[0]",
           (f"{_T_ENGINE}::test_fit_lanes_equal_float_calls_bit_for_bit",)),
    Mutant("vk_fit_binds_nu2", _ENGINE, "    br = bracket_nu3(log_x0)\n", "    br = bracket_nu2(log_x0)\n",
           "the VK fit builds its envelope on the Ford region's nu2 bracket instead of nu3",
           (f"{_T_ENGINE}::test_vk_bound_constants",)),
    Mutant("served_theta_takes_row_a", _DERIVED, "theta_constants(r).A1, r.B", "r.A, r.B",
           "the served theta envelope takes the psi row's A in place of its A1",
           (_T_SERVED, f"{_T_DERIVED}::test_theta_default_extra_is_what_eval_serves")),
    Mutant("served_pi_vk_first", _DERIVED,
           '(("classical", pi_constants_classical()), ("vk", pi_constants_vk()))',
           '(("vk", pi_constants_vk()), ("classical", pi_constants_classical()))',
           "the served pi list puts the VK set first, so verify-small checks it in place of the classical one",
           (_T_SERVED, "tests/test_cli.py::test_verify_small_sieves_only_its_ranges")),
    Mutant("nu3_lets_nan_through", "src/pntbounds/zfr.py",
           '    if not _LOG3 <= log_t < math.inf:\n        raise ValueError(f"nu3',
           '    if log_t < _LOG3:\n        raise ValueError(f"nu3',
           "nu3's domain check lets NaN and inf through again",
           ("tests/test_zfr.py::test_widths_refuse_non_finite_log_t",)),
    Mutant("vk_decay_arg_domain_open", "src/pntbounds/regimes.py", "    if not 1.0 < log_x < math.inf:  # NaN too\n",
           "    if log_x <= 0.0:\n",
           "the VK decay argument's domain check lets 0 < log x <= 1, NaN and inf through",
           ("tests/test_regimes.py::test_vk_decay_args_refuse_log_x_outside_their_domain",)),
    Mutant("recip_sum_square_overflows", "src/pntbounds/zdensity.py", "log_T < _MAX_LOG_T:", "log_T < math.inf:",
           "recip_sum_bounds lets a log T through whose square overflows",
           ("tests/test_zdensity.py::test_recip_sum_refuses_log_t_whose_square_overflows",)),
)


_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out")


def _copy(dest: Path) -> Path:
    shutil.copytree(ROOT, dest, ignore=_SKIP)
    return dest


def _pytest(repo: Path, tests) -> int:
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=repo, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def run(mutant: Mutant) -> str:
    """``killed``, ``survived`` or ``error`` for one mutant, applied to a fresh copy."""
    with tempfile.TemporaryDirectory() as tmp:
        repo = _copy(Path(tmp) / "repo")
        path = repo / mutant.path
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        rc = _pytest(repo, mutant.killers)
    return {0: "survived", 1: "killed"}.get(rc, f"error (pytest exit {rc})")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory() as tmp:
        rc = _pytest(_copy(Path(tmp) / "repo"), sorted({t for m in chosen for t in m.killers}))
    if rc != 0:
        print(f"the unmutated copy fails its mutants' tests (pytest exit {rc}); nothing to check")
        return 1
    survivors = 0
    for m in chosen:
        verdict = run(m)
        survivors += verdict != "killed"
        print(f"{verdict:>9}  {m.name}: {m.breaks}", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
