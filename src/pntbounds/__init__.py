"""Certified explicit error bounds for the prime number theorem.

The package recomputes envelope constants (A, B, C, eps0) bounding
|psi(x) - x|, |theta(x) - x| and |pi(x) - li(x)| from explicit zero-free
regions and zero-density estimates for the Riemann zeta function, and
verifies every small-range claim exactly against a sieve.
"""

from .extnum import ExtReal
from .regimes import Bracket, bracket_nu2, bracket_nu3, verify_unimodal, vk_decay_arg
from .zdensity import DensityTable, load_table, recip_sum_bounds
from .zfr import envelope_crossovers, limiting_constants, nu1, nu2, nu3
from .engine import (
    BoundConstants,
    CertificationError,
    DEFAULT_ROW_PARAMS,
    VK_DEFAULT_PARAMS,
    certify_monotone,
    check_rvm_precondition,
    ck,
    compute_default_rows,
    compute_row,
    cprime,
    large_bound,
    medium_bound,
    medium_terms,
    optimize,
    piecewise_coverage,
    regime_compare,
    vk_bound,
)
from .derived import (
    pi_constants_classical,
    pi_constants_vk,
    theta_constants,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    """The sieve's names import ``primes``, and numpy with it, on first use."""
    if name in ("PrimeTable", "build_sieve", "integral_I1", "li", "verify_pointwise"):
        from . import primes
        return getattr(primes, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ExtReal",
    "PrimeTable",
    "build_sieve",
    "integral_I1",
    "li",
    "verify_pointwise",
    "Bracket",
    "bracket_nu2",
    "bracket_nu3",
    "verify_unimodal",
    "vk_decay_arg",
    "DensityTable",
    "load_table",
    "recip_sum_bounds",
    "envelope_crossovers",
    "limiting_constants",
    "nu1",
    "nu2",
    "nu3",
    "BoundConstants",
    "CertificationError",
    "DEFAULT_ROW_PARAMS",
    "VK_DEFAULT_PARAMS",
    "certify_monotone",
    "check_rvm_precondition",
    "ck",
    "compute_default_rows",
    "compute_row",
    "cprime",
    "large_bound",
    "medium_bound",
    "medium_terms",
    "optimize",
    "piecewise_coverage",
    "regime_compare",
    "vk_bound",
    "pi_constants_classical",
    "pi_constants_vk",
    "theta_constants",
    "__version__",
]
