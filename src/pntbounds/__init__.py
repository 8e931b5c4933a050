"""Certified explicit error bounds for the prime number theorem.

The package recomputes envelope constants (A, B, C, eps0) bounding
|psi(x) - x|, |theta(x) - x| and |pi(x) - li(x)| from explicit zero-free
regions and zero-density estimates for the Riemann zeta function, and
verifies every small-range claim exactly against a sieve.

``import pntbounds`` runs no submodule.  Each public name, and each
submodule named below, is imported from its module on first use (PEP 562),
so a process loads only the modules it calls: numpy only with ``primes``.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOME = {name: module for module, names in (
    ("extnum", "ExtReal"),
    ("primes", "PrimeTable build_sieve integral_I1 li verify_pointwise"),
    ("regimes", "Bracket bracket_nu2 bracket_nu3 verify_unimodal vk_decay_arg"),
    ("zdensity", "DensityTable load_table recip_sum_bounds"),
    ("zfr", "envelope_crossovers limiting_constants nu1 nu2 nu3"),
    ("engine", "BoundConstants CertificationError DEFAULT_ROW_PARAMS VK_DEFAULT_PARAMS certify_monotone "
               "check_rvm_precondition ck compute_default_rows compute_row cprime large_bound medium_bound "
               "medium_terms optimize piecewise_coverage regime_compare vk_bound"),
    ("derived", "pi_constants_classical pi_constants_vk theta_constants"),
) for name in names.split()}


def __getattr__(name: str):
    """A public name from its submodule, or one of those submodules, imported on first use."""
    from importlib import import_module
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    if name in _HOME.values():
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    """The loaded globals and every public name, loaded or not."""
    return sorted({*globals(), *__all__})


__all__ = [
    "ExtReal",
    "PrimeTable", "build_sieve", "integral_I1", "li", "verify_pointwise",
    "Bracket", "bracket_nu2", "bracket_nu3", "verify_unimodal", "vk_decay_arg",
    "DensityTable", "load_table", "recip_sum_bounds",
    "envelope_crossovers", "limiting_constants", "nu1", "nu2", "nu3",
    "BoundConstants", "CertificationError", "DEFAULT_ROW_PARAMS", "VK_DEFAULT_PARAMS",
    "certify_monotone", "check_rvm_precondition", "ck", "compute_default_rows", "compute_row",
    "cprime", "large_bound", "medium_bound", "medium_terms", "optimize", "piecewise_coverage",
    "regime_compare", "vk_bound",
    "pi_constants_classical", "pi_constants_vk", "theta_constants",
    "__version__",
]
