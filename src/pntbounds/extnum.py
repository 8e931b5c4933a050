"""Extended-exponent nonnegative reals stored in the natural-log domain.

Quantities in this package range from O(10) down to 10^-47335 and below,
far past the reach of IEEE doubles.  ``ExtReal`` keeps the natural log of
the magnitude in a double, so products and log-sum-exp additions stay
exact-in-log no matter how extreme the exponent.
"""

from __future__ import annotations

import math

__all__ = ["ExtReal", "EXT_ZERO", "log_add"]

_LN10 = math.log(10.0)
_LN2 = math.log1p(1.0)  # numpy's logaddexp adds this for equal operands, infinite ones included
_MANTISSA_DIGITS = 3  # significant digits a printed mantissa must carry


def log_add(a: float, b: float) -> float:
    """ln(e^a + e^b), as ``ExtReal`` adds: numpy's ``logaddexp`` formula, in floats."""
    if b > a:
        a, b = b, a
    if a == b:  # inf - inf would be NaN
        return a + _LN2
    return a + math.log1p(math.exp(b - a))


class ExtReal:
    """A value in [0, inf), stored as log_value = ln(magnitude).

    Zero is a log_value of -inf, the identity of the log-sum-exp ``+``.
    A log_value of +inf marks overflow; consumers that certify bounds must
    reject it.  Instances are immutable.  Not a tuple: equality is by
    value, no tuple equals an ExtReal, and there is no ordering.
    """

    __slots__ = ("log_value",)

    def __init__(self, log_value: float) -> None:
        object.__setattr__(self, "log_value", log_value)

    def __setattr__(self, name: str, *_) -> None:
        raise AttributeError(f"ExtReal is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return ExtReal, (self.log_value,)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_real(v: float) -> "ExtReal":
        if not v >= 0.0:  # NaN too
            raise ValueError(f"ExtReal is nonnegative, got {v}")
        return ExtReal(math.log(v) if v else -math.inf)

    @staticmethod
    def exp_of(log_v: float) -> "ExtReal":
        """The value e**log_v."""
        return ExtReal(float(log_v))

    # -- queries -------------------------------------------------------

    def to_real(self) -> float:
        """Convert back to a double; overflows to float inf, underflows to 0."""
        return math.exp(self.log_value)

    def log10_parts(self) -> tuple[float, int]:
        """Return (mantissa, exponent10) with mantissa in [1, 10), or (0.0, 0) for zero.

        Neighbouring doubles of log_value lie math.ulp(log_value) apart, so
        the magnitude is pinned only to that relative step.  A mantissa of
        3 significant digits needs a step of at most 10^-3; past that it
        means nothing, and ValueError is raised instead.
        """
        if self.log_value == -math.inf:
            return 0.0, 0
        if not math.ulp(self.log_value) <= 10.0 ** -_MANTISSA_DIGITS:
            raise ValueError(f"e^({self.log_value:.6g}) is too extreme to print: its mantissa "
                             f"would carry fewer than {_MANTISSA_DIGITS} significant digits")
        d = self.log_value / _LN10
        e = math.floor(d)
        m = 10.0 ** (d - e)
        if m >= 10.0:  # guard the floor/pow boundary
            m /= 10.0
            e += 1
        return m, int(e)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "ExtReal") -> "ExtReal":
        return ExtReal(log_add(self.log_value, other.log_value))

    def __mul__(self, other: "ExtReal") -> "ExtReal":
        a, b = self.log_value, other.log_value
        return EXT_ZERO if -math.inf in (a, b) else ExtReal(a + b)  # zero times overflow is zero, not NaN

    def __eq__(self, other: object) -> bool:
        return self.log_value == other.log_value if isinstance(other, ExtReal) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.log_value)

    def __repr__(self) -> str:
        try:
            m, e = self.log10_parts()
        except ValueError:
            return f"ExtReal(exp({self.log_value!r}))"
        return f"ExtReal({m:.6f}e{e:+d})"


EXT_ZERO = ExtReal(-math.inf)
