"""Scalar precision policy: plain binary64 or mpmath-backed extended precision.

Ill-conditioned determinants (Cauchy-like minors) need more than double
precision; everything else runs in numpy. ssr builds its stage-2 minors at
the policy's working precision; no other campaign reads it. Determinant
signs come from enclosures of the exact determinants, and where roots lie
is decided exactly, so the policy carries no tolerance: the root
classification's default DEFAULT_TAU_ROOT is a constant.

mpmath is a dependency of the extended policy only: an extended policy
imports it when it is made, so a run pays for it at set-up. A double
campaign never imports it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParameterError

DEFAULT_TAU_TRIM = 1e-12
DEFAULT_TAU_ROOT = 1e-9


@dataclass(frozen=True)
class PrecisionPolicy:
    """Scalar mode: "double" or "extended"; bits applies to extended mode
    only (>= 64)."""

    mode: str = "double"
    bits: int | None = None

    def __post_init__(self):
        if self.mode not in ("double", "extended"):
            raise BadParameterError(f"unknown precision mode {self.mode!r}")
        if self.mode == "extended":
            if self.bits is None or self.bits < 64:
                raise BadParameterError(f"extended precision requires bits >= 64, got {self.bits}")
            import mpmath  # noqa: F401  (an extended run pays for it at set-up)

    @property
    def extended(self) -> bool:
        return self.mode == "extended"


DOUBLE = PrecisionPolicy()


def extended(bits: int = 128) -> PrecisionPolicy:
    """Extended-precision policy with the given mantissa bit count."""
    return PrecisionPolicy(mode="extended", bits=bits)


def parse_precision(text: str) -> PrecisionPolicy:
    """Parse a precision string: "double", "extended" (128 bits) or
    "extended:<bits>"."""
    mode, colon, bits = text.partition(":")
    if text == "double":
        return DOUBLE
    if mode == "extended" and (not colon or bits.isdecimal()):
        return extended(int(bits) if colon else 128)
    raise BadParameterError(f"cannot parse precision {text!r}: expected double, extended "
                            "or extended:<bits>")
