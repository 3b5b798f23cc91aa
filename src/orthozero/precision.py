"""Scalar precision policy: plain binary64 or mpmath-backed extended precision.

Ill-conditioned determinants (Cauchy-like minors) need more than double
precision; everything else runs in numpy. Where roots lie is decided
exactly under either policy, so theorem12, conj32, q31, biortho-equiv and
zeros_in_interval_check read at most tau_root. ssr takes its signs from
enclosures of the exact determinants under either policy, so tau_det is
read only by biortho.biorthogonal_poly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadParameterError

DEFAULT_TAU_TRIM = 1e-12
DEFAULT_TAU_ROOT = 1e-9
DEFAULT_TAU_DET = 1e-11


@dataclass(frozen=True)
class PrecisionPolicy:
    """Scalar mode plus the tolerance knobs used throughout the package.

    mode is "double" or "extended"; bits applies to extended mode only
    (>= 64). Tolerances: tau_root for root classification, tau_det for
    biorthogonal_poly's regularity test, its only reader.
    """

    mode: str = "double"
    bits: int | None = None
    tau_root: float = DEFAULT_TAU_ROOT
    tau_det: float = DEFAULT_TAU_DET

    def __post_init__(self):
        if self.mode not in ("double", "extended"):
            raise BadParameterError(f"unknown precision mode {self.mode!r}")
        if self.mode == "extended":
            if self.bits is None or self.bits < 64:
                raise BadParameterError("extended mode requires bits >= 64")
        if min(self.tau_root, self.tau_det) <= 0:
            raise BadParameterError("tolerances must be strictly positive")

    @property
    def extended(self) -> bool:
        return self.mode == "extended"


DOUBLE = PrecisionPolicy()


def extended(bits: int = 128, **tol) -> PrecisionPolicy:
    """Extended-precision policy with the given mantissa bit count."""
    return PrecisionPolicy(mode="extended", bits=bits, **tol)


def parse_precision(text: str) -> PrecisionPolicy:
    """Parse a CLI precision string: "double" or "extended:<bits>"."""
    if text == "double":
        return DOUBLE
    if text.startswith("extended"):
        _, _, bits = text.partition(":")
        return extended(int(bits) if bits else 128)
    raise BadParameterError(f"cannot parse precision {text!r}")
