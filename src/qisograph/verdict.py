"""Verdict values shared by the symbolic and numeric provers.

A nonzero normal form never proves nonzero-ness (the rewriting system is
not complete); only a numeric witness under a registered representation
does.  ProvedZero, on the other hand, is sound by construction.  A
witness's residual is the exact norm of the witnessing value; it is
printed through float with three significant digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

PROVED_ZERO = "ProvedZero"
UNKNOWN = "Unknown"
WITNESSED_NONZERO = "WitnessedNonzero"


@dataclass(frozen=True)
class Verdict:
    kind: str
    provider: str | None = None
    residual: Fraction | None = None
    detail: str | None = None

    @property
    def proved_zero(self) -> bool:
        return self.kind == PROVED_ZERO

    @property
    def witnessed(self) -> bool:
        return self.kind == WITNESSED_NONZERO

    def __str__(self):
        extra = []
        if self.provider:
            extra.append(f"provider={self.provider}")
        if self.residual is not None:
            extra.append(f"residual={float(self.residual):.3g}")
        if self.detail:
            extra.append(self.detail)
        return self.kind + (f" ({', '.join(extra)})" if extra else "")
