"""Small shared value types: validation reports, variant flags, decisions."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

#: Default cap on brute-force candidate counts (matrices, maps, tensors).
DEFAULT_ENUMERATION_BOUND = 10_000_000

#: Default cap on materialized enumeration results.
DEFAULT_RESULT_BOUND = 200_000


class Variant(str, Enum):
    """Identity-set selector for the suspect printed identities.

    CORRECTED is the default: the identity set that holds in every extension
    algebra (and under which coboundaries are cocycles).  STRICT keeps the
    literal printed forms for auditability.
    """

    CORRECTED = "corrected"
    STRICT = "strict-paper"


@dataclass(frozen=True)
class Violation:
    """One failed identity instance: tag, basis indices (0-based), residual."""

    tag: str
    where: tuple
    residual: tuple

    def describe(self, fmt=str) -> str:
        idx = ",".join(str(i + 1) for i in self.where)
        res = ",".join(fmt(x) for x in self.residual)
        return f"{self.tag} at ({idx}) residual=({res})"


@dataclass
class ValidationReport:
    """Outcome of an identity suite; valid iff no violations."""

    violations: list = field(default_factory=list)

    @property
    def valid(self) -> bool:
        return not self.violations

    def add(self, tag, where, residual):
        self.violations.append(Violation(tag, tuple(where), tuple(residual)))

    def tags(self):
        return sorted({v.tag for v in self.violations})


class Status(str, Enum):
    """Three-valued search outcome; UNDECIDED is never conflated with NONE."""

    FOUND = "found"
    NONE = "none"
    UNDECIDED = "undecided"


@dataclass
class Decision:
    """Result of a witness search (equivalence map, inducing map, ...)."""

    status: Status
    witness: Optional[object] = None
    reason: str = ""

    @property
    def found(self) -> bool:
        return self.status is Status.FOUND
