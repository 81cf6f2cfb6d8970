"""Three-valued truth domain shared by every evaluator in the package."""

from __future__ import annotations

import enum


class Verdict(enum.Enum):
    """Truth value in the lattice FALSE <= INCONCLUSIVE <= TRUE."""

    FALSE = 0
    INCONCLUSIVE = 1
    TRUE = 2

    @property
    def symbol(self) -> str:
        """Compact rendering used in traces and JSON reports."""
        return _SYMBOLS[self]

    @classmethod
    def from_symbol(cls, symbol: str) -> "Verdict":
        for verdict, s in _SYMBOLS.items():
            if s == symbol:
                return verdict
        raise ValueError(f"unknown verdict symbol {symbol!r}")

    @classmethod
    def from_bool(cls, flag: bool) -> "Verdict":
        return cls.TRUE if flag else cls.FALSE

    def is_decided(self) -> bool:
        return self is not Verdict.INCONCLUSIVE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Verdict.{self.name}"


_SYMBOLS = {Verdict.FALSE: "F", Verdict.INCONCLUSIVE: "?", Verdict.TRUE: "T"}

FALSE = Verdict.FALSE
INCONCLUSIVE = Verdict.INCONCLUSIVE
TRUE = Verdict.TRUE


# The connectives test members by identity: reading ``Verdict.value`` goes
# through enum's descriptor, a cost the monitor and the reference pay per node.


def neg(a: Verdict) -> Verdict:
    """Reflection through INCONCLUSIVE."""
    return FALSE if a is TRUE else TRUE if a is FALSE else a


def conj(a: Verdict, b: Verdict) -> Verdict:
    """Lattice meet."""
    return a if a is FALSE or b is TRUE else b


def disj(a: Verdict, b: Verdict) -> Verdict:
    """Lattice join."""
    return a if a is TRUE or b is FALSE else b


def implies(a: Verdict, b: Verdict) -> Verdict:
    return disj(neg(a), b)
