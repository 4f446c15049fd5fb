"""Extended cardinals: finite values, aleph0, and a single uncountable bucket.

The total order is Finite(a) < Finite(b) iff a < b, and every finite value
sits below ALEPH0, which sits below UNCOUNTABLE.  That is all the covering
thresholds need; no distinction between uncountable cardinals is kept.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering

from .records import record

_FINITE = 0
_ALEPH0 = 1
_UNCOUNTABLE = 2


@total_ordering
@record
class Cardinal:
    level: int
    n: int = 0

    def __post_init__(self):
        if self.level not in (_FINITE, _ALEPH0, _UNCOUNTABLE):
            raise ValueError(f"bad cardinal level {self.level}")
        if self.level == _FINITE and self.n < 0:
            raise ValueError("finite cardinal must be nonnegative")
        if self.level != _FINITE and self.n != 0:
            raise ValueError("infinite cardinals carry no finite part")

    @property
    def is_finite(self) -> bool:
        return self.level == _FINITE

    @property
    def is_infinite(self) -> bool:
        return self.level != _FINITE

    @property
    def finite_value(self) -> int:
        if not self.is_finite:
            raise ValueError(f"{self} is not finite")
        return self.n

    def successor(self) -> "Cardinal":
        """Finite(n) -> Finite(n+1); infinite cardinals are fixed points."""
        if self.is_finite:
            return finite(self.n + 1)
        return self

    def _key(self):
        return (self.level, self.n)

    def __lt__(self, other: "Cardinal") -> bool:
        if not isinstance(other, Cardinal):
            return NotImplemented
        return self._key() < other._key()

    def __str__(self) -> str:
        if self.level == _FINITE:
            return str(self.n)
        return "aleph0" if self.level == _ALEPH0 else "uncountable"

    def __repr__(self) -> str:
        return f"Cardinal({self})"


@lru_cache
def finite(n: int) -> Cardinal:
    """The finite cardinal n.  Records are immutable, so the recent values
    are shared instances; a negative n still raises ValueError."""
    return Cardinal(_FINITE, n)


ZERO = finite(0)
ALEPH0 = Cardinal(_ALEPH0)
UNCOUNTABLE = Cardinal(_UNCOUNTABLE)


def parse_cardinal(text: str) -> Cardinal:
    """Parse 'aleph0', 'uncountable', or a nonnegative integer literal."""
    word = text.strip().lower()
    if word == "aleph0":
        return ALEPH0
    if word == "uncountable":
        return UNCOUNTABLE
    if word.isdigit():
        return finite(int(word))
    raise ValueError(f"not a cardinal literal: {text!r}")


def cardinal_sum(values) -> Cardinal:
    """Sum of a finite collection of cardinals (absorbing at infinities)."""
    total = 0
    level = _FINITE
    for v in values:
        level = max(level, v.level)
        if v.is_finite:
            total += v.n
    if level == _FINITE:
        return finite(total)
    return Cardinal(level)
