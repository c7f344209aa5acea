"""Normal-form enumeration and growth counting.

A word is a normal form exactly when no rule lhs occurs in it, that is
when the system's factor matcher reads it along ``safe_moves`` alone:
those moves form a finite automaton for the normal forms.  Growth
counts step a vector of word counts per automaton state once per
length; listing extends each (word, state) pair of a level by the safe
letters in precedence order, which keeps shortlex order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import RewritingSystem


@dataclass(frozen=True)
class GrowthSeries:
    """counts[k] = number of normal forms of length exactly k."""

    counts: tuple[int, ...]

    def total(self) -> int:
        return sum(self.counts)


def iter_normal_forms(system: RewritingSystem, max_len: int) -> Iterator[str]:
    """All normal forms of length <= max_len, shortlex order."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    moves = system.matcher.safe_moves(system.alphabet.precedence)
    level = [("", 0)]
    yield ""
    for _ in range(max_len):
        level = [(word + g, target) for word, state in level
                 for g, target in moves[state]]
        for word, _ in level:
            yield word


def enumerate_normal_forms(system: RewritingSystem, max_len: int) -> list[str]:
    return list(iter_normal_forms(system, max_len))


def growth_series(system: RewritingSystem, max_len: int) -> GrowthSeries:
    """Per-length counts of normal forms up to max_len."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    moves = system.matcher.safe_moves(system.alphabet.letters)
    vector = {0: 1}
    counts = [1]
    for _ in range(max_len):
        nxt: dict[int, int] = {}
        for state, count in vector.items():
            for _, target in moves[state]:
                nxt[target] = nxt.get(target, 0) + count
        vector = nxt
        counts.append(sum(vector.values()))
    return GrowthSeries(tuple(counts))
