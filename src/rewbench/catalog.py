"""Built-in monoid presentations.

Two families ship with the library: the congruence-free monoids M(n)
on letters a, b, c, d, and a fixed four-letter example whose minimal
derivation areas grow quadratically with word length.  Every entry
carries the precedence under which its oriented rules terminate and
join, so ``entry.system`` is complete as shipped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional

from .core import ZERO, Presentation, Alphabet, RewritingSystem, orient

# Listing cap; build_mn and get_entry accept any n >= 1.
LISTED_MN = 6

_MN_NAME = re.compile(r"^M(\d+)$")


@dataclass(frozen=True)
class CatalogEntry:
    """A named presentation plus the precedence that completes it."""

    name: str
    presentation: Presentation
    precedence: str
    provenance: str

    @cached_property
    def system(self) -> RewritingSystem:
        return orient(self.presentation, self.precedence)


@cache
def build_mn(n: int) -> CatalogEntry:
    """The n-th congruence-free monoid on a, b, c, d.

    Relations: a^n b = 0, ac = 1, db = 1, dc = 1, and d a^k b = 1 for
    1 <= k <= n-1 (n + 3 relations in total).  Oriented under the
    precedence a < b < c < d the rules are complete with no overlaps.
    Memoized, so each n builds its ``system`` once.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    alphabet = Alphabet("abcd", "abcd")
    relations = [
        ("a" * n + "b", ZERO),
        ("ac", ""),
        ("db", ""),
        ("dc", ""),
    ]
    relations.extend(("d" + "a" * k + "b", "") for k in range(1, n))
    provenance = (
        f"congruence-free monoid on a,b,c,d with a^{n} b = 0, ac = 1, "
        f"db = 1, dc = 1, d a^k b = 1 for 0 < k < {n}"
    )
    return CatalogEntry(
        name=f"M{n}",
        presentation=Presentation(alphabet, tuple(relations)),
        precedence="abcd",
        provenance=provenance,
    )


def build_dehn_example() -> CatalogEntry:
    """Four-letter monoid whose derivation-area profile grows like n^2.

    The commutation a b = b a forces quadratically many swaps before
    the cancelling relations can fire, which the area profile measures.
    Under the precedence b < a < c < d the oriented rules are complete.
    """
    alphabet = Alphabet("abcd", "bacd")
    relations = (
        ("ab", "ba"),
        ("cbad", ""),
        ("cbb", ""),
        ("aad", ""),
        ("cad", ZERO),
        ("cbd", ZERO),
        ("cd", ""),
    )
    provenance = (
        "commutation-driven example: ab = ba, cbad = 1, cb^2 = 1, "
        "a^2 d = 1, cad = 0, cbd = 0, cd = 1; minimal derivation areas "
        "grow quadratically"
    )
    return CatalogEntry(
        name="dehn-example",
        presentation=Presentation(alphabet, relations),
        precedence="bacd",
        provenance=provenance,
    )


def list_catalog() -> list[CatalogEntry]:
    """The entries shown by the command line: M1..M6 plus the example."""
    entries = [build_mn(n) for n in range(1, LISTED_MN + 1)]
    entries.append(build_dehn_example())
    return entries


def family_index(name: str) -> Optional[int]:
    """The n of a family name M<n> with n >= 1, else None."""
    m = _MN_NAME.match(name)
    return int(m.group(1)) if m and int(m.group(1)) >= 1 else None


def get_entry(name: str) -> CatalogEntry:
    """Looks up a catalog name; M<n> is accepted for any n >= 1."""
    n = family_index(name)
    if n is not None:
        return build_mn(n)
    if name == "dehn-example":
        return build_dehn_example()
    known = ", ".join(e.name for e in list_catalog())
    raise KeyError(f"unknown catalog entry {name!r}; known: {known}")
