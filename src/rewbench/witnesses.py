"""Unit witnesses: contexts (x, y) with x w y = 1.

For the M(n) family every nonzero normal form has such a context, and
``unit_witness_mn`` builds one constructively by peeling the word from
the outside in.  For arbitrary systems ``unit_witness_search`` runs a
breadth-first search over normal forms of padded words, which finds a
shortest context whenever one exists within the given bounds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .catalog import build_mn
from .core import RewritingSystem, is_zero, normalize

# unit_witness_search's default bounds, shared with the CLI
SEARCH_MAX_LEN = 12
SEARCH_MAX_NODES = 200_000


@dataclass(frozen=True)
class WitnessPair:
    x: str
    y: str


def unit_witness_mn(n: int, w: str) -> WitnessPair:
    """Context with x w y = 1 in M(n), built by structural recursion.

    ``w`` must be a nonzero normal form.  One letter of w is removed
    per step: a leading b or c, or a block a^k b with k < n, cancels
    against a d appended to x; a trailing d a^k block cancels against
    c^k b appended to y (d b = 1 after k uses of a c = 1); a final pure
    power a^k cancels against y = c^k.  The result has |x| + |y| <= |w|
    letters of padding per removed letter, hence total length O(|w|).
    """
    system = build_mn(n).system
    if normalize(system, w) != w:
        raise ValueError(f"{w!r} is zero or not a normal form in M{n}")
    x_parts: list[str] = []
    y_parts: list[str] = []
    rest = w
    while rest:
        i = rest.rfind("d")
        if i != -1:
            tail = rest[i + 1:]
            if tail.strip("a"):
                raise AssertionError(f"letters after the last d in {rest!r}")
            y_parts.append("c" * len(tail) + "b")
            rest = rest[:i]
        elif rest[0] in "bc":
            x_parts.append("d")
            rest = rest[1:]
        elif rest.strip("a") == "":
            y_parts.append("c" * len(rest))
            rest = ""
        else:
            k = len(rest) - len(rest.lstrip("a"))
            if not 1 <= k <= n - 1 or rest[k] != "b":
                raise AssertionError(f"unexpected normal form shape {rest!r}")
            x_parts.append("d")
            rest = rest[k + 1:]
    x = "".join(reversed(x_parts))
    y = "".join(y_parts)
    if normalize(system, x + w + y) != "":
        raise AssertionError(f"witness ({x!r}, {y!r}) failed for {w!r}")
    return WitnessPair(x, y)


def unit_witness_search(system: RewritingSystem, w: str,
                        max_len: int = SEARCH_MAX_LEN,
                        max_nodes: int = SEARCH_MAX_NODES) -> Optional[WitnessPair]:
    """Shortest context with x w y = 1, or None within the bounds.

    States are normal forms of x w y; the search prepends or appends
    one letter per move, letters in declaration order with prepends
    first, so ties break deterministically.  States longer than
    ``max_len`` or equal to ZERO are pruned.  For a complete system the
    state space is exact; otherwise a returned pair is still verified
    but exhaustion proves nothing.
    """
    start = normalize(system, w)
    if is_zero(start):
        raise ValueError(f"{w!r} is zero; no context can reach 1")
    if start == "":
        return WitnessPair("", "")
    letters = system.alphabet.letters
    seen = {start}
    queue: deque[tuple[str, str, str]] = deque([(start, "", "")])
    nodes = 0
    while queue:
        state, x, y = queue.popleft()
        nodes += 1
        if nodes > max_nodes:
            return None
        moves = [(g + state, g + x, y) for g in letters]
        moves += [(state + g, x, y + g) for g in letters]
        for padded, nx, ny in moves:
            nxt = normalize(system, padded)
            if nxt == "":
                return WitnessPair(nx, ny)
            if is_zero(nxt) or len(nxt) > max_len or nxt in seen:
                continue
            seen.add(nxt)
            queue.append((nxt, nx, ny))
    return None
