"""Bounded congruence probes.

A probe saturates the congruence generated by one seed pair inside the
ball of normal forms of length <= radius (plus ZERO), using a union-find
over the ids of a ``_Ball`` and a FIFO worklist of derived pairs.  The
ball is built once per system and radius and kept on the system while
it lives; an element's row of one-letter products is made when a probe
first expands it.  Each successful union is an event that remembers
how its pair was derived from the seed, and its offset is the link time
of the root it puts under another, so a collapse (1 falling together
with 0) comes with a replayable certificate read off those links.  No
pair is queued after one whose roots are those of 1 and 0: FIFO order
never pops it.  Products that leave the ball get negative ids, made
once like the others; they are counted, not followed, so an
undetermined verdict with zero truncations is a proof that the
quotient stays nontrivial on the ball.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .core import (
    ZERO,
    Element,
    RewritingSystem,
    codepoint_key,
    is_zero,
    normalize,
    product,
)
from .enumeration import enumerate_normal_forms, growth_series
from .parallel import parallel_map

Move = tuple[str, str]  # ("L" | "R", letter)


@dataclass(frozen=True)
class TraceStep:
    """One merge on the collapse path.

    ``moves`` lists the one-letter multiplications (side, letter),
    chronological from the seed, that derive {left, right} from it.
    """

    left: Element
    right: Element
    moves: tuple[Move, ...]


@dataclass(frozen=True)
class CollapseTrace:
    """Chain of merges connecting the unit to ZERO.

    ``seed`` is the normalized seed pair; consecutive path steps share
    an element, the first contains the empty word and the last ZERO.
    """

    seed: tuple[Element, Element]
    path: tuple[TraceStep, ...]


@dataclass(frozen=True)
class ProbeResult:
    collapsed: bool
    trace: Optional[CollapseTrace]
    class_count: int
    truncated: int
    merges: int
    universe_size: int
    radius: int


@dataclass(frozen=True)
class ProbeRow:
    u: Element
    v: Element
    collapsed: bool
    trace_len: int
    truncated: int


@dataclass(frozen=True)
class ProbeSummary:
    rows: tuple[ProbeRow, ...]
    radius: int
    universe_size: int
    collapsed_count: int
    undetermined_count: int
    undetermined_without_truncation: int
    worst_trace_len: int


class _Ball:
    """Normal forms of length <= radius plus ZERO (``size`` of them),
    with integer ids given on first sight: "" is 0 and ZERO is 1.  A
    product longer than the radius gets a negative id instead, ``~j``
    for the j-th such product seen, kept in ``outside``, so two outside
    products share an id exactly when they are equal.
    ``rows[i]`` is None until ``row`` first expands ``elements[i]``;
    then it lists the ids of its products by each of ``moves``, one
    letter on the left or right, made with one ``product`` call each.
    Rows are lists, so their entries share the ints of ``ids``."""

    def __init__(self, system: RewritingSystem, radius: int):
        self.radius = radius
        self.size = growth_series(system, radius).total() + 1
        self.moves = [(side, g) for g in system.alphabet.letters
                      for side in "LR"]
        self.elements: list[Element] = ["", ZERO]
        self.ids = {"": 0, ZERO: 1}
        self.outside: dict[Element, int] = {}
        self.rows: list[Optional[list[int]]] = [None, None]

    def id(self, e: Element) -> int:
        i = self.ids.get(e)
        if i is None:
            if not is_zero(e) and len(e) > self.radius:
                return self.outside.setdefault(e, ~len(self.outside))
            i = self.ids[e] = len(self.elements)
            self.elements.append(e)
            self.rows.append(None)
        return i

    def row(self, system: RewritingSystem, i: int) -> list[int]:
        e = self.elements[i]
        row = self.rows[i] = [
            self.id(product(system, g, e) if side == "L"
                    else product(system, e, g))
            for side, g in self.moves]
        return row


def _ball(system: RewritingSystem, radius: int) -> _Ball:
    """The system's ball of that radius, built on first use."""
    balls = vars(system).setdefault("_congruence_balls", {})
    if radius not in balls:
        balls[radius] = _Ball(system, radius)
    return balls[radius]


def _has_zero(system: RewritingSystem) -> bool:
    return any(rule.rhs is ZERO for rule in system.rules)


def _check_seed(e: Element, radius: int) -> None:
    if not is_zero(e) and len(e) > radius:
        raise ValueError(f"seed normal form {e!r} is longer than radius {radius}")


def probe_congruence(system: RewritingSystem, seed: tuple[Element, Element],
                     radius: int) -> ProbeResult:
    """Saturates the congruence generated by ``seed`` inside the ball.

    Both seed components are normalized first (this does not change the
    generated congruence) and must land inside the ball; a letter
    outside the alphabet is a ValueError.  The worklist is finite, so
    the probe always terminates: every enqueued pair is a child of a
    successful union and unions are bounded by the ball size.  FIFO
    order plus the fixed letter order make the result, and in
    particular the truncation count, reproducible.

    The union-find runs on the ids of the system's ball for ``radius``,
    whose rows are made on first demand and kept for later probes.
    """
    check = system.alphabet.check_word
    u0, v0 = (e if is_zero(e) else normalize(system, check(e)) for e in seed)
    has_zero = _has_zero(system) or is_zero(u0) or is_zero(v0)
    for e in (u0, v0):
        _check_seed(e, radius)
    ball = _ball(system, radius)
    universe_size = ball.size - (0 if has_zero else 1)

    if u0 == v0:
        return ProbeResult(False, None, universe_size, 0, 0, universe_size, radius)

    rows = ball.rows
    parent: dict[int, int] = {}  # roots are left out
    size: dict[int, int] = {}
    link: dict[int, int] = {}  # id -> offset of the merge that gave it a parent
    # Queue entries and events are four flat ints each: x, y, the offset
    # in ``events`` of the merge the pair came from and a move index.
    events: list[int] = []
    queue = deque((ball.id(u0), ball.id(v0), -1, -1))
    pop = queue.popleft
    root0, root1 = 0, 1  # roots of "" and ZERO
    certain = False  # a queued pair joins root0 and root1: queue no more
    truncated = 0
    trace = None
    while queue:
        x, y, parent_idx, move = pop(), pop(), pop(), pop()
        rx = x
        while rx in parent:
            rx = parent[rx]
        ry = y
        while ry in parent:
            ry = parent[ry]
        if rx == ry:
            continue
        idx = len(events)
        events += x, y, parent_idx, move
        sx, sy = size.pop(rx, 1), size.pop(ry, 1)
        if sx < sy:
            rx, ry = ry, rx
        parent[ry] = rx
        link[ry] = idx
        size[rx] = sx + sy
        if root0 == ry:
            root0 = rx
        if root1 == ry:
            root1 = rx
        if root0 == root1:
            trace = CollapseTrace((u0, v0),
                                  _collapse_path(ball, events, parent, link))
            break
        row_x = rows[x] or ball.row(system, x)
        row_y = rows[y] or ball.row(system, y)
        for k in range(len(row_x)):
            px, py = row_x[k], row_y[k]
            if px == py:  # one element, in the ball or not: no pair
                continue
            if px < 0 or py < 0:  # a product left the ball
                truncated += 1
            elif not certain:
                # Unions only grow: a pair joined now would be skipped later.
                rx = px
                while rx in parent:
                    rx = parent[rx]
                ry = py
                while ry in parent:
                    ry = parent[ry]
                if rx != ry:
                    queue.extend((px, py, idx, k))
                    certain = rx in (root0, root1) and ry in (root0, root1)
    merges = len(events) // 4
    return ProbeResult(trace is not None, trace, universe_size - merges,
                       truncated, merges, universe_size, radius)


def _collapse_path(ball: _Ball, events: list[int], parent: dict[int, int],
                   link: dict[int, int]) -> tuple[TraceStep, ...]:
    """Unique path from "" to ZERO in the forest of merges, as trace steps.

    A merge is the four ints of ``events`` from its offset on, and
    ``link[r]`` that of the merge that put root r under ``parent[r]``.
    Two ids of one class are connected through the latest link on their
    union-find paths to where those meet, then on each side through
    earlier merges: the explanation step of proof-producing congruence
    closure (Nieuwenhuis and Oliveras, RTA 2005)."""
    def up(i: int) -> list[int]:  # i and its ancestors, log2(ball) at most
        ids = [i]
        while ids[-1] in parent:
            ids.append(parent[ids[-1]])
        return ids

    path: list[TraceStep] = []
    todo = [(0, 1)]  # id pairs to connect, or (offset, -1) for a merge
    while todo:
        a, b = todo.pop()
        if b < 0:
            x, y, parent_idx, move = events[a:a + 4]
            moves: list[Move] = []
            while move >= 0:
                moves.append(ball.moves[move])
                parent_idx, move = events[parent_idx + 2:parent_idx + 4]
            path.append(TraceStep(ball.elements[x], ball.elements[y],
                                  tuple(reversed(moves))))
        elif a != b:
            up_a, up_b = up(a), up(b)
            while up_a[-1:] == up_b[-1:]:  # down to where they meet
                up_a.pop(), up_b.pop()
            n = max(up_a + up_b, key=link.__getitem__)
            x, y = events[link[n]], events[link[n] + 1]
            if (n in up(x)) != (n in up_a):  # x goes on a's side
                x, y = y, x
            todo += (y, b), (link[n], -1), (a, x)
    return tuple(path)


def replay_trace(system: RewritingSystem, trace: CollapseTrace) -> bool:
    """Checks a collapse certificate against the system from scratch.

    Every step's pair is rederived from the seed by replaying its move
    list, and the steps must chain the empty word to ZERO.
    """
    cur: Element = ""
    for step in trace.path:
        u, v = trace.seed
        for side, g in step.moves:
            if side == "L":
                u = product(system, g, u)
                v = product(system, g, v)
            else:
                u = product(system, u, g)
                v = product(system, v, g)
        if {u, v} != {step.left, step.right}:
            return False
        if cur == step.left:
            cur = step.right
        elif cur == step.right:
            cur = step.left
        else:
            return False
    return is_zero(cur)


def _probe_row(shared: tuple[RewritingSystem, int],
               seed: tuple[Element, Element]) -> ProbeRow:
    system, radius = shared
    result = probe_congruence(system, seed, radius)
    trace_len = len(result.trace.path) if result.trace else 0
    return ProbeRow(seed[0], seed[1], result.collapsed, trace_len,
                    result.truncated)


def probe_all_pairs(system: RewritingSystem, max_seed_len: int, radius: int,
                    jobs: int = 1) -> ProbeSummary:
    """Probes every unordered pair of distinct seeds.

    Seeds are the normal forms of length <= max_seed_len, plus ZERO
    when the system can reach it.  Pairs are processed shortest total
    seed length first (ZERO counts as length 0), so a collapse shows up
    at a minimal seed.  ``jobs`` > 1 fans pairs out to worker processes,
    at most one per CPU and per pair; the row order is independent of
    the worker count.  A seed longer than ``radius`` is a ValueError,
    raised before any probe.  Under ``spawn`` (macOS, Windows) a
    calling script needs a ``__main__`` guard for that; see
    ``rewbench.parallel``.
    """
    elements: list[Element] = []
    if _has_zero(system):
        elements.append(ZERO)
    elements.extend(enumerate_normal_forms(system, max_seed_len))
    for e in sorted(elements, key=codepoint_key):
        _check_seed(e, radius)

    def pair_key(p: tuple[Element, Element]):
        ku, kv = codepoint_key(p[0]), codepoint_key(p[1])
        return (max(ku[0], 0) + max(kv[0], 0), ku, kv)

    pairs = sorted(combinations(elements, 2), key=pair_key)
    universe = _ball(system, radius).size - (0 if _has_zero(system) else 1)
    rows = tuple(parallel_map(_probe_row, (system, radius), pairs, jobs))
    collapsed = sum(1 for r in rows if r.collapsed)
    undet = [r for r in rows if not r.collapsed]
    return ProbeSummary(
        rows=rows,
        radius=radius,
        universe_size=universe,
        collapsed_count=collapsed,
        undetermined_count=len(undet),
        undetermined_without_truncation=sum(1 for r in undet if r.truncated == 0),
        worst_trace_len=max((r.trace_len for r in rows), default=0),
    )
