"""Bounded congruence probes.

A probe saturates the congruence generated by one seed pair inside the
ball of normal forms of length <= radius (plus ZERO), using a union-find
over elements and a FIFO worklist of derived pairs.  Each successful
union is an event that remembers how its pair was derived from the
seed, so a collapse (1 falling together with 0) comes with a replayable
certificate.  Products that leave the ball are counted, not followed;
an undetermined verdict with zero truncations is therefore a proof
that the quotient stays nontrivial on the ball.
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


def _find(parent: dict[Element, Element], x: Element) -> Element:
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _has_zero(system: RewritingSystem) -> bool:
    return any(rule.rhs is ZERO for rule in system.rules)


def probe_congruence(system: RewritingSystem, seed: tuple[Element, Element],
                     radius: int, universe_size: Optional[int] = None) -> ProbeResult:
    """Saturates the congruence generated by ``seed`` inside the ball.

    Both seed components are normalized first (this does not change the
    generated congruence) and must land inside the ball.  The worklist
    is finite, so the probe always terminates: every enqueued pair is
    a child of a successful union and unions are bounded by the ball
    size.  FIFO order plus the fixed letter order make the result, and
    in particular the truncation count, reproducible.
    """
    u0 = normalize(system, seed[0])
    v0 = normalize(system, seed[1])
    has_zero = _has_zero(system) or is_zero(u0) or is_zero(v0)
    for e in (u0, v0):
        if not is_zero(e) and len(e) > radius:
            raise ValueError(f"seed normal form {e!r} is longer than radius {radius}")
    if universe_size is None:
        universe_size = growth_series(system, radius).total() + (1 if has_zero else 0)

    def in_ball(e: Element) -> bool:
        return is_zero(e) or len(e) <= radius

    if u0 == v0:
        return ProbeResult(False, None, universe_size, 0, 0, universe_size, radius)

    letters = system.alphabet.letters
    parent: dict[Element, Element] = {}
    size: dict[Element, int] = {}
    forest: dict[Element, list[tuple[Element, int]]] = {}
    events: list[tuple[Element, Element, int, Optional[Move]]] = []
    queue: deque[tuple[Element, Element, int, Optional[Move]]] = deque()
    queue.append((u0, v0, -1, None))
    merges = 0
    truncated = 0

    def ensure(e: Element) -> None:
        if e not in parent:
            parent[e] = e
            size[e] = 1
            forest[e] = []

    while queue:
        x, y, parent_idx, move = queue.popleft()
        ensure(x)
        ensure(y)
        rx, ry = _find(parent, x), _find(parent, y)
        if rx == ry:
            continue
        idx = len(events)
        events.append((x, y, parent_idx, move))
        if size[rx] < size[ry]:
            rx, ry = ry, rx
        parent[ry] = rx
        size[rx] += size[ry]
        forest[x].append((y, idx))
        forest[y].append((x, idx))
        merges += 1
        if "" in parent and ZERO in parent \
                and _find(parent, "") == _find(parent, ZERO):
            trace = CollapseTrace((u0, v0), _collapse_path(forest, events))
            return ProbeResult(True, trace, universe_size - merges,
                               truncated, merges, universe_size, radius)
        for g in letters:
            derived = (
                ("L", product(system, g, x), product(system, g, y)),
                ("R", product(system, x, g), product(system, y, g)),
            )
            for side, px, py in derived:
                if px == py:
                    continue
                if not (in_ball(px) and in_ball(py)):
                    truncated += 1
                # Unions only grow: a pair joined now would be skipped later.
                elif not (px in parent and py in parent
                          and _find(parent, px) == _find(parent, py)):
                    queue.append((px, py, idx, (side, g)))
    return ProbeResult(False, None, universe_size - merges,
                       truncated, merges, universe_size, radius)


def _collapse_path(forest: dict[Element, list[tuple[Element, int]]],
                   events: list[tuple[Element, Element, int, Optional[Move]]],
                   ) -> tuple[TraceStep, ...]:
    """Unique forest path from the empty word to ZERO, as trace steps."""
    prev: dict[Element, tuple[Element, int]] = {"": ("", -1)}
    frontier: deque[Element] = deque([""])
    while frontier:
        node = frontier.popleft()
        if node is ZERO:
            break
        for other, idx in forest[node]:
            if other not in prev:
                prev[other] = (node, idx)
                frontier.append(other)
    path: list[TraceStep] = []
    node: Element = ZERO
    while node != "":
        node, idx = prev[node]
        x, y, parent_idx, move = events[idx]
        moves: list[Move] = []
        while move is not None:
            moves.append(move)
            x, y, parent_idx, move = events[parent_idx]
        path.append(TraceStep(events[idx][0], events[idx][1],
                              tuple(reversed(moves))))
    path.reverse()
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


def _probe_row(shared: tuple[RewritingSystem, int, int],
               seed: tuple[Element, Element]) -> ProbeRow:
    system, radius, universe = shared
    result = probe_congruence(system, seed, radius, universe)
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
    the worker count.  Under ``spawn`` (macOS, Windows) a calling script
    needs a ``__main__`` guard for that; see ``rewbench.parallel``.
    """
    elements: list[Element] = []
    if _has_zero(system):
        elements.append(ZERO)
    elements.extend(enumerate_normal_forms(system, max_seed_len))

    def pair_key(p: tuple[Element, Element]):
        ku, kv = codepoint_key(p[0]), codepoint_key(p[1])
        return (max(ku[0], 0) + max(kv[0], 0), ku, kv)

    pairs = sorted(combinations(elements, 2), key=pair_key)
    universe = growth_series(system, radius).total() \
        + (1 if _has_zero(system) else 0)
    rows = tuple(parallel_map(_probe_row, (system, radius, universe),
                              pairs, jobs))
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
