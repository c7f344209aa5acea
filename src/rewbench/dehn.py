"""Derivation areas: distances in the relation-application graph.

Vertices are words (plus one absorbing zero vertex), and one edge is
one application of a defining relation in either direction, anywhere
in the word.  The area of an equal pair (u, v) is the graph distance
between them: the least number of relation applications turning u
into v.  Zero relations give words an edge to the zero vertex, which
is never expanded (everything containing a zero pattern would be its
neighbor); paths through zero are still found because both search
directions may reach it.

``dehn_area`` answers one pair with a bidirectional breadth-first
search.  ``dehn_profile`` aggregates max area over all equal pairs
with bounded total length; all pairs of one equivalence class are
resolved together, against a shared class graph when the class has
partners longer than half the budget and pair by pair otherwise.
Budgeted searches that give up are counted per row, never dropped.
"""

from __future__ import annotations

import math
import statistics
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Hashable, Optional

from .completion import check_local_confluence
from .core import (
    ZERO,
    Element,
    Presentation,
    RewritingSystem,
    UnorientableRelationError,
    codepoint_key,
    is_zero,
    normalize,
    orient,
)
from .matcher import FactorMatcher
from .parallel import parallel_map

AREA = "area"
NOT_EQUAL = "not-equal"
RESOURCE_LIMIT = "resource-limit"

DEFAULT_SLACK = 4


@dataclass(frozen=True)
class AreaResult:
    """Outcome of one area query.

    ``status`` is "area" with ``steps`` and the word chain, "not-equal"
    when a complete orientation separates the two words, or
    "resource-limit" with ``reason`` naming what gave out.
    """

    status: str
    steps: int = 0
    derivation: tuple[Element, ...] = ()
    reason: str = ""


def _relation_moves(p: Presentation) -> list[tuple[str, Element]]:
    """Pattern/replacement pairs, one per relation direction.

    A zero relation contributes only the word-to-zero direction; the
    zero vertex is terminal by construction.
    """
    moves: list[tuple[str, Element]] = []
    for x, y in p.relations:
        if x == y:
            continue
        if is_zero(x) or is_zero(y):
            word = y if is_zero(x) else x
            moves.append((word, ZERO))
        else:
            moves.append((x, y))
            moves.append((y, x))
    return moves


def _word_neighbors(word: str, moves: list[tuple[str, Element]],
                    max_len: int) -> list[Element]:
    """One-step rewrites of ``word``, deduplicated, generation order.

    An empty pattern matches before every letter and at the end, so an
    x = 1 relation inserts x at every position on the way back up.
    This is the profile's hot loop: moves whose result length exceeds
    max_len are skipped before scanning for occurrences.
    """
    out: list[Element] = []
    seen: set[Element] = set()
    wlen = len(word)
    find = word.find
    for pat, rep in moves:
        if rep is ZERO:
            if ZERO not in seen and pat in word:
                seen.add(ZERO)
                out.append(ZERO)
            continue
        plen = len(pat)
        if wlen - plen + len(rep) > max_len:
            continue
        pos = find(pat)
        while pos != -1:
            nxt = word[:pos] + rep + word[pos + plen:]
            if nxt not in seen:
                seen.add(nxt)
                out.append(nxt)
            pos = find(pat, pos + 1)
    return out


class _SearchLimit(Exception):
    pass


def _bidi_search(u: Hashable, v: Hashable,
                 neighbors: Callable[[Hashable], list], budget: int,
                 ) -> Optional[tuple[int, Hashable, dict, dict]]:
    """Distance between u and v, the vertex where the searches met, and
    each side's parent map; None when the searches never meet.

    Expands the smaller frontier a full level at a time; a recorded
    meet total T is final once T <= df + db, since by then some vertex
    of a true geodesic has been reached from both sides.  The ZERO
    vertex is recorded but never expanded.  Raises _SearchLimit once
    more than ``budget`` vertices have been reached.
    """
    if u == v:
        return 0, u, {}, {}
    dist_f: dict = {u: 0}
    dist_b: dict = {v: 0}
    par_f: dict = {}
    par_b: dict = {}
    frontier_f: list = [] if u is ZERO else [u]
    frontier_b: list = [] if v is ZERO else [v]
    df = db = 0
    best: Optional[tuple[int, Hashable]] = None
    nodes = 2
    while frontier_f and frontier_b:
        if best is not None and best[0] <= df + db:
            break
        forward = len(frontier_f) <= len(frontier_b)
        frontier = frontier_f if forward else frontier_b
        dist_self = dist_f if forward else dist_b
        dist_other = dist_b if forward else dist_f
        par_self = par_f if forward else par_b
        d_new = (df if forward else db) + 1
        nxt: list = []
        for node in frontier:
            for nb in neighbors(node):
                if nb in dist_self:
                    continue
                dist_self[nb] = d_new
                par_self[nb] = node
                nodes += 1
                if nodes > budget:
                    raise _SearchLimit
                if nb in dist_other:
                    total = d_new + dist_other[nb]
                    if best is None or total < best[0]:
                        best = (total, nb)
                if nb is not ZERO:
                    nxt.append(nb)
        if forward:
            frontier_f, df = nxt, d_new
        else:
            frontier_b, db = nxt, d_new
    if best is None:
        return None
    return best[0], best[1], par_f, par_b


def dehn_area(p: Presentation, u: str, v: str, *,
              max_len: Optional[int] = None,
              max_nodes: int = 1_000_000,
              precedence: str = "") -> AreaResult:
    """Least number of relation applications turning u into v.

    Intermediate words may grow up to ``max_len`` (default: the longer
    input plus four).  When the oriented system is complete, unequal
    inputs are recognized up front; otherwise an exhausted search is a
    resource limit, not an inequality proof.
    """
    p.alphabet.check_word(u)
    p.alphabet.check_word(v)
    if max_len is None:
        max_len = max(len(u), len(v)) + DEFAULT_SLACK
    if max(len(u), len(v)) > max_len:
        raise ValueError("max_len is smaller than an input word")
    try:
        system: Optional[RewritingSystem] = orient(p, precedence)
    except UnorientableRelationError:
        system = None
    if system is not None \
            and not check_local_confluence(system).locally_confluent:
        system = None
    if system is not None and normalize(system, u) != normalize(system, v):
        return AreaResult(NOT_EQUAL)
    neighbors = partial(_word_neighbors, moves=_relation_moves(p),
                        max_len=max_len)
    try:
        found = _bidi_search(u, v, neighbors, max_nodes)
    except _SearchLimit:
        return AreaResult(RESOURCE_LIMIT, reason="max_nodes")
    if found is None:
        reason = "max_len exhausted without meeting" if system is None \
            else "equal, but no derivation within max_len"
        return AreaResult(RESOURCE_LIMIT, reason=reason)
    steps, meet, par_f, par_b = found
    left: list[Element] = [meet]
    while left[-1] != u:
        left.append(par_f[left[-1]])
    left.reverse()
    right: list[Element] = [meet]
    while right[-1] != v:
        right.append(par_b[right[-1]])
    return AreaResult(AREA, steps=steps, derivation=tuple(left + right[1:]))


@dataclass(frozen=True)
class ProfileLimits:
    max_class_vertices: int = 2_000_000
    max_pair_nodes: int = 400_000
    max_zero_ball: int = 200_000


@dataclass(frozen=True)
class ProfileRow:
    n: int
    d: int
    witness_u: str = ""
    witness_v: str = ""
    limited_pairs: int = 0


@dataclass(frozen=True)
class ProfileResult:
    rows: tuple[ProfileRow, ...]
    n_max: int
    max_len: int
    resolved_pairs: int
    limited_pairs: int
    incomplete_classes: tuple[str, ...] = ()


def fit_power_law(ns: list[int], ds: list[int]) -> tuple[float, float]:
    """Least-squares exponent and coefficient for d ~ c * n**alpha.

    Fits log d against log n over the points with n >= 1 and d >= 1;
    returns (alpha, c).
    """
    xs = [math.log(n) for n, d in zip(ns, ds) if n >= 1 and d >= 1]
    ys = [math.log(d) for n, d in zip(ns, ds) if n >= 1 and d >= 1]
    if len(xs) < 2 or len(set(xs)) < 2:
        raise ValueError("need at least two distinct usable points")
    slope, intercept = statistics.linear_regression(xs, ys)
    return slope, math.exp(intercept)


def _all_words(alphabet_letters: str, max_len: int) -> list[str]:
    words = [""]
    level = [""]
    for _ in range(max_len):
        level = [w + g for w in level for g in alphabet_letters]
        words.extend(level)
    return words


def _keep_best(best_by_m: dict[int, tuple[int, str, str]], m: int, d: int,
               u: str, v: str) -> None:
    """Keeps the pair with the larger area per m; equal areas go to the
    smaller (codepoint_key(u), codepoint_key(v))."""
    cur = best_by_m.get(m)
    if cur is None or d > cur[0] or (d == cur[0] and (
            codepoint_key(u), codepoint_key(v)) < (
            codepoint_key(cur[1]), codepoint_key(cur[2]))):
        best_by_m[m] = (d, u, v)


@dataclass
class _ClassOutcome:
    """Aggregated pair results of one equivalence class.

    ``best_by_m`` keeps, per total seed length m, the largest area and
    its witness pair; ``limited_by_m`` counts pairs whose search hit a
    budget.  ``incomplete`` flags a class whose member discovery blew
    the vertex budget, leaving its pair set unknown.
    """

    label: str
    best_by_m: dict[int, tuple[int, str, str]] = field(default_factory=dict)
    resolved: int = 0
    limited_by_m: dict[int, int] = field(default_factory=dict)
    incomplete: bool = False

    def record(self, m: int, d: int, u: str, v: str) -> None:
        self.resolved += 1
        _keep_best(self.best_by_m, m, d, u, v)

    def record_limited(self, m: int) -> None:
        self.limited_by_m[m] = self.limited_by_m.get(m, 0) + 1


def _discover_class(root: str, moves: list[tuple[str, Element]],
                    max_len: int, budget: int,
                    ) -> Optional[tuple[list[str], dict[str, int], list[list[int]]]]:
    """Breadth-first closure of one equivalence class inside max_len.

    Oriented rules never grow a word, so every class member of length
    <= max_len is connected to the shortest one inside the ball; the
    closure is the full member list.  Returns None on budget blowout.
    """
    words = [root]
    index = {root: 0}
    adj: list[list[int]] = [[]]
    queue = deque([0])
    while queue:
        i = queue.popleft()
        row = adj[i]
        for nb in _word_neighbors(words[i], moves, max_len):
            if nb is ZERO:
                continue
            j = index.get(nb)
            if j is None:
                j = len(words)
                if j > budget:
                    return None
                index[nb] = j
                words.append(nb)
                adj.append([])
                queue.append(j)
            row.append(j)
    return words, index, adj


def _bfs_adjacency(adj: list[list[int]], source: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt: list[int] = []
        for i in frontier:
            d = dist[i] + 1
            for j in adj[i]:
                if dist[j] == -1:
                    dist[j] = d
                    nxt.append(j)
        frontier = nxt
    return dist


def _resolve_pairs(out: _ClassOutcome, ordered: list[str], n_max: int,
                   vertex: Callable[[str], Hashable],
                   neighbors: Callable[[Hashable], list],
                   budget: int) -> None:
    """One bidirectional search per pair of ``ordered`` with total
    length <= n_max; ``vertex`` maps a word to its graph vertex."""
    for i, u in enumerate(ordered):
        for v in ordered[i + 1:]:
            m = len(u) + len(v)
            if m > n_max:
                continue
            try:
                found = _bidi_search(vertex(u), vertex(v), neighbors, budget)
            except _SearchLimit:
                found = None
            if found is None:
                out.record_limited(m)
            else:
                out.record(m, found[0], u, v)


def _resolve_nonzero_class(nf: str, members: list[str], n_max: int,
                           max_len: int, moves: list[tuple[str, Element]],
                           limits: ProfileLimits) -> _ClassOutcome:
    """Areas of all qualifying pairs inside one nonzero class.

    ``members`` are the class members of length <= n_max // 2; the
    class normal form is the shortest member.  When some member is
    short enough to pair with a partner beyond that bound, the class
    graph is discovered once: such sources get a full single-source
    sweep and the remaining member pairs reuse the graph.  Classes
    whose pairs stay among the known short members skip discovery and
    run one bidirectional word search per pair.
    """
    out = _ClassOutcome(label=nf if nf else "1")
    half = n_max // 2
    deep_threshold = n_max - half - 1
    min_len = len(nf)
    if min_len > deep_threshold:
        _resolve_pairs(out, sorted(members, key=codepoint_key), n_max,
                       lambda w: w,
                       partial(_word_neighbors, moves=moves, max_len=max_len),
                       limits.max_pair_nodes)
        return out
    discovered = _discover_class(nf, moves, max_len,
                                 limits.max_class_vertices)
    if discovered is None:
        out.incomplete = True
        return out
    words, index, adj = discovered
    deep_sources = [w for w in members if len(w) <= deep_threshold]
    for u in sorted(deep_sources, key=codepoint_key):
        dist = _bfs_adjacency(adj, index[u])
        ku = codepoint_key(u)
        for j, v in enumerate(words):
            m = len(u) + len(v)
            if m > n_max:
                continue
            if len(v) <= deep_threshold and codepoint_key(v) <= ku:
                continue
            d = dist[j]
            if d < 0:
                raise AssertionError(f"class graph split at {u!r} / {v!r}")
            if d > 0:
                out.record(m, d, u, v)
    balanced = sorted((w for w in members if len(w) > deep_threshold),
                      key=codepoint_key)
    _resolve_pairs(out, balanced, n_max, index.__getitem__, adj.__getitem__,
                   limits.max_pair_nodes)
    return out


def _distance_to_zero(w: str, zero_matcher: FactorMatcher,
                      moves: list[tuple[str, Element]], max_len: int,
                      budget: int) -> Optional[int]:
    """Exact distance from a zero word to the zero vertex."""
    if zero_matcher.contains(w):
        return 1
    seen = {w}
    frontier = [w]
    depth = 0
    nodes = 1
    while frontier:
        depth += 1
        nxt: list[str] = []
        for node in frontier:
            for nb in _word_neighbors(node, moves, max_len):
                if nb is ZERO or nb in seen:
                    continue
                if zero_matcher.contains(nb):
                    return depth + 1
                seen.add(nb)
                nodes += 1
                if nodes > budget:
                    return None
                nxt.append(nb)
        frontier = nxt
    return None


def _resolve_zero_class(system: RewritingSystem, short_zeros: list[str],
                        n_max: int, max_len: int,
                        moves: list[tuple[str, Element]],
                        limits: ProfileLimits) -> _ClassOutcome:
    """Areas of all qualifying pairs of zero words.

    A pair's distance is the smaller of its direct distance and the
    through-zero route d(u, 0) + d(0, v).  Direct distances are only
    searched when they could beat the through-zero sum: a ball of that
    depth around the shorter word answers membership, and a per-step
    length change bound rules many pairs out up front.
    """
    out = _ClassOutcome(label="0")
    zero_patterns = sorted({r.lhs for r in system.rules if r.rhs is ZERO})
    if not zero_patterns or not short_zeros:
        return out
    zero_matcher = FactorMatcher(system.alphabet.letters, zero_patterns)
    min_zero_len = min(len(w) for w in short_zeros)
    partner_cap = n_max - min_zero_len
    members: list[str] = []
    for w in _all_words(system.alphabet.precedence, partner_cap):
        if is_zero(normalize(system, w)):
            members.append(w)
    d0: dict[str, Optional[int]] = {}
    for w in members:
        d0[w] = _distance_to_zero(w, zero_matcher, moves, max_len,
                                  limits.max_zero_ball)
    word_deltas = [abs(len(pat) - len(rep))
                   for pat, rep in moves if rep is not ZERO]
    max_delta = max(word_deltas, default=0)
    half = n_max // 2
    shorts = [w for w in members if len(w) <= half]
    balls: dict[str, Optional[list[set[str]]]] = {}

    def ball_layers(u: str, depth: int) -> Optional[list[set[str]]]:
        """Distance layers around u in the word graph, zero excluded.

        None once the ball exceeds the node budget; the failure is
        remembered so each source pays for it at most once.
        """
        layers = balls.get(u, [{u}])
        if layers is None:
            return None
        while len(layers) <= depth:
            previous: set[str] = set().union(*layers)
            if len(previous) > limits.max_zero_ball:
                balls[u] = None
                return None
            nxt: set[str] = set()
            for node in sorted(layers[-1]):
                for nb in _word_neighbors(node, moves, max_len):
                    if nb is not ZERO and nb not in previous:
                        nxt.add(nb)
            layers.append(nxt)
        balls[u] = layers
        return layers

    for u in sorted(shorts, key=codepoint_key):
        ku = codepoint_key(u)
        du = d0[u]
        for v in members:
            m = len(u) + len(v)
            if m > n_max or codepoint_key(v) <= ku:
                continue
            dv = d0[v]
            if du is None or dv is None:
                out.record_limited(m)
                continue
            through = du + dv
            d = through
            if max_delta == 0:
                lower = through if len(u) != len(v) else 0
            else:
                lower = math.ceil(abs(len(u) - len(v)) / max_delta)
            if lower < through:
                # a direct route beating the through-zero sum must stay
                # within depth through-1 of u
                layers = ball_layers(u, through - 1)
                if layers is None:
                    out.record_limited(m)
                    continue
                for depth in range(1, through):
                    if v in layers[depth]:
                        d = depth
                        break
            out.record(m, d, u, v)
    return out


def _resolve_class(shared: tuple[RewritingSystem, list[tuple[str, Element]],
                                 int, int, ProfileLimits],
                   task: tuple[Optional[str], list[str]]) -> _ClassOutcome:
    system, moves, n_max, max_len, limits = shared
    nf, members = task
    if nf is None:
        return _resolve_zero_class(system, members, n_max, max_len, moves,
                                   limits)
    return _resolve_nonzero_class(nf, members, n_max, max_len, moves, limits)


def dehn_profile(p: Presentation, n_max: int, *,
                 slack: int = DEFAULT_SLACK, precedence: str = "",
                 jobs: int = 1,
                 limits: ProfileLimits = ProfileLimits()) -> ProfileResult:
    """Max area over all equal pairs with |u| + |v| <= n, for n <= n_max.

    Every unordered pair of distinct equal words within the length
    budget is resolved exactly or counted in the row's limited pairs.
    All areas are measured in one shared ball: intermediates may grow
    up to n_max + slack letters regardless of the pair's own length,
    which keeps D monotone in n and every pair's search space
    identical across rows.  Requires a presentation whose orientation
    is complete, which certifies class membership and keeps each class
    connected inside the ball.  ``jobs`` > 1 resolves classes in worker
    processes; under ``spawn`` (macOS, Windows) a calling script needs a
    ``__main__`` guard for that; see ``rewbench.parallel``.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    system = orient(p, precedence)
    if not check_local_confluence(system).locally_confluent:
        raise ValueError("profile needs a complete oriented system")
    moves = _relation_moves(p)
    max_len = n_max + slack
    half = n_max // 2
    classes: dict[str, list[str]] = {}
    zero_shorts: list[str] = []
    for w in _all_words(system.alphabet.precedence, half):
        nf = normalize(system, w)
        if is_zero(nf):
            zero_shorts.append(w)
        else:
            classes.setdefault(nf, []).append(w)
    tasks: list[tuple[Optional[str], list[str]]] = [
        (nf, members) for nf, members in
        sorted(classes.items(), key=lambda kv: codepoint_key(kv[0]))
        if len(members) > 1 or len(nf) <= n_max - half - 1
    ]
    if zero_shorts:
        tasks.append((None, zero_shorts))
    outcomes = parallel_map(_resolve_class,
                            (system, moves, n_max, max_len, limits),
                            tasks, jobs)

    best_by_m: dict[int, tuple[int, str, str]] = {}
    limited_by_m: dict[int, int] = {}
    resolved = 0
    incomplete: list[str] = []
    for oc in outcomes:
        resolved += oc.resolved
        for m, (d, u, v) in oc.best_by_m.items():
            _keep_best(best_by_m, m, d, u, v)
        for m, count in oc.limited_by_m.items():
            limited_by_m[m] = limited_by_m.get(m, 0) + count
        if oc.incomplete:
            incomplete.append(oc.label)
    rows: list[ProfileRow] = []
    best_d = 0
    best_u = best_v = ""
    lim_count = 0
    for n in range(n_max + 1):
        found = best_by_m.get(n)
        if found is not None and found[0] > best_d:
            best_d, best_u, best_v = found
        lim_count += limited_by_m.get(n, 0)
        rows.append(ProfileRow(n, best_d, best_u, best_v, lim_count))
    return ProfileResult(
        rows=tuple(rows),
        n_max=n_max,
        max_len=max_len,
        resolved_pairs=resolved,
        limited_pairs=sum(limited_by_m.values()),
        incomplete_classes=tuple(incomplete),
    )
