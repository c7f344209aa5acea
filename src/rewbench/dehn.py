"""Derivation areas: distances in the relation-application graph.

Vertices are words (plus one absorbing zero vertex), and one edge is
one application of a defining relation in either direction, anywhere
in the word.  The area of an equal pair (u, v) is the graph distance
between them: the least number of relation applications turning u
into v.  Zero relations give words an edge to the zero vertex, which
is never expanded (everything containing a zero pattern would be its
neighbor); paths through zero are still found because both search
directions may reach it.

Two searches do all the work: ``_bidi_search``, a bidirectional
breadth-first search between two vertices, and ``_layers``, the
distance layers around one vertex.  ``dehn_area`` answers one pair
with the first.  ``dehn_profile`` aggregates max area over all equal
pairs with bounded total length; all pairs of one equivalence class are
resolved together.  A class with partners longer than half the budget
gets one lazily grown class graph: its partners come from running the
complete rules backwards from the normal form, each short source sweeps
``_layers`` over the graph only until it has reached all of them, and a
word's neighbours are generated once, when some search first expands
it.  Other classes are resolved pair by pair.  Budgeted searches that
give up are counted per row, never dropped.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable, Hashable, Iterable, Iterator, Optional

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
from .parallel import parallel_map

AREA = "area"
NOT_EQUAL = "not-equal"
RESOURCE_LIMIT = "resource-limit"

DEFAULT_SLACK = 4
AREA_MAX_NODES = 1_000_000  # dehn_area's default budget


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
    """One-step rewrites of ``word`` in generation order.

    A rewrite reached twice (by two moves or positions, or ZERO by two
    zero relations) is listed twice; every caller keeps the first
    through its own visited map.  An empty pattern matches before every
    letter and at the end, so an x = 1 relation inserts x at every
    position on the way back up.  This is the profile's hot loop: moves
    whose result would exceed max_len are skipped before scanning.
    """
    out: list[Element] = []
    wlen = len(word)
    find = word.find
    for pat, rep in moves:
        if rep is ZERO:
            if pat in word:
                out.append(ZERO)
            continue
        plen = len(pat)
        if wlen - plen + len(rep) > max_len:
            continue
        pos = find(pat)
        while pos != -1:
            out.append(word[:pos] + rep + word[pos + plen:])
            pos = find(pat, pos + 1)
    return out


class _SearchLimit(Exception):
    pass


def _layers(source: Hashable, neighbors: Callable[[Hashable], list],
            ) -> Iterator[list]:
    """The vertices at distance 0, 1, 2, ... from ``source``, one list
    per distance in discovery order; ZERO is never entered.  Lazy: a
    layer is expanded only when the next one is asked for."""
    seen = {source}
    layer = [source]
    while layer:
        yield layer
        nxt = []
        for node in layer:
            for nb in neighbors(node):
                if nb is not ZERO and nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        layer = nxt


def _bidi_search(u: Hashable, v: Hashable,
                 neighbors: Callable[[Hashable], list], budget: int,
                 ) -> Optional[tuple[int, Hashable, dict, dict]]:
    """Distance between u and v, the vertex where the searches met, and
    each side's parent map; None when the searches never meet.

    Expands the smaller frontier a level at a time; df and db are the
    frontiers' depths.  Edges between words go both ways and both
    sides' earlier levels are fully expanded, so every path of length
    <= df + db that avoids ZERO already has a recorded meet, while no
    meet totals more than df + db + 1: no path avoiding ZERO that is
    still to be found beats the best meet T.  ZERO is never expanded,
    so a path through it shows only once both sides reach it, and a
    side that has not reached it is at least one level short of it,
    also while its next level is expanded.  So T is the distance once
    T <= zf + zb, zf and zb being ZERO's distance from each side, or
    that side's depth plus one while unreached, and the search returns
    then, before expanding another node, mid-level included.  A later
    meet could only tie, and ties keep the first, so the distance, the
    meet vertex and the parent entries on its path are those that
    finishing the level would give.  A side that runs out without
    reaching ZERO ends the search.  Raises _SearchLimit once more than
    ``budget`` vertices are reached.
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
    while (frontier_f or ZERO in dist_f) and (frontier_b or ZERO in dist_b) \
            and (frontier_f or frontier_b):
        via_zero = dist_f.get(ZERO, df + 1) + dist_b.get(ZERO, db + 1)
        forward = not frontier_b or 0 < len(frontier_f) <= len(frontier_b)
        frontier = frontier_f if forward else frontier_b
        dist_self = dist_f if forward else dist_b
        dist_other = dist_b if forward else dist_f
        par_self = par_f if forward else par_b
        d_new = (df if forward else db) + 1
        nxt: list = []
        for node in frontier:
            if best is not None and best[0] <= via_zero:
                return best[0], best[1], par_f, par_b
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


@cache
def _complete_orientation(p: Presentation,
                          precedence: str) -> Optional[RewritingSystem]:
    """``orient(p, precedence)`` if all its critical pairs join, else
    None; memoized without bound, like ``catalog.build_mn``.  An
    UnorientableRelationError is not cached: every call raises it."""
    system = orient(p, precedence)
    return system if check_local_confluence(system).locally_confluent else None


def dehn_area(p: Presentation, u: str, v: str, *,
              max_len: Optional[int] = None,
              max_nodes: int = AREA_MAX_NODES,
              precedence: str = "") -> AreaResult:
    """Least number of relation applications turning u into v.

    Intermediate words may grow up to ``max_len`` (default: the longer
    input plus four).  When the oriented system is complete, unequal
    inputs are recognized up front; otherwise an exhausted search is a
    resource limit, not an inequality proof.  ``max_nodes`` bounds the
    words the search reaches; a search that has settled its answer
    stops at once, so it may answer within a budget that finishing its
    last level would exceed.
    """
    p.alphabet.check_word(u)
    p.alphabet.check_word(v)
    if max_len is None:
        max_len = max(len(u), len(v)) + DEFAULT_SLACK
    if max(len(u), len(v)) > max_len:
        raise ValueError("max_len is smaller than an input word")
    try:
        system = _complete_orientation(p, precedence)
    except UnorientableRelationError:
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
        return AreaResult(RESOURCE_LIMIT,
                          reason="max_len exhausted without meeting")
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
    """Budgets of one ``dehn_profile`` call; each is checked per class
    or per pair, and a budget that fires is reported, not dropped.

    ``max_class_vertices`` counts the words one class graph holds: the
    normal form's partners plus every word its searches reach.  One
    word more marks the class incomplete, and it records no pairs.
    ``max_pair_nodes`` counts the vertices one bidirectional pair
    search reaches; one more counts that pair as limited.  A search
    stops as soon as its answer is settled, mid-level included, so only
    the vertices reached up to then count.
    ``max_zero_ball`` counts the words without a zero pattern that one
    zero word's search for the zero vertex, or one direct-route ball
    around a zero word, may hold; beyond it the pair counts as limited.
    """

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
    import statistics  # here, not at the top: it loads fractions and decimal

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
    budget.  ``incomplete`` flags a class whose graph outgrew
    ``max_class_vertices``, leaving its pair set unknown.
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


def _pair_areas(ordered: list[str], vertex: Callable[[str], Hashable],
                neighbors: Callable[[Hashable], list], budget: int,
                ) -> Iterator[tuple[str, str, Optional[int]]]:
    """Each pair of ``ordered`` with its distance from one bidirectional
    search, or None when that search hit ``budget``; ``vertex`` maps a
    word to its graph vertex."""
    for i, u in enumerate(ordered):
        for v in ordered[i + 1:]:
            try:
                found = _bidi_search(vertex(u), vertex(v), neighbors, budget)
            except _SearchLimit:
                found = None
            yield u, v, None if found is None else found[0]


def _record_pairs(out: _ClassOutcome, n_max: int,
                  areas: Iterable[tuple[str, str, Optional[int]]]) -> None:
    """Records pairs whose words all have length n_max / 2."""
    for u, v, d in areas:
        if d is None:
            out.record_limited(n_max)
        else:
            out.record(n_max, d, u, v)


class _ClassFull(Exception):
    pass


class _ClassGraph:
    """The relation graph of one nonzero class, grown on demand.

    Words get integer ids on first sight, and the graph holds at most
    ``limit + 1`` of them: interning another raises _ClassFull.  A
    word's adjacency row is built the first time a search expands it
    and then kept, so no word is expanded twice.
    """

    def __init__(self, moves: list[tuple[str, Element]], max_len: int,
                 limit: int):
        self.moves = moves
        self.max_len = max_len
        self.limit = limit
        self.words: list[str] = []
        self.index: dict[str, int] = {}
        self.rows: list[Optional[list[int]]] = []

    def vertex(self, word: str) -> int:
        j = self.index.get(word)
        if j is None:
            j = len(self.words)
            if j > self.limit:
                raise _ClassFull
            self.index[word] = j
            self.words.append(word)
            self.rows.append(None)
        return j

    def neighbors(self, i: int) -> list[int]:
        row = self.rows[i]
        if row is None:
            index = self.index
            row = []
            for nb in _word_neighbors(self.words[i], self.moves,
                                      self.max_len):
                j = index.get(nb)
                row.append(self.vertex(nb) if j is None else j)
            self.rows[i] = row
        return row


def _resolve_nonzero_class(nf: str, members: list[str], n_max: int,
                           max_len: int, system: RewritingSystem,
                           moves: list[tuple[str, Element]],
                           limits: ProfileLimits) -> _ClassOutcome:
    """Areas of all qualifying pairs inside one nonzero class.

    ``members`` are the class members of length <= n_max // 2; the
    class normal form is the shortest member.  Classes whose pairs stay
    among these members run one bidirectional word search per pair.
    Otherwise some member, a deep source, is short enough to pair with
    longer partners, and the class gets one ``_ClassGraph``:

    - Every class word of length <= n_max - |nf| is a partner of some
      source.  Each one rewrites to nf without ever growing, so running
      the rules backwards from nf within that length finds them all and
      nothing else.
    - Each deep source sweeps distance layers over the graph and stops
      after the layer holding its last partner; the distances are exact
      breadth-first ones.
    - Pairs of the other members, all of length n_max / 2, run the
      bidirectional search over the same graph.

    Pairs are recorded only once all searches finished: a class whose
    graph outgrows ``max_class_vertices`` is marked incomplete and
    contributes no pairs.
    """
    out = _ClassOutcome(label=nf if nf else "1")
    half = n_max // 2
    deep_threshold = n_max - half - 1
    if len(nf) > deep_threshold:
        _record_pairs(out, n_max, _pair_areas(
            sorted(members, key=codepoint_key), lambda w: w,
            partial(_word_neighbors, moves=moves, max_len=max_len),
            limits.max_pair_nodes))
        return out
    graph = _ClassGraph(moves, max_len, limits.max_class_vertices)
    words = graph.words
    back = [(r.rhs, r.lhs) for r in system.rules if r.rhs is not ZERO]
    try:
        for layer in _layers(nf, partial(_word_neighbors, moves=back,
                                          max_len=n_max - len(nf))):
            for w in layer:
                graph.vertex(w)
        partner_keys = [codepoint_key(w) for w in words]
        # per deep source, (partner id, distance) pairs in one flat array
        sweeps: list[tuple[str, array]] = []
        for u in sorted((w for w in members if len(w) <= deep_threshold),
                        key=codepoint_key):
            # codepoint_key puts shorter words first, so a pair of deep
            # words is measured once, from the smaller one
            ku = codepoint_key(u)
            cap = n_max - len(u)
            wanted = {j for j, k in enumerate(partner_keys)
                      if ku < k and k[0] <= cap}
            hits = array("i")
            for d, layer in enumerate(_layers(graph.vertex(u),
                                              graph.neighbors)):
                for j in layer:
                    if j in wanted:
                        wanted.remove(j)
                        hits.extend((j, d))
                if not wanted:
                    break
            if wanted:
                raise AssertionError(f"class graph split at {u!r}")
            sweeps.append((u, hits))
        balanced = list(_pair_areas(
            sorted((w for w in members if len(w) > deep_threshold),
                   key=codepoint_key),
            graph.vertex, graph.neighbors, limits.max_pair_nodes))
    except _ClassFull:
        out.incomplete = True
        return out
    for u, hits in sweeps:
        for j, d in zip(hits[::2], hits[1::2]):
            v = words[j]
            out.record(len(u) + len(v), d, u, v)
    _record_pairs(out, n_max, balanced)
    return out


def _distance_to_zero(w: str, zero_patterns: list[str],
                      neighbors: Callable[[str], list],
                      budget: int) -> Optional[int]:
    """Exact distance from a zero word to the zero vertex, or None once
    more than ``budget`` words without a zero pattern are reached (w
    itself counts among them but never trips the budget)."""
    if any(pat in w for pat in zero_patterns):
        return 1
    nodes = 1
    layers = _layers(w, neighbors)
    next(layers)
    for depth, layer in enumerate(layers, 2):
        for x in layer:
            if any(pat in x for pat in zero_patterns):
                return depth
            nodes += 1
            if nodes > budget:
                return None
    return None


def _resolve_zero_class(system: RewritingSystem, short_zeros: list[str],
                        n_max: int, max_len: int,
                        moves: list[tuple[str, Element]],
                        limits: ProfileLimits) -> _ClassOutcome:
    """Areas of all qualifying pairs of zero words.

    ``short_zeros`` is nonempty, so the system has a zero rule.  A
    pair's distance is the smaller of its direct distance and the
    through-zero route d(u, 0) + d(0, v).  Direct distances are only
    searched when they could beat the through-zero sum: a ball of that
    depth around the shorter word answers membership, and a per-step
    length change bound rules many pairs out up front.
    """
    out = _ClassOutcome(label="0")
    zero_patterns = sorted({r.lhs for r in system.rules if r.rhs is ZERO})
    min_zero_len = min(len(w) for w in short_zeros)
    partner_cap = n_max - min_zero_len
    members = [w for w in _all_words(system.alphabet.precedence, partner_cap)
               if is_zero(normalize(system, w))]
    neighbors = partial(_word_neighbors, moves=moves, max_len=max_len)
    d0 = {w: _distance_to_zero(w, zero_patterns, neighbors,
                               limits.max_zero_ball) for w in members}
    word_deltas = [abs(len(pat) - len(rep))
                   for pat, rep in moves if rep is not ZERO]
    max_delta = max(word_deltas, default=0)
    half = n_max // 2
    shorts = [w for w in members if len(w) <= half]
    for u in sorted(shorts, key=codepoint_key):
        ku = codepoint_key(u)
        du = d0[u]
        # distances from u found so far, zero excluded; None for good
        # once the words found before some layer exceed the budget
        layers = _layers(u, neighbors)
        ball: Optional[dict[str, int]] = dict.fromkeys(next(layers), 0)
        radius = 0
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
                while ball is not None and radius < through - 1:
                    if len(ball) > limits.max_zero_ball:
                        ball = None
                    else:
                        radius += 1
                        ball.update(dict.fromkeys(next(layers, ()), radius))
                if ball is None:
                    out.record_limited(m)
                    continue
                d = min(ball.get(v, through), through)
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
    return _resolve_nonzero_class(nf, members, n_max, max_len, system, moves,
                                  limits)


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
    if slack < 0:
        raise ValueError("slack must be >= 0")
    system = _complete_orientation(p, precedence)
    if system is None:
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
    # the zero class is usually the largest task; started first, it runs
    # beside the others with jobs > 1 instead of alone after them
    tasks: list[tuple[Optional[str], list[str]]] = (
        [(None, zero_shorts)] if zero_shorts else [])
    tasks += [
        (nf, members) for nf, members in
        sorted(classes.items(), key=lambda kv: codepoint_key(kv[0]))
        if len(members) > 1 or len(nf) <= n_max - half - 1
    ]
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
