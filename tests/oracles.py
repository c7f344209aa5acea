"""Reference implementations the tests compare against.

Everything here recomputes results from definitions with naive
scanning and plain breadth-first search, sharing no algorithmic code
with the package: no factor automaton, no rescan windows, no
bidirectional search, no move pruning.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Optional, Union

from rewbench.core import ZERO, Element, Presentation, RewritingSystem


def relation_edges(p: Presentation) -> list[tuple[str, Element]]:
    """Both directions of every relation; zero relations one-way."""
    edges: list[tuple[str, Element]] = []
    for x, y in p.relations:
        if x == y:
            continue
        if x is ZERO or y is ZERO:
            edges.append((y if x is ZERO else x, ZERO))
        else:
            edges.append((x, y))
            edges.append((y, x))
    return edges


def one_step(word: str, edges: list[tuple[str, Element]],
             max_len: int) -> list[Element]:
    out: list[Element] = []
    for pat, rep in edges:
        start = 0
        while True:
            pos = word.find(pat, start)
            if pos == -1:
                break
            if rep is ZERO:
                out.append(ZERO)
            else:
                nxt = word[:pos] + rep + word[pos + len(pat):]
                if len(nxt) <= max_len:
                    out.append(nxt)
            start = pos + 1
    return out


def closure_component(p: Presentation, start: str,
                      max_len: int) -> set[Element]:
    """Everything reachable from a word by relation applications.

    The search stays inside words of length <= max_len; the zero
    vertex is absorbed but never expanded.
    """
    edges = relation_edges(p)
    seen: set[Element] = {start}
    queue: deque[str] = deque([start])
    while queue:
        word = queue.popleft()
        for nxt in one_step(word, edges, max_len):
            if nxt in seen:
                continue
            seen.add(nxt)
            if nxt is not ZERO:
                queue.append(nxt)
    return seen


def closure_equal(p: Presentation, u: Element, v: Element,
                  max_len: int) -> bool:
    if u == v:
        return True
    if u is ZERO:
        u, v = v, u
    return v in closure_component(p, u, max_len)


def bfs_distance(p: Presentation, u: Element, v: Element,
                 max_len: int) -> Optional[int]:
    """Unidirectional breadth-first distance in the relation graph."""
    if u == v:
        return 0
    if u is ZERO:
        u, v = v, u
    edges = relation_edges(p)
    seen: set[Element] = {u}
    frontier: list[Element] = [u]
    depth = 0
    while frontier:
        depth += 1
        nxt: list[Element] = []
        for word in frontier:
            if word is ZERO:
                continue
            for nb in one_step(word, edges, max_len):
                if nb in seen:
                    continue
                if nb == v:
                    return depth
                seen.add(nb)
                nxt.append(nb)
        frontier = nxt
    return None


def distances_from(edges: list[tuple[str, Element]], u: str,
                   max_len: int) -> dict[Element, int]:
    """Breadth-first distance from u to everything it reaches inside
    max_len; ZERO appears when reached but is never expanded."""
    dist: dict[Element, int] = {u: 0}
    queue: deque[str] = deque([u])
    while queue:
        word = queue.popleft()
        for nb in one_step(word, edges, max_len):
            if nb in dist:
                continue
            dist[nb] = dist[word] + 1
            if nb is not ZERO:
                queue.append(nb)
    return dist


def brute_pair_areas(entry, n_max: int, slack: int,
                     ) -> dict[tuple[str, str], int]:
    """Distance of every pair of distinct equal words u, v with
    |u| + |v| <= n_max, from one plain BFS per short word.

    Words of length <= n_max are grouped by ``rightmost_reduce``; a
    pair's distance is taken inside words of length <= n_max + slack,
    and two zero words may also meet through the zero vertex.  Keys
    are ordered by (length, word).
    """
    p = entry.presentation
    system = entry.system
    edges = relation_edges(p)
    max_len = n_max + slack
    words = ["".join(t) for n in range(n_max + 1)
             for t in itertools.product(p.alphabet.letters, repeat=n)]
    nf = {w: rightmost_reduce(system, w) for w in words}
    to_zero = {w: bfs_distance(p, w, ZERO, max_len)
               for w in words if nf[w] is ZERO}
    pairs: dict[tuple[str, str], int] = {}
    for u in words:
        if 2 * len(u) > n_max:
            continue
        dist = distances_from(edges, u, max_len)
        for v in words:
            if v == u or nf[v] != nf[u] or len(u) + len(v) > n_max:
                continue
            d = dist.get(v)
            if nf[u] is ZERO:
                through = to_zero[u] + to_zero[v]
                d = through if d is None else min(d, through)
            assert d is not None, (u, v)
            key = min((u, v), (v, u), key=lambda t: [(len(w), w) for w in t])
            pairs[key] = d
    return pairs


def brute_profile(entry, n_max: int, slack: int,
                  ) -> tuple[list[tuple[int, int, str, str]], int]:
    """Rows (n, d, witness_u, witness_v) and the resolved pair count of
    the area profile, ranked from ``brute_pair_areas``.

    Row n's witness is the pair with the largest distance among
    |u| + |v| <= n; ties go to the smaller |u| + |v|, then the smaller
    ((len u, u), (len v, v)).
    """
    pairs = brute_pair_areas(entry, n_max, slack)
    rows = []
    best: Optional[tuple[tuple, int, str, str]] = None
    for n in range(n_max + 1):
        for (u, v), d in pairs.items():
            if len(u) + len(v) != n:
                continue
            rank = (-d, n, (len(u), u), (len(v), v))
            if best is None or rank < best[0]:
                best = (rank, d, u, v)
        rows.append((n, 0, "", "") if best is None else (n,) + best[1:])
    return rows, len(pairs)


def naive_occurrences(patterns: list[str], word: str) -> list[tuple[int, int]]:
    """Every (position, pattern_index) occurrence by direct comparison."""
    hits = []
    for idx, pat in enumerate(patterns):
        for pos in range(len(word) - len(pat) + 1):
            if word[pos : pos + len(pat)] == pat:
                hits.append((pos, idx))
    return hits


def brute_overlaps(lhss: list[str]) -> list[tuple[int, int, str, int, str]]:
    """Every ``(i, j, kind, offset, word)`` overlap of two left-hand
    sides, by placing lhs j at each offset in lhs i.

    Per ordered pair (i, j): suffix-prefix placements first, offsets
    from the right end of lhs i leftwards, where lhs j starts inside
    lhs i and ends past it; then, for i != j only, containments, offsets
    from 0 rightwards, where lhs j lies wholly inside lhs i.  Letters
    are compared one at a time.
    """
    found = []
    for i, u in enumerate(lhss):
        for j, v in enumerate(lhss):
            for off in range(len(u) - 1, 0, -1):
                shared = len(u) - off
                if shared < len(v) and all(u[off + t] == v[t]
                                           for t in range(shared)):
                    found.append((i, j, "suffix-prefix", off, u[:off] + v))
            if i == j:
                continue
            for off in range(len(u) - len(v) + 1):
                if all(u[off + t] == v[t] for t in range(len(v))):
                    found.append((i, j, "containment", off, u))
    return found


def brute_normal_forms(precedence: str, forbidden: list[str],
                       max_len: int) -> list[str]:
    """Words of length <= max_len with no forbidden factor, in shortlex
    order by precedence, by filtering every word."""
    words = ("".join(t) for n in range(max_len + 1)
             for t in itertools.product(precedence, repeat=n))
    return [w for w in words if not any(f in w for f in forbidden)]



def brute_probe(system: RewritingSystem, seed: tuple[Element, Element],
                radius: int) -> dict:
    """A congruence probe from its definition, shaped like
    ``dataclasses.asdict`` of the package's probe result.

    The ball is ``brute_normal_forms`` of length <= radius, plus ZERO
    when a rule or a seed side is zero; products come from
    ``rightmost_reduce``.  Pairs leave a FIFO queue, starting with the
    reduced seed.  A pair already in one class is skipped; otherwise
    its two classes, plain sets, become one, and each move (by letter
    in declaration order, left before right) multiplies both sides.
    Equal products give nothing, a product outside the ball counts one
    truncation, and a product pair already in one class is not queued.
    The probe stops once 1 and ZERO share a class; its trace is the
    path between them in the forest of joins, found by BFS.
    """
    def inside(e: Element) -> bool:
        return e is ZERO or len(e) <= radius

    def times(e: Element, side: str, g: str) -> Element:
        if e is ZERO:
            return ZERO
        return rightmost_reduce(system, g + e if side == "L" else e + g)

    u0, v0 = (e if e is ZERO else rightmost_reduce(system, e) for e in seed)
    assert inside(u0) and inside(v0), "seed outside the ball"
    has_zero = (u0 is ZERO or v0 is ZERO
                or any(rule.rhs is ZERO for rule in system.rules))
    words = brute_normal_forms(system.alphabet.precedence,
                               [rule.lhs for rule in system.rules], radius)
    universe = len(words) + has_zero
    moves = [(side, g) for g in system.alphabet.letters for side in "LR"]
    classes: dict[Element, set] = {}  # absent: a class of its own

    def together(x: Element, y: Element) -> bool:
        return y in classes.get(x, {x})

    joins: list[tuple[Element, Element, tuple]] = []
    truncated = 0
    collapsed = False
    queue = deque([(u0, v0, ())]) if u0 != v0 else deque()
    while queue:
        x, y, path = queue.popleft()
        if together(x, y):
            continue
        joins.append((x, y, path))
        joined = classes.get(x, {x}) | classes.get(y, {y})
        for e in joined:
            classes[e] = joined
        if together("", ZERO):
            collapsed = True
            break
        for side, g in moves:
            px, py = times(x, side, g), times(y, side, g)
            if px == py:
                continue
            if not (inside(px) and inside(py)):
                truncated += 1
            elif not together(px, py):
                queue.append((px, py, path + ((side, g),)))

    trace = None
    if collapsed:
        links: dict[Element, list] = {}
        for join in joins:
            links.setdefault(join[0], []).append((join[1], join))
            links.setdefault(join[1], []).append((join[0], join))
        reached: dict[Element, Optional[tuple]] = {"": None}
        frontier: deque[Element] = deque([""])
        while frontier:
            node = frontier.popleft()
            for other, join in links.get(node, ()):
                if other not in reached:
                    reached[other] = (node, join)
                    frontier.append(other)
        steps = []
        node = ZERO
        while reached[node] is not None:
            node, (x, y, path) = reached[node]
            steps.append({"left": x, "right": y, "moves": path})
        trace = {"seed": (u0, v0), "path": tuple(reversed(steps))}
    return {"collapsed": collapsed, "trace": trace,
            "class_count": universe - len(joins), "truncated": truncated,
            "merges": len(joins), "universe_size": universe,
            "radius": radius}

def count_avoiding(letters: str, forbidden: list[str],
                   max_len: int) -> list[int]:
    """Words per length containing no forbidden factor, by windowed DP.

    The state is the last max(len(f)) - 1 letters; a new factor must
    end at the appended letter, so that window decides admissibility.
    """
    if any(f == "" for f in forbidden):
        return [0] * (max_len + 1)
    window = max((len(f) for f in forbidden), default=1) - 1
    states: dict[str, int] = {"": 1}
    counts = [1]
    for _ in range(max_len):
        nxt: dict[str, int] = {}
        for suffix, cnt in states.items():
            for g in letters:
                w = suffix + g
                if any(w.endswith(f) for f in forbidden):
                    continue
                key = w[-window:] if window else ""
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
        counts.append(sum(states.values()))
    return counts


def rightmost_reduce(system: RewritingSystem, word: Union[str, Element],
                     max_steps: int = 100_000) -> Element:
    """Fixed point under the rightmost-longest-first strategy.

    A complete system must give the same answer as the package's
    leftmost strategy; only the rule data is shared with it.
    """
    current: Element = word
    for _ in range(max_steps):
        if current is ZERO:
            return ZERO
        best: Optional[tuple[int, int, int]] = None
        for i, rule in enumerate(system.rules):
            start = 0
            while True:
                pos = current.find(rule.lhs, start)
                if pos == -1:
                    break
                cand = (pos, len(rule.lhs), -i)
                if best is None or cand > best:
                    best = cand
                start = pos + 1
        if best is None:
            return current
        pos, length, neg_i = best
        rule = system.rules[-neg_i]
        if rule.rhs is ZERO:
            return ZERO
        current = current[:pos] + rule.rhs + current[pos + length:]
    raise AssertionError("rightmost_reduce did not terminate")


def random_reduce(system: RewritingSystem, word: Union[str, Element],
                  rng: random.Random, max_steps: int = 100_000) -> Element:
    """Fixed point under a seeded random choice of rule and position."""
    current: Element = word
    for _ in range(max_steps):
        if current is ZERO:
            return ZERO
        options: list[tuple[int, int]] = []
        for i, rule in enumerate(system.rules):
            start = 0
            while True:
                pos = current.find(rule.lhs, start)
                if pos == -1:
                    break
                options.append((pos, i))
                start = pos + 1
        if not options:
            return current
        pos, i = rng.choice(options)
        rule = system.rules[i]
        if rule.rhs is ZERO:
            return ZERO
        current = current[:pos] + rule.rhs + current[pos + len(rule.lhs):]
    raise AssertionError("random_reduce did not terminate")


def brute_context_length(system: RewritingSystem, w: str,
                         max_len: int) -> Optional[int]:
    """Least |x| + |y| over contexts with x w y = 1, or None when no
    context of at most max_len letters works.

    Contexts are tried in order of total length, every split of it and
    every pair of words, and each x w y is reduced by
    ``rightmost_reduce``.
    """
    letters = system.alphabet.letters
    for total in range(max_len + 1):
        for k in range(total + 1):
            for x in itertools.product(letters, repeat=k):
                for y in itertools.product(letters, repeat=total - k):
                    if rightmost_reduce(system, "".join(x) + w
                                        + "".join(y)) == "":
                        return total
    return None
