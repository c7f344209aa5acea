"""Multi-pattern factor matching.

A ``FactorMatcher`` indexes a fixed list of patterns (rule left-hand
sides) and answers factor queries against arbitrary words.  It is an
Aho-Corasick automaton with the failure function compiled away: after
construction every state has a complete transition table over the
alphabet, so scanning a word costs one dict lookup per letter.

Its answers (the leftmost occurrence, and whether any occurs) must
agree with a naive scan; the test suite checks that equivalence
against an independent scan.
"""

from __future__ import annotations

from collections import deque
from typing import Optional


class FactorMatcher:
    """Finds occurrences of any of a fixed set of patterns in a word.

    Patterns are nonempty strings over ``alphabet``.  Duplicate patterns
    are allowed; among equal patterns the lowest index is reported.
    """

    def __init__(self, alphabet: str, patterns: list[str]):
        for p in patterns:
            if not p:
                raise ValueError("empty pattern")
            for ch in p:
                if ch not in alphabet:
                    raise ValueError(f"pattern letter {ch!r} not in alphabet")
        self.alphabet = alphabet
        self.patterns = list(patterns)
        self.max_len = max((len(p) for p in patterns), default=0)
        # Trie with complete goto tables.  goto[state][ch] is always defined.
        goto: list[dict[str, int]] = [{}]
        out: list[list[int]] = [[]]
        for idx, pat in enumerate(patterns):
            state = 0
            for ch in pat:
                nxt = goto[state].get(ch)
                if nxt is None:
                    goto.append({})
                    out.append([])
                    nxt = len(goto) - 1
                    goto[state][ch] = nxt
                state = nxt
            out[state].append(idx)
        # Breadth-first failure propagation, folding failures into goto so
        # the scan loop never consults a separate failure table.
        fail = [0] * len(goto)
        queue: deque[int] = deque()
        for ch in alphabet:
            nxt = goto[0].get(ch)
            if nxt is None:
                goto[0][ch] = 0
            else:
                fail[nxt] = 0
                queue.append(nxt)
        while queue:
            state = queue.popleft()
            out[state].extend(out[fail[state]])
            for ch in alphabet:
                nxt = goto[state].get(ch)
                if nxt is None:
                    goto[state][ch] = goto[fail[state]][ch]
                else:
                    fail[nxt] = goto[fail[state]][ch]
                    queue.append(nxt)
        self._goto = goto
        # Occurrences ending at a state, longest pattern first, then by
        # pattern index: a state's own patterns come first, in index
        # order, and are longer than those its failure state adds.
        self._out: list[tuple[int, ...]] = [tuple(o) for o in out]

    def safe_moves(self, letters: str) -> list[list[tuple[str, int]]]:
        """Per state, the (letter, target) moves, in the order of ``letters``,
        whose target is a state where no pattern ends.  From state 0 these
        moves read exactly the words in which no pattern occurs."""
        out = self._out
        return [[(ch, row[ch]) for ch in letters if not out[row[ch]]]
                for row in self._goto]

    def first_match(self, word: str, start: int = 0) -> Optional[tuple[int, int]]:
        """Leftmost occurrence with position >= start.

        Ties at the same position are broken by longest pattern, then by
        lowest pattern index.  Returns (position, pattern_index) or None.
        """
        goto = self._goto
        out = self._out
        patterns = self.patterns
        best: Optional[tuple[int, int]] = None
        state = 0
        end = start
        stop = len(word)
        while end < stop:
            state = goto[state][word[end]]
            hits = out[state]
            if hits:
                # hits[0] starts leftmost among the hits ending here.  A
                # later hit at the same position is a longer pattern, and
                # none ending past pos + max_len - 1 starts at or before pos.
                pos = end - len(patterns[hits[0]]) + 1
                if best is None or pos <= best[0]:
                    best = pos, hits[0]
                    stop = min(stop, pos + self.max_len)
            end += 1
        return best

    def contains(self, word: str, skip: int = -1) -> bool:
        """True when any pattern other than the one with index ``skip``
        occurs in word (a duplicate of that pattern still counts)."""
        goto = self._goto
        out = self._out
        state = 0
        for ch in word:
            state = goto[state][ch]
            hits = out[state]
            # a state's hits are distinct, so two of them cannot both be skip
            if hits and (hits[0] != skip or len(hits) > 1):
                return True
        return False
