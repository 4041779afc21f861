"""Suffix automaton over a binary word, for exact longest-match queries.

No coder uses it: window-LZ finds its matches by source search (``lz.py``).

Built once over the whole input in a single loop over local 32-bit arrays.
Only what matching reads is kept: the transitions ``t0``/``t1`` and
``first_end[state]``, the end position (0-indexed, inclusive) of the first
occurrence of every substring in that state's class, which is what the
match-existence test needs.  Suffix links and lengths are dropped once the
automaton is built, so it holds three ``array("i")`` of 2n + 4 entries
(12 bytes per input symbol) and peaks at five while building.
"""

from __future__ import annotations

from array import array

MAX_TEXT = 1 << 30  # state ids (< 2n) must fit a signed 32-bit array entry


class SuffixAutomaton:
    __slots__ = ("t0", "t1", "first_end", "size")

    def __init__(self, text: str):
        n = len(text)
        if n >= MAX_TEXT:
            raise ValueError(f"text of {n} symbols exceeds the automaton's 2^30 limit")
        cap = 2 * max(1, n) + 4
        t0 = array("i", [-1]) * cap
        t1 = array("i", [-1]) * cap
        link = array("i", [-1]) * cap
        length = array("i", [0]) * cap
        first_end = array("i", [-1]) * cap
        size = 1
        last = 0
        for pos, ch in enumerate(text):
            trans = t1 if ch == "1" else t0
            cur = size
            size += 1
            length[cur] = pos + 1
            first_end[cur] = pos
            p = last
            while p != -1 and trans[p] == -1:
                trans[p] = cur
                p = link[p]
            if p == -1:
                link[cur] = 0
            else:
                q = trans[p]
                if length[p] + 1 == length[q]:
                    link[cur] = q
                else:
                    # clone keeps q's first occurrence: the strings moved into
                    # the clone shared q's endpos set before this extension
                    clone = size
                    size += 1
                    length[clone] = length[p] + 1
                    first_end[clone] = first_end[q]
                    t0[clone] = t0[q]
                    t1[clone] = t1[q]
                    link[clone] = link[q]
                    link[q] = clone
                    link[cur] = clone
                    while p != -1 and trans[p] == q:
                        trans[p] = clone
                        p = link[p]
            last = cur
        self.t0 = t0
        self.t1 = t1
        self.first_end = first_end
        self.size = size

    def longest_match_before(self, text: str, i: int, limit: int) -> int:
        """Longest L <= limit with text[i:i+L] occurring at some start < i.

        Overlapping occurrences count: only the occurrence *start* must lie
        strictly before i.
        """
        t0, t1, first_end = self.t0, self.t1, self.first_end
        state = 0
        L = 0
        while L < limit:
            c = text[i + L]
            nxt = t1[state] if c == "1" else t0[state]
            if nxt == -1 or first_end[nxt] > i + L - 1:
                break
            state = nxt
            L += 1
        return L
