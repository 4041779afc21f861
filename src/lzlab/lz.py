"""Lempel-Ziv coders over binary words, block realization, and ratio accounting.

Two variants are implemented:

* ``LZ78Coder`` -- incremental parsing into phrases, each the shortest
  extension of a previously seen phrase: one walk down a binary trie whose
  node k is phrase k.  Phrase k is coded as the node id of its longest
  proper prefix in a fixed-width field of ceil(log2 k) bits, then a symbol.
* ``LZWindowCoder`` -- greedy longest match against all previous symbols, or
  against the previous ``window`` symbols; the source start must lie in the
  window but the copy may overlap the current position.  Smallest offset
  wins among longest matches.  The unbounded coder is the windowed
  procedure with the window at the input's start: each phrase searches
  forward in the reversed input for ever longer nearest sources, a pattern
  of 8 or more symbols among its 8-bit windows.

Every codeword is self-delimiting, so concatenated codewords decode
unambiguously (the separating property).  Each coder's ``prefix_bits``
derives the codeword length of every prefix from the same per-phrase rule
that ``encode`` emits, without encoding the prefixes.

A curve is measured at ``checkpoints(n, stride)``, every multiple of stride
up to n; a stride outside 1..n, which leaves no such point, is rejected.
This is the only place a stride becomes measurement points.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .bitio import (
    MalformedInput,
    decode_int,
    encode_int,
    read_self_delimited,
    self_delimit,
    self_delimited_len,
)


@dataclass(frozen=True)
class Phrase:
    """One parsed phrase: referenced dictionary entry plus one new symbol.

    ``ref_index`` is the trie node id of the longest proper prefix, which is
    its dictionary index (0 is the empty phrase), and ``ref_len`` its length;
    ``sym`` is None only for an incomplete final phrase.
    """

    ref_index: int
    ref_len: int
    sym: str | None


@dataclass
class PhraseParse:
    phrases: list[Phrase]


def _lz78_walk(x: str) -> tuple[list[int], list[int], int]:
    """Greedy leftmost incremental parse of the binary word x: one walk down
    a trie whose node k is phrase k (node 0 is the empty phrase), with its
    children at ``child[2k + bit]``, stored doubled and 0 while absent.
    Phrase k has length ``lens[k]`` and longest proper prefix ``refs[k]``;
    an incomplete final phrase is node ``tail``, 0 if there is none."""
    if x.count("0") + x.count("1") != len(x):
        raise ValueError("LZ78 parses binary words only")
    child = [0, 0]
    refs, lens = [0], [0]
    at = 0
    for b in x.encode().translate(bytes.maketrans(b"01", b"\0\1")):
        slot = at + b
        at = child[slot]
        if not at:
            ref = slot >> 1
            child[slot] = len(child)
            child += (0, 0)
            refs.append(ref)
            lens.append(lens[ref] + 1)
    return refs, lens, at >> 1


def lz78_parse(x: str) -> PhraseParse:
    """All phrases of x, read off the trie walk; the final phrase may be
    incomplete."""
    refs, lens, tail = _lz78_walk(x)
    phrases = [Phrase(r, n - 1, x[e - 1]) for r, n, e in zip(refs[1:], lens[1:], accumulate(lens[1:]))]
    if tail:
        phrases.append(Phrase(tail, lens[tail], None))
    return PhraseParse(phrases)


def _fixed_width(k: int) -> int:
    """Index field width for phrase number k (1-based): indices 0..k-1."""
    return (k - 1).bit_length()


class LZ78Coder:
    """Variant-1 coder: phrase k is its dictionary index in a fixed-width
    field of ceil(log2 k) bits, then its new symbol.  An incomplete final
    phrase has no symbol; the payload is self-delimited."""

    name = "lz78"

    @staticmethod
    def _phrase_bits(ph: Phrase, k: int) -> str:
        """Bits of phrase number k (1-based): the one LZ78 cost rule."""
        w = _fixed_width(k)
        out = format(ph.ref_index, f"0{w}b") if w else ""
        return out if ph.sym is None else out + ph.sym

    def encode(self, x: str) -> str:
        phrases = lz78_parse(x).phrases
        return self_delimit("".join(self._phrase_bits(ph, k) for k, ph in enumerate(phrases, start=1)))

    def decode(self, bits: str, pos: int = 0) -> tuple[str, int]:
        payload, used = read_self_delimited(bits, pos)
        entries = [""]  # dictionary entry per index
        out: list[str] = []
        p = 0
        n = len(payload)
        while p < n:
            k = len(entries)
            w = _fixed_width(k)
            if p + w > n:
                raise MalformedInput("truncated index field")
            idx = int(payload[p : p + w], 2) if w else 0
            p += w
            if idx >= k:
                raise MalformedInput("phrase index out of range")
            content = entries[idx]
            if p < n:
                content += payload[p]
                p += 1
                entries.append(content)
            out.append(content)
        return "".join(out), used

    def prefix_bits(self, x: str, positions: list[int]) -> list[int]:
        """Exact codeword length of every prefix x[:n], n >= 0, from the
        phrase ends of one trie walk: phrase k costs ``_fixed_width(k)`` bits
        plus its symbol.  A prefix that ends inside phrase k ends in a proper
        prefix of it, which the dictionary already holds (it is
        prefix-closed): x[:n] parses as phrases 1..k-1 plus phrase k cut
        short, which keeps its index field and loses its symbol."""
        _, lens, tail = _lz78_walk(x)
        ends = list(accumulate(lens))  # ends[k]: where phrase k ends
        count = len(ends) - 1 + (tail > 0)  # phrases, an incomplete one too
        index_bits = list(accumulate(map(_fixed_width, range(1, count + 1)), initial=0))
        out = []
        for n in positions:
            m = bisect.bisect_right(ends, n) - 1  # phrases complete in x[:n]
            cut = n > ends[m] and m < count  # x[:n] ends inside phrase m + 1
            out.append(self_delimited_len(index_bits[m + cut] + m))
        return out


def _window_grams(rev: str) -> bytes:
    """Byte j of len(rev) - 7 is the 8-symbol window rev[j:j+8] read in
    binary.  The windows starting at k, k + 8, k + 16, ... tile rev[k:], so
    each residue k mod 8 takes one ``int(..., 2).to_bytes`` call."""
    m = max(0, len(rev) - 7)
    grams = bytearray(m)
    for k in range(min(8, m)):
        c = (m - k + 7) // 8
        grams[k::8] = int(rev[k : k + 8 * c], 2).to_bytes(c, "big")
    return bytes(grams)


def _nearest_source(rev: str, grams: bytes, i: int, L: int, lo: int, hi: int) -> int:
    """Largest p in [lo, hi], hi < i, with x[p:p+L] == x[i:i+L], or -1.

    ``rev`` is x reversed, where that source is the *first* occurrence of
    the reversed pattern at or after n - hi - L: CPython's forward search
    falls back to the two-way algorithm, its reverse search has none.
    A pattern of L >= 8 symbols occurs exactly where its L - 7 windows do,
    so it is searched in ``grams`` (see ``_window_grams``), whose 256
    letters let the search skip ahead.
    """
    n = len(rev)
    if L < 8:
        q = rev.find(rev[n - i - L : n - i], n - hi - L, n - lo)
    else:
        q = grams.find(grams[n - i - L : n - i - 7], n - hi - L, n - lo - 7)
    return -1 if q < 0 else n - L - q


def _extend_match(x: str, p: int, i: int, k: int, limit: int) -> int:
    """Largest m <= limit with x[p:p+m] == x[i:i+m], given that k symbols
    already match: slice comparisons of doubling, then halving, length."""
    step = 1
    while k + step <= limit and x[p + k : p + k + step] == x[i + k : i + k + step]:
        k += step
        step *= 2
    step //= 2
    while step:
        if k + step <= limit and x[p + k : p + k + step] == x[i + k : i + k + step]:
            k += step
        step //= 2
    return k


def _window_match(x: str, rev: str, grams: bytes, i: int, lo: int) -> tuple[int, int]:
    """(L, source) of the longest match of x[i:] with source start in
    [lo, i), smallest offset on ties; (0, -1) if there is none.

    Each search looks for one symbol more than the best match so far, and
    only behind the last source found: sources nearer i matched less.
    """
    limit = len(x) - i
    L, src, hi = 0, -1, i - 1
    while L < limit:
        p = _nearest_source(rev, grams, i, L + 1, lo, hi)
        if p < 0:
            break
        L, src, hi = _extend_match(x, p, i, L + 1, limit), p, p - 1
    return L, src


class LZWindowCoder:
    """Variant-2 coder: (offset, length, next symbol) triples via encode_int."""

    def __init__(self, window: int | None = None):
        if window is not None and window < 1:
            raise ValueError("window must be >= 1 or None for unbounded")
        self.window = window
        self.name = "lzwin" if window is None else f"lzwin{window}"

    def _lo(self, i: int) -> int:
        """Smallest source start the phrase at i may copy from."""
        return 0 if self.window is None else max(0, i - self.window)

    def _parse(
        self, x: str, rev: str | None = None, grams: bytes | None = None
    ) -> list[tuple[int, int, int, bool]]:
        """List of (start, match_len, source, has_symbol).  ``rev`` and
        ``grams`` are x reversed and its 8-bit windows (``_window_grams``),
        built here unless the caller already has them."""
        n = len(x)
        if rev is None:
            rev = x[::-1]
            grams = _window_grams(rev)
        phrases = []
        i = 0
        while i < n:
            L, src = _window_match(x, rev, grams, i, self._lo(i))
            has_sym = i + L < n
            phrases.append((i, L, src, has_sym))
            i += L + (1 if has_sym else 0)
        return phrases

    @staticmethod
    def _triple_bits(i: int, L: int, src: int, sym: str | None) -> str:
        if L == 0:
            out = encode_int(1) + encode_int(1)
        else:
            out = encode_int(i - src) + encode_int(L + 1)
        if sym is not None:
            out += sym
        return out

    def encode(self, x: str) -> str:
        parts = [
            self._triple_bits(i, L, src, x[i + L] if has_sym else None)
            for i, L, src, has_sym in self._parse(x)
        ]
        return self_delimit("".join(parts))

    def decode(self, bits: str, pos: int = 0) -> tuple[str, int]:
        payload, used = read_self_delimited(bits, pos)
        out: list[str] = []
        p = 0
        n = len(payload)
        while p < n:
            offset, u = decode_int(payload, p)
            p += u
            lenfield, u = decode_int(payload, p)
            p += u
            if self.window is not None and offset > self.window:
                raise MalformedInput("window offset beyond the window")
            L = lenfield - 1
            if L > 0:
                srcpos = len(out) - offset
                if srcpos < 0:
                    raise MalformedInput("window offset before stream start")
                if offset >= L:
                    out.extend(out[srcpos : srcpos + L])
                else:  # the copy overlaps itself: repeat its period
                    period = out[srcpos:]
                    out.extend(period * (L // offset))
                    out.extend(period[: L % offset])
            if p < n:
                out.append(payload[p])
                p += 1
        return "".join(out), used

    def prefix_bits(self, x: str, positions: list[int]) -> list[int]:
        """Exact codeword length of every prefix; one parse plus one source
        search per checkpoint that truncates a phrase."""
        rev = x[::-1]
        grams = _window_grams(rev)
        phrases = self._parse(x, rev, grams)
        # cumulative payload bits after each phrase
        cum = [0]
        for i, L, src, has_sym in phrases:
            cum.append(cum[-1] + len(self._triple_bits(i, L, src, "0" if has_sym else None)))
        starts = [ph[0] for ph in phrases]
        results = []
        for n in positions:
            if n == 0 or not phrases:
                pl = 0
            else:
                j = bisect.bisect_right(starts, n - 1) - 1
                i, L, src, has_sym = phrases[j]
                pl = cum[j]
                covered = i + L + (1 if has_sym else 0)
                if n >= covered:
                    pl = cum[j + 1]
                else:
                    Lp = n - i
                    if Lp > 0:
                        srcp = _nearest_source(rev, grams, i, Lp, self._lo(i), i - 1)
                        pl += len(self._triple_bits(i, Lp, srcp, None))
            results.append(self_delimited_len(pl))
        return results


class BlockCoder:
    """Block realization: inner coder per full block, final tail raw.

    Framing: each full block is '0' ++ inner codeword; the stream ends with
    '1' ++ self_delimit(tail).  The flag bit makes concatenations decodable.
    """

    def __init__(self, block_len: int, inner=None):
        if block_len < 1:
            raise ValueError("block length must be >= 1")
        self.block_len = block_len
        self.inner = inner if inner is not None else LZ78Coder()
        self.name = f"block{block_len}-{self.inner.name}"

    def encode(self, x: str) -> str:
        N = self.block_len
        parts = []
        full = len(x) // N
        for j in range(full):
            parts.append("0" + self.inner.encode(x[j * N : (j + 1) * N]))
        parts.append("1" + self_delimit(x[full * N :]))
        return "".join(parts)

    def decode(self, bits: str, pos: int = 0) -> tuple[str, int]:
        out = []
        p = pos
        while True:
            if p >= len(bits):
                raise MalformedInput("block stream ended without tail marker")
            flag = bits[p]
            p += 1
            if flag == "0":
                word, used = self.inner.decode(bits, p)
                if len(word) != self.block_len:
                    raise MalformedInput("inner block decoded to wrong length")
                out.append(word)
                p += used
            else:
                tail, used = read_self_delimited(bits, p)
                p += used
                out.append(tail)
                return "".join(out), p - pos

    def prefix_bits(self, x: str, positions: list[int]) -> list[int]:
        N = self.block_len
        cum = [0]
        for j in range(len(x) // N):
            cum.append(cum[-1] + 1 + self.inner.prefix_bits(x[j * N : (j + 1) * N], [N])[0])
        # a position past the end codes all of x
        positions = [min(n, len(x)) for n in positions]
        return [cum[n // N] + 1 + self_delimited_len(n % N) for n in positions]


def compression_ratio(coder, x: str) -> Fraction:
    """Codeword bits over input symbols (log2 alphabet = 1 for binary).
    The length is the coder's ``prefix_bits`` at len(x), which equals
    len(coder.encode(x)) without building the codeword."""
    if not x:
        raise ValueError("compression ratio undefined for empty input")
    return Fraction(coder.prefix_bits(x, [len(x)])[0], len(x))


def ratio_points(ns, bits) -> list[tuple[int, int, Fraction]]:
    """The (n, bits, bits/n) point of every prefix length n and its code bits."""
    return [(n, b, Fraction(b, n)) for n, b in zip(ns, bits)]


def checkpoints(n: int, stride: int) -> list[int]:
    """Every multiple of stride up to n; a stride outside 1..n is rejected."""
    if not 1 <= stride <= n:
        raise ValueError(f"stride {stride} is not in [1, n = {n}]")
    return list(range(stride, n + 1, stride))


def ratio_curve(coder, x: str, stride: int) -> list[tuple[int, int, Fraction]]:
    """The ratio points of x's prefixes at checkpoints(len(x), stride)."""
    ns = checkpoints(len(x), stride)
    return ratio_points(ns, coder.prefix_bits(x, ns))
