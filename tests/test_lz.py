import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from family import (
    ReferenceLZWindowCoder,
    ReferenceSuffixAutomaton,
    VerbatimCoder,
    alpha_prefix,
    decodability_check,
    reference_lz78_phrases,
)
from lzlab.bitio import MalformedInput, encode_int, encode_int_len, self_delimit
from lzlab.ktmix import MixtureCoder
from lzlab.lz import (
    BlockCoder,
    LZ78Coder,
    LZWindowCoder,
    compression_ratio,
    lz78_parse,
    ratio_curve,
)
from lzlab.lz import _nearest_source, _window_grams
from lzlab.sources import bernoulli, flip_chain
from lzlab.suffixauto import SuffixAutomaton


def phrase_strings(x):
    parse = lz78_parse(x)
    out = []
    pos = 0
    for ph in parse.phrases:
        ln = ph.ref_len + (1 if ph.sym is not None else 0)
        out.append(x[pos : pos + ln])
        pos += ln
    return out


def test_parse_hand_trace():
    assert phrase_strings("1011010100010") == ["1", "0", "11", "01", "010", "00", "10"]


def test_parse_empty():
    assert lz78_parse("").phrases == []


def test_parse_rejects_non_binary_words():
    # the trie has two children per node: any other symbol must not index it
    for x in ("2", "01" * 100 + "a0"):
        with pytest.raises(ValueError, match="binary"):
            lz78_parse(x)
        with pytest.raises(ValueError, match="binary"):
            LZ78Coder().prefix_bits(x, [len(x)])


def test_parse_all_zeros_incomplete_tail():
    parse = lz78_parse("0000")
    assert phrase_strings("0000") == ["0", "00", "0"]
    assert parse.phrases[-1].sym is None


def test_parse_distinct_phrases():
    rng = random.Random(5)
    for _ in range(300):
        x = "".join(rng.choice("01") for _ in range(rng.randrange(0, 200)))
        parse = lz78_parse(x)
        complete = [
            x[sum(q.ref_len + 1 for q in parse.phrases[:j]) :][: ph.ref_len + 1]
            for j, ph in enumerate(parse.phrases)
            if ph.sym is not None
        ]
        assert len(complete) == len(set(complete))


@pytest.mark.parametrize(
    "coder",
    [
        LZ78Coder(),
        LZWindowCoder(),
        LZWindowCoder(window=16),
        LZWindowCoder(window=256),
        BlockCoder(8),
        BlockCoder(64),
        BlockCoder(1024),
    ],
)
def test_roundtrip_random_words(coder):
    rng = random.Random(42)
    for _ in range(400):
        x = "".join(rng.choice("01") for _ in range(rng.randrange(0, 300)))
        code = coder.encode(x)
        word, used = coder.decode(code + "0110")
        assert word == x
        assert used == len(code)


def test_lz78_roundtrip_many_small_words():
    coder = LZ78Coder()
    rng = random.Random(777)
    for _ in range(100_000):
        x = bin(rng.getrandbits(16))[2:] if rng.random() < 0.97 else ""
        word, _ = coder.decode(coder.encode(x))
        assert word == x


def test_lz78_roundtrip_hand_example():
    coder = LZ78Coder()
    x = "1011010100010"
    assert coder.decode(coder.encode(x))[0] == x


def expected_lz78_zero_run_bits(n: int) -> int:
    """Independent count for 0^n under the fixed-width index realization:
    phrase k is 0^k, referencing index k-1, so it costs width(k)+1 bits."""
    c = 0
    covered = 0
    payload = 0
    while covered + c + 1 <= n:
        c += 1
        covered += c
        payload += (c - 1).bit_length() + 1
    tail = n - covered
    if tail:
        payload += c.bit_length()  # index of 0^tail is tail <= c, width of phrase c+1
    return encode_int_len(payload + 1) + payload


def test_lz78_all_zeros_ratio_2_16():
    n = 1 << 16
    bits = len(LZ78Coder().encode("0" * n))
    assert bits == expected_lz78_zero_run_bits(n)
    ratio = Fraction(bits, n)
    # sqrt(2n)*log2(sqrt(2n))/n scale; the parse-count formula gives ~0.048
    assert ratio <= Fraction(6, 100)


def test_lz78_ratio_decreasing_on_zeros():
    rs = [r for _, _, r in ratio_curve(LZ78Coder(), "0" * 4096, 512)]
    assert all(a > b for a, b in zip(rs, rs[1:]))


def test_lzwin_zero_run_two_phrases():
    coder = LZWindowCoder()
    x = "0" * 64
    phrases = coder._parse(x)
    assert len(phrases) == 2
    assert phrases[0] == (0, 0, -1, True)
    i, L, src, has_sym = phrases[1]
    assert (i, L, src, has_sym) == (1, 63, 0, False)
    assert coder.decode(coder.encode(x))[0] == x


def test_lzwin_smallest_offset_wins():
    # "0101" then matching "01": sources at 0 and 2; smallest offset -> 2
    x = "010101"
    coder = LZWindowCoder()
    phrases = coder._parse(x)
    # phrase 3 starts at i=2 and matches maximal overlap from src=0? rfind
    # picks the largest source start, i.e. smallest offset, among longest.
    for i, L, src, has_sym in phrases:
        if L > 0:
            assert src == x.rfind(x[i : i + L], 0, i + L - 1)


def test_lzwin_unbounded_vs_lz78_on_periodic():
    lz78 = LZ78Coder()
    lzw = LZWindowCoder()
    for period in ("01", "0011", "10010"):
        x = (period * 4000)[:8192]
        bits_w = len(lzw.encode(x))
        bits_78 = len(lz78.encode(x))
        # window coder collapses periodic input to a few phrases
        assert bits_w <= bits_78 + 64


def test_lzwin_unbounded_matches_bruteforce():
    rng = random.Random(23)
    coder = LZWindowCoder()
    for _ in range(60):
        x = "".join(rng.choice(rng.choice(["01", "0001", "01111"])) for _ in range(120))
        for i, L, src, has_sym in coder._parse(x):
            best = 0
            best_src = -1
            limit = len(x) - i
            for p in range(i):
                ln = 0
                while ln < limit and x[p + ln] == x[i + ln]:
                    ln += 1
                if ln >= best:
                    best, best_src = ln, p
            assert L == best, (x, i)
            if L > 0:
                assert src == best_src


def test_lzwin_windowed_matches_bruteforce():
    rng = random.Random(11)
    for W in (1, 2, 3, 4, 7, 16):
        coder = LZWindowCoder(window=W)
        for _ in range(50):
            # fair-coin words and words of long zero runs
            x = "".join(rng.choice(rng.choice(["01", "0001"])) for _ in range(80))
            for i, L, src, has_sym in coder._parse(x):
                # brute force longest match with source start in window
                best = 0
                best_src = -1
                for p in range(max(0, i - W), i):
                    ln = 0
                    while i + ln < len(x) and x[p + ln] == x[i + ln]:
                        ln += 1
                        if has_sym and i + ln >= len(x):
                            break
                    ln = min(ln, len(x) - i)
                    if ln >= best:
                        best, best_src = ln, p
                assert L == best
                if L > 0:
                    assert src == best_src


@pytest.fixture(scope="module")
def differential_words():
    return {
        "zeros": "0" * 3000,
        "periodic": ("01" * 600)[:1111] + ("0011" * 400)[:1000] + ("10010" * 300)[:1303],
        "fair": bernoulli(Fraction(1, 2)).sample(31, 3000),
        "flip": flip_chain(Fraction(1, 10)).sample(32, 3000),
        "alpha": alpha_prefix(1 << 14),
    }


@pytest.mark.parametrize("window", [None, 1, 2, 3, 7, 64, 4096])
def test_lzwin_matches_reference_coder(differential_words, window):
    # the reference finds sources with rfind and, in a window, gallops on it
    coder, ref = LZWindowCoder(window), ReferenceLZWindowCoder(window)
    for name, x in differential_words.items():
        assert coder._parse(x) == ref._parse(x), name
        every = list(range(len(x) + 1))
        assert coder.prefix_bits(x, every) == ref.prefix_bits(x, every), name


# fair-coin, periodic and sparse words: periodic and sparse ones hold long
# matches with many candidate sources
binary_words = st.one_of(
    st.text("01", max_size=120),
    st.builds(lambda period, n: (period * n)[:n], st.text("01", min_size=1, max_size=9), st.integers(0, 160)),
    st.builds(
        lambda n, ones: "".join("1" if k in ones else "0" for k in range(n)),
        st.integers(0, 160),
        st.sets(st.integers(0, 159), max_size=6),
    ),
)


@settings(max_examples=400)
@given(binary_words, st.data())
def test_nearest_source_matches_reversed_string_search(x, data):
    # patterns of 8 or more symbols are searched among 8-bit windows; the
    # plain search on the reversed string must find the same source
    n = len(x)
    if n < 2:
        return
    i = data.draw(st.integers(1, n - 1))
    lengths = st.integers(1, n - i)
    if n - i >= 7:
        lengths = st.sampled_from([L for L in (7, 8, 9) if L <= n - i]) | lengths
    L = data.draw(lengths)
    lo = data.draw(st.integers(0, i - 1))
    hi = data.draw(st.integers(lo, i - 1))
    rev = x[::-1]
    q = rev.find(rev[n - i - L : n - i], n - hi - L, n - lo)
    assert _nearest_source(rev, _window_grams(rev), i, L, lo, hi) == (-1 if q < 0 else n - L - q)


@settings(max_examples=150)
@given(binary_words, st.sampled_from([None, 1, 7, 8, 9, 4096]))
def test_lzwin_parse_matches_reference_on_drawn_words(x, window):
    coder, ref = LZWindowCoder(window), ReferenceLZWindowCoder(window)
    assert coder._parse(x) == ref._parse(x)
    every = list(range(len(x) + 1))
    assert coder.prefix_bits(x, every) == ref.prefix_bits(x, every)
    code = coder.encode(x)
    assert coder.decode(code) == (x, len(code))


LZ78_CODERS = [LZ78Coder(), *(BlockCoder(N, LZ78Coder()) for N in (1, 7, 64))]


@settings(max_examples=300)
@given(binary_words, st.lists(st.integers(0, 170), max_size=8))
# "0" * 9 parses as 0, 00, 000, 000 and the hand trace plus "1" as its seven
# phrases and 1: both end inside an incomplete phrase
@example("", [3])
@example("0" * 9, [4, 9])
@example("1011010100010" + "1", [13])
def test_lz78_trie_walk_matches_reference_parse(x, drawn):
    # checkpoints unsorted, repeated, at 0 and past the end
    ps = [*drawn, 0, len(x) + 2, *drawn]
    assert [(p.ref_index, p.ref_len, p.sym) for p in lz78_parse(x).phrases] == list(reference_lz78_phrases(x))
    for coder in LZ78_CODERS:
        assert coder.prefix_bits(x, ps) == [len(coder.encode(x[:n])) for n in ps], coder.name


def test_window_grams_are_the_8_bit_windows():
    rng = random.Random(41)
    for n in (0, 1, 7, 8, 9, 15, 16, 17, 100):
        w = "".join(rng.choice("01") for _ in range(n))
        assert _window_grams(w) == bytes(int(w[j : j + 8], 2) for j in range(n - 7))


def test_suffix_automaton_matches_reference():
    rng = random.Random(29)
    for _ in range(40):
        p = rng.choice([0.5, 0.1, 0.01])
        x = "".join("1" if rng.random() < p else "0" for _ in range(rng.randrange(1, 600)))
        sam, ref = SuffixAutomaton(x), ReferenceSuffixAutomaton(x)
        assert sam.size == ref.size
        assert list(sam.t0) == list(ref.t0)
        assert list(sam.t1) == list(ref.t1)
        assert list(sam.first_end) == list(ref.first_end)


def test_suffix_automaton_memory():
    # the build holds five 4-byte arrays of 2n + 4 entries (40 bytes per
    # symbol) and keeps three: a 64-bit array or a retained build array fails
    n = 1 << 16
    x = bernoulli(Fraction(1, 2)).sample(33, n)
    tracemalloc.start()
    try:
        sam = SuffixAutomaton(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 44 * n, peak
    arrays = {name: getattr(sam, name) for name in sam.__slots__ if name != "size"}
    assert sorted(arrays) == ["first_end", "t0", "t1"]
    assert all(a.itemsize == 4 for a in arrays.values())


def test_suffix_automaton_rejects_texts_past_32_bit_states():
    class Huge(str):
        def __len__(self):
            return 1 << 30

    with pytest.raises(ValueError):
        SuffixAutomaton(Huge())


def test_lzwin_decode_rejects_offset_beyond_window():
    literal = encode_int(1) + encode_int(1)
    # five literals 0,1,1,0,1, then "01" copied from offset 5, then "1"
    stream = self_delimit("".join(literal + c for c in "01101") + encode_int(5) + encode_int(3) + "1")
    assert LZWindowCoder().decode(stream)[0] == "01101011"
    assert LZWindowCoder(window=5).decode(stream)[0] == "01101011"
    with pytest.raises(MalformedInput, match="beyond the window"):
        LZWindowCoder(window=4).decode(stream)


@pytest.mark.parametrize(
    "coder", [LZ78Coder(), LZWindowCoder(), LZWindowCoder(window=8), BlockCoder(16), MixtureCoder(2)]
)
def test_prefix_bits_of_empty_input(coder):
    # every checkpoint of the empty word, even one past its end, costs the
    # empty word's codeword
    assert coder.prefix_bits("", [0, 1, 5]) == [len(coder.encode(""))] * 3


def test_block_structure_exact():
    inner = LZ78Coder()
    coder = BlockCoder(16, inner)
    x = "".join(random.Random(3).choice("01") for _ in range(16))
    assert coder.encode(x) == "0" + inner.encode(x) + "1" + encode_int(1)
    y = x + x + "101"
    assert (
        coder.encode(y)
        == "0" + inner.encode(x) + "0" + inner.encode(x) + "1" + self_delimit("101")
    )


def test_block_roundtrip_various_n():
    rng = random.Random(8)
    for N in (8, 64, 1024):
        coder = BlockCoder(N)
        for _ in range(30):
            x = "".join(rng.choice("01") for _ in range(rng.randrange(0, 3 * N + 5)))
            word, used = coder.decode(coder.encode(x) + "111")
            assert word == x
            assert used == len(coder.encode(x))


def test_lz78_ratio_on_sparse_word():
    """Words with ones frequency <= 2/256 compress below 1/4 at 2^20."""
    from lzlab.sources import bernoulli

    x = bernoulli(Fraction(1, 256)).sample(3, 1 << 20)
    assert x.count("1") / len(x) <= 2 / 256
    bits = LZ78Coder().prefix_bits(x, [len(x)])[0]
    assert Fraction(bits, len(x)) <= Fraction(1, 4)


def test_compression_ratio_verbatim():
    x = "01" * 50
    assert compression_ratio(VerbatimCoder(), x) == Fraction(100 + 64, 100)
    with pytest.raises(ValueError):
        compression_ratio(VerbatimCoder(), "")


def test_ratio_hand_example():
    """Frozen from the hand-traced parse (1)(0)(11)(01)(010)(00)(10):
    index widths 0,1,2,2,3,3,3 plus one symbol bit each = 21 payload bits,
    length frame encode_int(22) = 9 bits."""
    x = "1011010100010"
    code = LZ78Coder().encode(x)
    assert code == encode_int(22) + "1" + "00" + "011" + "101" + "1000" + "0100" + "0010"
    assert compression_ratio(LZ78Coder(), x) == Fraction(30, 13)


@pytest.fixture(scope="module")
def ratio_words():
    """The codec benchmark's three kinds of input at 2^13 bits, and one bit."""
    n = 1 << 13
    return [flip_chain(Fraction(1, 10)).sample(5, n), bernoulli(Fraction(1, 2)).sample(5, n),
            alpha_prefix(n), "1"]


@pytest.mark.parametrize(
    "coder",
    [LZ78Coder(), LZWindowCoder(), LZWindowCoder(window=4096), BlockCoder(4096, LZ78Coder()),
     MixtureCoder(4), VerbatimCoder()],
    ids=["lz78", "lzwin", "lzwin4096", "block4096-lz78", "mixture4", "verbatim"],
)
def test_compression_ratio_is_encoded_length(coder, ratio_words):
    for x in ratio_words:
        assert compression_ratio(coder, x) == Fraction(len(coder.encode(x)), len(x))
    with pytest.raises(ValueError):
        compression_ratio(coder, "")


@pytest.mark.parametrize(
    "coder",
    [
        LZ78Coder(),
        LZWindowCoder(),
        LZWindowCoder(window=32),
        BlockCoder(64),
        BlockCoder(64, MixtureCoder(2)),
        BlockCoder(16, LZWindowCoder()),
        BlockCoder(32, VerbatimCoder()),
        MixtureCoder(2),
    ],
)
def test_prefix_bits_match_reencoding(coder):
    rng = random.Random(17)
    x = "".join(rng.choice("01") for _ in range(700))
    x = x[:350] + "0" * 200 + x[350:500]
    # "0000" parses as 0, 00, 0: it ends inside an incomplete LZ78 phrase
    ns = [0, *range(1, len(x) + 1, 13), len(x), len(x) + 1, len(x) + 100]
    for word, ns in ((x, ns), ("0000", [0, 1, 2, 3, 4])):
        got = coder.prefix_bits(word, ns)
        want = [len(coder.encode(word[:n])) for n in ns]
        assert got == want


@pytest.mark.parametrize(
    "coder",
    [
        LZ78Coder(),
        LZWindowCoder(),
        LZWindowCoder(window=64),
        BlockCoder(32),
        BlockCoder(64, MixtureCoder(2)),
        BlockCoder(16, LZWindowCoder()),
        MixtureCoder(2),
    ],
)
def test_separating_property(coder):
    report = decodability_check(coder, pairs=1000, seed=123)
    assert report.ok, report.failures[:3]


def test_decode_malformed_raises():
    with pytest.raises(MalformedInput):
        LZ78Coder().decode("0000000")
    # phrases 0, (index 0)0, then phrase 3's 2-bit index field
    with pytest.raises(MalformedInput, match="truncated index field"):
        LZ78Coder().decode(self_delimit("000" + "1"))
    with pytest.raises(MalformedInput, match="phrase index out of range"):
        LZ78Coder().decode(self_delimit("000" + "11"))
    with pytest.raises(MalformedInput):
        LZWindowCoder().decode(self_delimit("0100"))  # offset into void
