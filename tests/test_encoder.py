import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softphoc import errors
from softphoc.alphabet import classify_char
from softphoc.encoder import char_region_bounds, encode_word
from softphoc.errors import CropTooNarrow, EmptyTranscription, InvalidIndex

from oracles import looped_encode_word, oracle_encode_word

words = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789.!"),
    min_size=1, max_size=8)


class TestCharRegionBounds:
    def test_level_one_spans_full_width(self):
        r = char_region_bounds(1, 5, 1, 100)
        assert (r.lower, r.upper) == (0, 100)

    def test_level_n_gives_exact_bin(self):
        r = char_region_bounds(1, 5, 5, 100)
        assert (r.lower, r.upper) == (0, 20)

    def test_straddling_span_snaps_to_both_bins(self):
        r = char_region_bounds(3, 5, 2, 100)
        assert (r.lower, r.upper) == (0, 100)

    @pytest.mark.parametrize("p,n,level,width", [
        (0, 5, 1, 100), (6, 5, 1, 100), (1, 5, 0, 100), (1, 5, 6, 100),
        (1, 5, 1, 4),
    ])
    def test_invalid_arguments(self, p, n, level, width):
        with pytest.raises(InvalidIndex):
            char_region_bounds(p, n, level, width)

    def test_never_empty(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            width = int(rng.integers(n, 80))
            p = int(rng.integers(1, n + 1))
            level = int(rng.integers(1, n + 1))
            r = char_region_bounds(p, n, level, width)
            assert 0 <= r.lower < r.upper <= width


class TestEncodeWord:
    def test_two_char_word_exact_values(self):
        t = encode_word("AB", 2, 1)
        a, b = classify_char("a"), classify_char("b")
        assert t.shape == (1, 2, 38)
        assert t[0, 0, a] == pytest.approx(2 / 3)
        assert t[0, 0, b] == pytest.approx(1 / 3)
        assert t[0, 1, a] == pytest.approx(1 / 3)
        assert t[0, 1, b] == pytest.approx(2 / 3)
        other = np.delete(t, [a, b], axis=2)
        assert np.all(other == 0)

    def test_single_char_word_is_one_hot(self):
        t = encode_word("A", 4, 2)
        assert np.all(t[..., classify_char("a")] == 1.0)
        assert np.all(t[..., 0] == 0.0)

    def test_first_char_mass_decays_along_width(self):
        t = encode_word("PINTU", 100, 10)
        p = classify_char("p")
        assert t[0, 10, p] > t[0, 90, p]

    def test_empty_and_narrow(self):
        with pytest.raises(EmptyTranscription):
            encode_word("", 10, 1)
        with pytest.raises(EmptyTranscription):  # not CropTooNarrow
            encode_word("", 0, 1)
        with pytest.raises(CropTooNarrow):
            encode_word("abcdef", 5, 1)
        with pytest.raises(InvalidIndex, match="height must be at least 1"):
            encode_word("ab", 5, 0)

    def test_rows_identical(self):
        t = encode_word("query", 30, 6)
        assert np.array_equal(t, np.broadcast_to(t[0], t.shape))

    def test_matches_bin_overlap_oracle(self):
        rng = np.random.default_rng(11)
        chars = list("abcdefghijklmnopqrstuvwxyz0123456789.&")
        for _ in range(60):
            n = int(rng.integers(1, 9))
            word = "".join(rng.choice(chars, size=n))
            width = int(rng.integers(max(n, 8), 65))
            got = encode_word(word, width, 1)[0]
            expected = oracle_encode_word(word, width)
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_background_channel_zero_and_rows_normalized(self):
        t = encode_word("mixed42", 40, 3)
        assert np.all(t[..., 0] == 0)
        np.testing.assert_allclose(t.sum(axis=2), 1.0, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(words)
def test_support_iff_present(word):
    width = max(8, len(word))
    t = encode_word(word, width, 1)
    present = {classify_char(c) for c in word}
    for cls in range(1, 38):
        has_mass = bool(np.any(t[..., cls] > 0))
        assert has_mass == (cls in present)


@settings(max_examples=60, deadline=None)
@given(words.filter(lambda w: len(set(w)) >= 2))
def test_distinct_anagrams_encode_differently(word):
    chars = sorted(word)
    anagram = "".join(chars)
    if anagram == word:
        anagram = "".join(reversed(chars))
    if anagram == word:  # palindromic multiset, e.g. "aa"
        return
    width = max(8, len(word))
    a = encode_word(word, width, 1)
    b = encode_word(anagram, width, 1)
    assert not np.allclose(a, b)


def random_word(rng, n):
    """n characters: letters, digits, punctuation, and often one repeated."""
    chars = list("abcdefghijklmnopqrstuvwxyz0123456789.&!-'")
    if rng.random() < 0.3:
        return str(rng.choice(chars)) * n
    return "".join(rng.choice(chars, size=n))


@pytest.mark.parametrize("n", range(1, 16))
def test_matches_the_looped_encoding_bit_for_bit(n):
    rng = np.random.default_rng(n)
    widths = {n, n + 1, 400, *rng.integers(n, 401, size=12).tolist()}
    for width in sorted(widths):
        word = random_word(rng, n)
        assert encode_word(word, width, 2).tobytes() == \
            looped_encode_word(word, width, 2).tobytes(), (word, width)


def test_a_200_character_query_matches_the_looped_encoding_bit_for_bit():
    word = random_word(np.random.default_rng(200), 200)
    for width in (200, 333, 1000):
        assert encode_word(word, width, 1).tobytes() == \
            looped_encode_word(word, width, 1).tobytes()


@pytest.mark.parametrize("block_bytes", [1, 100, 5000])
def test_blocks_of_levels_do_not_change_the_bytes(block_bytes, monkeypatch):
    rng = np.random.default_rng(block_bytes)
    cases = [(random_word(rng, n), width) for n, width in ((1, 1), (7, 7), (15, 90), (60, 250))]
    expected = [encode_word(word, width, 1).tobytes() for word, width in cases]
    monkeypatch.setattr(errors, "BLOCK_BYTES", block_bytes)
    assert [encode_word(word, width, 1).tobytes() for word, width in cases] == expected


def test_a_long_query_takes_its_bounds_in_blocks():
    n = width = 1500  # every (level, position) bound at once: 18 MB a float64 array
    word = random_word(np.random.default_rng(3), n)
    row_and_copy = 2 * 8 * 38 * (width + 1)
    tracemalloc.start()
    try:
        encode_word(word, width, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - row_and_copy < 4 * errors.BLOCK_BYTES
