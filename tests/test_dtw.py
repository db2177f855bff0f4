import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softphoc import dtw, errors, spotting
from softphoc.dtw import dtw_distance, dtw_lower_bounds
from softphoc.encoder import embed_scene
from softphoc.errors import EmptySequence, InvalidConfig, ShapeMismatch

from oracles import oracle_cosine_cost, oracle_dtw, padded_dtw_distances
from scenegen import random_scene


def one_hot(channel, dim=38):
    v = np.zeros(dim)
    v[channel] = 1.0
    return v


def random_distribution_sequence(rng, length, dim=38):
    seq = rng.random((length, dim))
    return seq / seq.sum(axis=1, keepdims=True)


def distances(samples, reference) -> np.ndarray:
    return np.array([dtw_distance(seq, reference) for seq in samples])


def test_identity_distance_is_zero():
    rng = np.random.default_rng(2)
    seq = random_distribution_sequence(rng, 12)
    assert dtw_distance(seq, seq) == pytest.approx(0.0, abs=1e-12)


def test_single_cell_orthogonal_one_hots():
    assert dtw_distance([one_hot(1)], [one_hot(2)]) == pytest.approx(0.5)


def test_symmetry():
    rng = np.random.default_rng(3)
    a = random_distribution_sequence(rng, 9)
    b = random_distribution_sequence(rng, 14)
    assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a), abs=1e-12)


def test_empty_sequence_rejected():
    with pytest.raises(EmptySequence):
        dtw_distance(np.zeros((0, 38)), np.zeros((3, 38)))
    with pytest.raises(EmptySequence):
        dtw_distance(np.zeros((3, 38)), np.zeros((0, 38)))


def test_channel_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        dtw_distance(np.zeros((2, 38)), np.zeros((2, 37)))


def test_zero_norm_vectors_cost_one():
    a = np.zeros((1, 38))
    b = np.array([one_hot(4)])
    assert dtw_distance(a, b) == pytest.approx(0.5)


def test_matches_exhaustive_path_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n, m = rng.integers(1, 6, size=2)
        a = random_distribution_sequence(rng, int(n), dim=6)
        b = random_distribution_sequence(rng, int(m), dim=6)
        expected = oracle_dtw(oracle_cosine_cost(a, b))
        assert dtw_distance(a, b) == pytest.approx(expected, abs=1e-12)


def test_antidiagonal_dp_matches_plain_dp():
    # cross-check the vectorized row updates against a literal two-loop DP,
    # on random sizes and on long and lopsided ones
    rng = np.random.default_rng(23)
    sizes = [(int(rng.integers(1, 40)), int(rng.integers(1, 40)))
             for _ in range(15)]
    for n, m in sizes + [(400, 120), (120, 400), (1, 500)]:
        a = random_distribution_sequence(rng, n)
        b = random_distribution_sequence(rng, m)
        cost = oracle_cosine_cost(a, b)
        acc = np.full((n + 1, m + 1), np.inf)
        acc[0, 0] = 0.0
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                acc[i, j] = cost[i - 1, j - 1] + min(
                    acc[i - 1, j], acc[i, j - 1], acc[i - 1, j - 1])
        assert dtw_distance(a, b) == pytest.approx(acc[n, m] / (n + m), abs=1e-12)


def test_padded_reference_matches_one_at_a_time():
    rng = np.random.default_rng(29)
    reference = random_distribution_sequence(rng, 40)
    samples = [random_distribution_sequence(rng, n)
               for n in (1, 57, 3, 1, 120, 40, 2)]
    samples.append(np.zeros((5, 38)))  # zero-norm rows cost 1
    assert distances(samples, reference).tolist() == \
        padded_dtw_distances(samples, reference).tolist()
    assert [dtw_distance(reference, samples[0])] == \
        padded_dtw_distances([reference], samples[0]).tolist()


def test_bad_sequences_are_refused():
    # a sequence that is not 2-D is named by its shape, not called empty;
    # test_empty_sequence_rejected and test_channel_mismatch_rejected
    # hold the other refusals
    good = np.zeros((3, 38))
    for bad in (np.ones(38), np.ones((2, 3, 38)), np.zeros(0), np.float64(1.0)):
        shape = re.escape(str(bad.shape))
        for sample, reference in ((bad, good), (good, bad)):
            with pytest.raises(ShapeMismatch, match=shape):
                dtw_distance(sample, reference)
            with pytest.raises(ShapeMismatch, match=shape):
                dtw_lower_bounds([good, sample], reference)


@pytest.mark.parametrize("seed", range(6))
def test_distances_match_the_padded_reference_to_the_bit(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(8):
        m = int(rng.choice([1, 2, int(rng.integers(3, 60))]))
        reference = random_distribution_sequence(rng, m)
        k = int(rng.choice([1, int(rng.integers(2, 25))]))
        samples = [random_distribution_sequence(rng, int(rng.choice([1, rng.integers(2, 90)])))
                   for _ in range(k)]
        for seq in samples[::3]:
            seq[rng.random(len(seq)) < 0.3] = 0.0  # zero-norm rows cost 1
        if rng.random() < 0.3:
            reference[rng.integers(m)] = 0.0
        assert distances(samples, reference).tolist() == \
            padded_dtw_distances(samples, reference).tolist()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       lengths=st.lists(st.integers(1, 90), min_size=1, max_size=6),
       m=st.integers(1, 60), zero_rows=st.floats(0.0, 1.0),
       zero_reference_row=st.booleans(), with_reference=st.booleans())
def test_lower_bounds_never_exceed_the_distances(seed, lengths, m, zero_rows,
                                                 zero_reference_row, with_reference):
    rng = np.random.default_rng(seed)
    reference = random_distribution_sequence(rng, m)
    if zero_reference_row:
        reference[rng.integers(m)] = 0.0
    samples = [random_distribution_sequence(rng, n) for n in lengths]
    for seq in samples[::2]:
        seq[rng.random(len(seq)) < zero_rows] = 0.0  # zero-norm rows cost 1
    if with_reference:
        samples.append(reference.copy())  # distance 0 when no row is zero
    bounds = dtw_lower_bounds(samples, reference)
    exact = distances(samples, reference)
    assert bounds.shape == exact.shape == (len(samples),)
    assert np.all(bounds >= 0.0)
    assert np.all(bounds <= exact + 1e-12), (bounds - exact).max()


def test_lower_bounds_check_their_input_and_memory(monkeypatch):
    good = np.zeros((3, 38))
    with pytest.raises(EmptySequence):
        dtw_lower_bounds([], good)
    with pytest.raises(ShapeMismatch):
        dtw_lower_bounds([good, np.zeros((2, 37))], good)
    rng = np.random.default_rng(8)
    reference = random_distribution_sequence(rng, 30)
    samples = [random_distribution_sequence(rng, n) for n in (12, 90, 45)]
    exact = distances(samples, reference)
    need = 8 * 30 * (12 + 90 + 45)  # the (M, samples) float64 similarities
    report_physical_memory(monkeypatch, need - 1)
    with pytest.raises(InvalidConfig, match="DTW bounds of 3 sequences .* physical memory"):
        dtw_lower_bounds(samples, reference)
    report_physical_memory(monkeypatch, need)
    assert np.all(dtw_lower_bounds(samples, reference) <= exact + 1e-12)


def report_physical_memory(monkeypatch, nbytes):
    """Make check_memory see nbytes of physical memory (pages of 1 byte)."""
    pages = {"SC_PHYS_PAGES": nbytes, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(errors.os, "sysconf", pages.__getitem__)


def test_dtw_beyond_physical_memory_is_refused(monkeypatch):
    rng = np.random.default_rng(7)
    reference = random_distribution_sequence(rng, 30)
    seq = random_distribution_sequence(rng, 90)
    need = 16 * 90 * (30 + 1)  # the (n, m) costs and the (n, m + 1) DP state
    report_physical_memory(monkeypatch, need - 1)
    with pytest.raises(InvalidConfig, match="DTW of 90 samples against 30 .* physical memory"):
        dtw_distance(seq, reference)
    report_physical_memory(monkeypatch, need)
    assert [dtw_distance(seq, reference)] == \
        padded_dtw_distances([seq], reference).tolist()


def spot_pairs(seed):
    """The (sequence, reference) pairs spot() scores on a random scene."""
    scene = random_scene(np.random.default_rng(seed), n_words=4)
    prob = embed_scene(scene)
    pairs = []

    def recording(a, b):
        pairs.append((a, b))
        return dtw_distance(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spotting, "dtw_distance", recording)
        for word in scene.words:
            spotting.spot(prob, word.transcription)
    assert pairs
    return pairs


@pytest.mark.parametrize("seed", range(2))
def test_dtw_peak_memory_is_within_the_bytes_checked(monkeypatch, seed):
    counted = []
    monkeypatch.setattr(dtw, "check_memory",
                        lambda need, what: counted.append(need) or errors.check_memory(need, what))
    # numpy's ufunc iterators add fixed buffers of getbufsize() elements
    # for each of up to three operands, whatever the sequence lengths
    buffers = 3 * 8 * np.getbufsize()
    for a, b in spot_pairs(seed):
        tracemalloc.start()
        try:
            dtw_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counted[-1] + buffers, (peak, counted[-1], len(a), len(b))
