import numpy as np
import pytest

from softphoc.dtw import dtw_distance, dtw_distances
from softphoc.errors import EmptySequence, ShapeMismatch

from oracles import oracle_cosine_cost, oracle_dtw, padded_dtw_distances


def one_hot(channel, dim=38):
    v = np.zeros(dim)
    v[channel] = 1.0
    return v


def random_distribution_sequence(rng, length, dim=38):
    seq = rng.random((length, dim))
    return seq / seq.sum(axis=1, keepdims=True)


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


def test_batch_matches_one_at_a_time():
    rng = np.random.default_rng(29)
    reference = random_distribution_sequence(rng, 40)
    samples = [random_distribution_sequence(rng, n)
               for n in (1, 57, 3, 1, 120, 40, 2)]
    samples.append(np.zeros((5, 38)))  # zero-norm rows cost 1
    distances = dtw_distances(samples, reference)
    assert distances.shape == (len(samples),)
    assert distances.tolist() == [dtw_distance(s, reference) for s in samples]
    assert dtw_distances([reference], samples[0]).tolist() == \
        [dtw_distance(reference, samples[0])]


def test_batch_rejects_bad_sequences():
    good = np.zeros((3, 38))
    with pytest.raises(EmptySequence):
        dtw_distances([good, np.zeros((0, 38))], good)
    with pytest.raises(EmptySequence):
        dtw_distances([good], np.zeros((0, 38)))
    with pytest.raises(EmptySequence):
        dtw_distances([], good)
    with pytest.raises(ShapeMismatch):
        dtw_distances([good, np.zeros((2, 37))], good)


@pytest.mark.parametrize("seed", range(6))
def test_batch_matches_the_padded_reference_to_the_bit(seed):
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
        assert dtw_distances(samples, reference).tolist() == \
            padded_dtw_distances(samples, reference).tolist()
