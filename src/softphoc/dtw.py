"""Dynamic time warping between channel-distribution sequences."""

import numpy as np

from .errors import EmptySequence, ShapeMismatch

NORM_EPS = 1e-12


def _cosine_cost(products: np.ndarray, na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """1 - cos(u, v) from the dot products of rows u and v and their norms
    na and nb; cost 1 where a norm is (near) zero."""
    denom = np.outer(np.maximum(na, NORM_EPS), np.maximum(nb, NORM_EPS))
    cost = 1.0 - products / denom
    cost[na < NORM_EPS, :] = 1.0
    cost[:, nb < NORM_EPS] = 1.0
    return np.maximum(cost, 0.0)


def cosine_cost_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise local costs 1 - cos(u, v); cost 1 where a vector has
    (near-)zero norm."""
    return _cosine_cost(a @ b.T, np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1))


def _sequence(seq) -> np.ndarray:
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 2 or seq.shape[0] == 0:
        raise EmptySequence("both sequences need at least one sample")
    return seq


def dtw_distance(a, b) -> float:
    """Normalized DTW distance between two descriptor sequences.

    Classic dynamic program over the |a| x |b| grid with the moves
    (i-1, j), (i, j-1) and (i-1, j-1); the accumulated cost of the
    optimal monotone alignment is divided by (|a| + |b|) so scores are
    comparable across sequence lengths. Symmetric in its arguments.
    """
    return float(dtw_distances([a], b)[0])


def dtw_distances(samples, reference) -> np.ndarray:
    """dtw_distance(s, reference) for every sequence s in samples.

    Each row of a cost matrix is one vectorized update: with
    u = c_i + min(D[i-1, j], D[i-1, j-1]) and S = cumsum(c_i), the row is
    D[i] = S + minimum.accumulate(u - S), the running minimum carrying
    the move (i, j-1). All K sequences advance together as a (K, |reference|)
    state over their stacked cost matrices, shorter ones padded at the
    bottom, in buffers allocated once; sequence k's distance is read at
    its own last row from the record of the last column. The reference's
    norms and the cumulative sums of all cost rows are computed once for
    the batch; the dot products stay one matmul per sequence, because a
    stacked matmul may sum in another order. Each result is
    bit-identical to a run on that sequence alone.
    """
    reference = _sequence(reference)
    samples = [_sequence(s) for s in samples]
    if not samples:
        raise EmptySequence("need at least one sequence to compare")
    for seq in samples:
        if seq.shape[1] != reference.shape[1]:
            raise ShapeMismatch(f"channel counts differ: {seq.shape[1]} vs "
                                f"{reference.shape[1]}")

    lengths = np.array([len(seq) for seq in samples])
    k, m = len(samples), len(reference)
    norms = np.linalg.norm(reference, axis=1)
    cost = np.zeros((lengths.max(), k, m))
    for j, seq in enumerate(samples):
        cost[:len(seq), j] = _cosine_cost(seq @ reference.T, np.linalg.norm(seq, axis=1),
                                          norms)
    sums = np.cumsum(cost, axis=2)
    # acc is state[:, 1:], and state[:, :-1] the same shifted one column
    # right behind an inf: D[i-1, j-1]
    state = np.full((k, m + 1), np.inf)
    acc, diagonal = state[:, 1:], state[:, :-1]
    acc[:] = sums[0]  # first row: only the move (i, j-1)
    u = np.empty((k, m))
    last_column = np.empty((len(cost), k))
    last_column[0] = acc[:, -1]
    for i in range(1, len(cost)):
        np.minimum(acc, diagonal, out=u)
        u += cost[i]
        u -= sums[i]
        np.minimum.accumulate(u, axis=1, out=u)
        np.add(sums[i], u, out=acc)
        last_column[i] = acc[:, -1]
    return last_column[lengths - 1, np.arange(k)] / (lengths + m)
