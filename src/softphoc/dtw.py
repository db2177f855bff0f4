"""Dynamic time warping between channel-distribution sequences."""

import numpy as np

from .errors import EmptySequence, ShapeMismatch

NORM_EPS = 1e-12


def cosine_cost_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise local costs 1 - cos(u, v); cost 1 where a vector has
    (near-)zero norm."""
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    denom = np.outer(np.maximum(na, NORM_EPS), np.maximum(nb, NORM_EPS))
    cost = 1.0 - (a @ b.T) / denom
    cost[na < NORM_EPS, :] = 1.0
    cost[:, nb < NORM_EPS] = 1.0
    return np.maximum(cost, 0.0)


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
    bottom; sequence k's distance is read at its own last row, so each
    result is bit-identical to a run on that sequence alone.
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
    cost = np.zeros((lengths.max(), k, m))
    for j, seq in enumerate(samples):
        cost[:len(seq), j] = cosine_cost_matrix(seq, reference)
    last = np.empty(k)
    inf_column = np.full((k, 1), np.inf)
    acc = np.cumsum(cost[0], axis=1)  # first row: only the move (i, j-1)
    for i, c in enumerate(cost):
        if i:
            u = c + np.minimum(acc, np.concatenate((inf_column, acc[:, :-1]), axis=1))
            s = np.cumsum(c, axis=1)
            acc = s + np.minimum.accumulate(u - s, axis=1)
        ends = lengths == i + 1
        last[ends] = acc[ends, -1]
    return last / (lengths + m)
