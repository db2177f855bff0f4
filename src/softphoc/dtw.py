"""Dynamic time warping between channel-distribution sequences."""

import numpy as np

from .errors import EmptySequence, ShapeMismatch, check_memory

NORM_EPS = 1e-12


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
    the move (i, j-1). The K cosine cost matrices form one (rows, K, M)
    stack, M = |reference|, padded at the bottom with product 0 and norm
    1 (one matmul per sequence: a stacked one may sum in another order).
    The DP state of all rows is one (rows, K, M + 1) array behind an inf
    column, each row holding S until it holds D; sequence k's distance is
    read at its own last row. The 16 * rows * K * (M + 1) bytes alive at
    once are refused beyond physical memory (InvalidConfig) before any is
    allocated. Each result is bit-identical to its sequence run alone.
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
    rows, k, m = int(lengths.max()), len(samples), len(reference)
    check_memory(16.0 * rows * k * (m + 1),
                 f"a DTW batch of {k} sequences of up to {rows} samples against {m}")
    cost = np.zeros((rows, k, m))
    norms = np.ones((rows, k))
    for j, seq in enumerate(samples):
        cost[:len(seq), j] = seq @ reference.T
        norms[:len(seq), j] = np.linalg.norm(seq, axis=1)
    reference_norms = np.linalg.norm(reference, axis=1)
    cost /= np.maximum(norms, NORM_EPS)[..., None] * np.maximum(reference_norms, NORM_EPS)
    np.subtract(1.0, cost, out=cost)
    cost[norms < NORM_EPS] = 1.0
    cost[..., reference_norms < NORM_EPS] = 1.0
    np.maximum(cost, 0.0, out=cost)
    state = np.full((rows, k, m + 1), np.inf)
    np.cumsum(cost, axis=2, out=state[..., 1:])  # D[0]: only the move (i, j-1)
    u = cost[0]  # a free buffer: row 0 is only read through its sums
    for i in range(1, rows):
        np.minimum(state[i - 1, :, 1:], state[i - 1, :, :-1], out=u)
        u += cost[i]
        u -= state[i, :, 1:]
        np.minimum.accumulate(u, axis=1, out=u)
        state[i, :, 1:] += u
    return state[lengths - 1, np.arange(k), -1] / (lengths + m)
