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


def dtw_distance(a, b) -> float:
    """Normalized DTW distance between two descriptor sequences.

    Classic dynamic program over the |a| x |b| grid with the moves
    (i-1, j), (i, j-1) and (i-1, j-1); the accumulated cost of the
    optimal monotone alignment is divided by (|a| + |b|) so scores are
    comparable across sequence lengths. Symmetric in its arguments.

    Each row of the cost matrix is one vectorized update: with
    u = c_i + min(D[i-1, j], D[i-1, j-1]) and S = cumsum(c_i), the row is
    D[i] = S + minimum.accumulate(u - S), the running minimum carrying
    the move (i, j-1).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] == 0 or b.shape[0] == 0:
        raise EmptySequence("both sequences need at least one sample")
    if a.shape[1] != b.shape[1]:
        raise ShapeMismatch(f"channel counts differ: {a.shape[1]} vs {b.shape[1]}")

    cost = cosine_cost_matrix(a, b)
    n, m = cost.shape
    acc = np.cumsum(cost[0])  # first row: only the move (i, j-1)
    for c in cost[1:]:
        u = c + np.minimum(acc, np.concatenate(([np.inf], acc[:-1])))
        s = np.cumsum(c)
        acc = s + np.minimum.accumulate(u - s)
    return float(acc[-1]) / (n + m)
