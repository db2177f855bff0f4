"""Dynamic time warping between channel-distribution sequences."""

import numpy as np

from .errors import EmptySequence, ShapeMismatch, check_memory

NORM_EPS = 1e-12


def _batch(samples, reference):
    """Checked float64 (samples, reference): at least one 2-D sequence."""
    reference, *samples = (np.asarray(s, dtype=np.float64) for s in (reference, *samples))
    if not samples:
        raise EmptySequence("need at least one sequence to compare")
    for seq in (reference, *samples):
        if seq.ndim != 2:
            raise ShapeMismatch(f"a sequence of shape {seq.shape} is not (samples, channels)")
        if seq.shape[0] == 0:
            raise EmptySequence("both sequences need at least one sample")
        if seq.shape[1] != reference.shape[1]:
            raise ShapeMismatch(f"channel counts differ: {seq.shape[1]} vs "
                                f"{reference.shape[1]}")
    return samples, reference


def _unit_rows(a: np.ndarray) -> np.ndarray:
    """The rows of a scaled to norm 1, those of norm below NORM_EPS to 0."""
    norms = np.sqrt(np.einsum("ij,ij->i", a, a))
    unit = a / np.maximum(norms, NORM_EPS)[:, None]
    unit[norms < NORM_EPS] = 0.0
    return unit


def dtw_distance(a, b) -> float:
    """Normalized DTW distance between two descriptor sequences.

    Classic dynamic program over the |a| x |b| grid of cosine costs with
    the moves (i-1, j), (i, j-1) and (i-1, j-1); the accumulated cost of
    the optimal monotone alignment is divided by (|a| + |b|) so scores
    are comparable across sequence lengths. Symmetric in its arguments.
    Each row is one vectorized update: with u = c_i + min(D[i-1, j],
    D[i-1, j-1]) and S = cumsum(c_i), D[i] = S + minimum.accumulate(u - S),
    the running minimum carrying the move (i, j-1). The 16 * |a| *
    (|b| + 1) bytes of costs and state are refused beyond physical memory
    (InvalidConfig) before any is allocated.
    """
    (a,), b = _batch([a], b)
    n, m = len(a), len(b)
    check_memory(16.0 * n * (m + 1), f"DTW of {n} samples against {m}")
    cost = a @ b.T
    norms, reference_norms = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    cost /= np.maximum(norms, NORM_EPS)[:, None] * np.maximum(reference_norms, NORM_EPS)
    np.subtract(1.0, cost, out=cost)
    cost[norms < NORM_EPS] = 1.0
    cost[:, reference_norms < NORM_EPS] = 1.0
    np.maximum(cost, 0.0, out=cost)
    state = np.full((n, m + 1), np.inf)
    dp = state[:, 1:]
    np.cumsum(cost, axis=1, out=dp)  # D[0]: only the move (i, j-1)
    u = cost[0]  # a free buffer: row 0 is only read through its sums
    for c, up, diagonal, row in zip(cost[1:], dp, state[:-1, :-1], dp[1:]):
        np.minimum(up, diagonal, out=u)
        u += c
        u -= row
        np.minimum.accumulate(u, out=u)
        row += u
    return float(state[-1, -1] / (n + m))


def dtw_lower_bounds(samples, reference) -> np.ndarray:
    """A lower bound on dtw_distance(s, reference) for every s in samples,
    to skip the DP on sequences that cannot rank first.

    Every alignment path visits each row and each column of the cost
    matrix, so its cost is at least the larger of the sums of the row
    minima and of the column minima, read off the (|reference|, N) cosine
    similarities of all N samples (0 at norm below NORM_EPS: cost 1, as
    in the DP). They round apart from the DP's, so the bound holds up to
    far less than 1e-9 while no dot product overflows. Their 8 *
    |reference| * N bytes are refused beyond physical memory.
    """
    samples, reference = _batch(samples, reference)
    lengths = np.array([len(seq) for seq in samples])
    stacked = np.concatenate(samples)
    check_memory(8.0 * len(stacked) * len(reference), f"DTW bounds of {len(samples)} "
                 f"sequences of {len(stacked)} samples against {len(reference)}")
    unit, reference = _unit_rows(stacked), _unit_rows(reference)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    # One matmul per sequence, as in the DP: one over all samples is large
    # enough for OpenBLAS to start threads; smaller products wake them less.
    similarity = np.empty((len(reference), len(stacked)))
    for start, stop in zip(starts.tolist(), ends.tolist()):
        np.matmul(reference, unit[start:stop].T, out=similarity[:, start:stop])
    rows = np.add.reduceat(np.maximum(1.0 - similarity.max(axis=0), 0.0), starts)
    columns = np.maximum(1.0 - np.maximum.reduceat(similarity, starts, axis=1), 0.0)
    return np.maximum(rows, columns.sum(axis=0)) / (lengths + len(reference))
