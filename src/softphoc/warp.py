"""Homography estimation and inverse-mapped bilinear sampling."""

import numpy as np

from .errors import DegenerateQuad


def homography(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """3x3 projective transform mapping 4 source points onto 4 targets.

    Direct linear transform with Hartley normalization for conditioning.
    Raises DegenerateQuad when the correspondence is rank-deficient
    (collinear points) and no consistent homography exists.
    """
    src = np.asarray(src, dtype=float).reshape(4, 2)
    dst = np.asarray(dst, dtype=float).reshape(4, 2)

    def normalizer(pts):
        center = pts.mean(axis=0)
        spread = np.abs(pts - center).mean()
        scale = 1.0 if spread < 1e-12 else 1.0 / spread
        t = np.array([[scale, 0.0, -scale * center[0]],
                      [0.0, scale, -scale * center[1]],
                      [0.0, 0.0, 1.0]])
        return t

    t_src, t_dst = normalizer(src), normalizer(dst)
    s = (t_src @ np.column_stack([src, np.ones(4)]).T).T[:, :2]
    d = (t_dst @ np.column_stack([dst, np.ones(4)]).T).T[:, :2]

    rows = []
    for (x, y), (u, v) in zip(s, d):
        rows.append([x, y, 1, 0, 0, 0, -u * x, -u * y, -u])
        rows.append([0, 0, 0, x, y, 1, -v * x, -v * y, -v])
    a = np.asarray(rows)
    _, _, vh = np.linalg.svd(a)
    h = vh[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ h @ t_src

    # A rank-deficient system still yields some null vector; validate by
    # reprojecting the correspondences.
    proj_x, proj_y, valid = apply_homography(h, src[:, 0], src[:, 1])
    if not valid.all():
        raise DegenerateQuad("homography sends a corner to infinity")
    scale = max(1.0, np.abs(dst).max())
    if np.max(np.hypot(proj_x - dst[:, 0], proj_y - dst[:, 1])) > 1e-6 * scale:
        raise DegenerateQuad("no exact homography for the given quad")
    return h


def apply_homography(h: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """Transform point arrays; returns (u, v, valid) with valid=False where
    the homogeneous coordinate vanishes."""
    w = h[2, 0] * xs + h[2, 1] * ys + h[2, 2]
    valid = np.abs(w) > 1e-12
    w_safe = np.where(valid, w, 1.0)
    u = (h[0, 0] * xs + h[0, 1] * ys + h[0, 2]) / w_safe
    v = (h[1, 0] * xs + h[1, 1] * ys + h[1, 2]) / w_safe
    return u, v, valid


def bilinear_sample(img: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sample a (H, W, C) image at float coordinates, edge-clamped.

    u indexes columns, v rows. Output shape is u.shape + (C,).
    """
    h, w = img.shape[:2]
    u = np.clip(np.asarray(u, dtype=float), 0.0, w - 1.0)
    v = np.clip(np.asarray(v, dtype=float), 0.0, h - 1.0)
    u0 = np.floor(u).astype(np.intp)
    v0 = np.floor(v).astype(np.intp)
    u1 = np.minimum(u0 + 1, w - 1)
    v1 = np.minimum(v0 + 1, h - 1)
    fu = (u - u0)[..., None]
    fv = (v - v0)[..., None]
    top = img[v0, u0] * (1.0 - fu) + img[v0, u1] * fu
    bottom = img[v1, u0] * (1.0 - fu) + img[v1, u1] * fu
    return top * (1.0 - fv) + bottom * fv
