"""Skew detection + rotation fix (ref: src/img2table/document/base/
rotation.py, after https://www.mdpi.com/2079-9292/9/1/55): CC centroid pair
angles -> Dixon Q test / projection evaluation -> warpAffine.

The affine warp replicates cv2's 5-bit fixed-point INTER_LINEAR pipeline
at the integer level (see warp_affine), closing the round-1 parity gap on
ROTATED documents; un-rotated documents take the no-op path regardless.
"""

from __future__ import annotations

import math

import numpy as np

from img2table_ray.imgops.ccl import connected_components_stats
from img2table_ray.imgops.kernels import rgb2gray

DIXON_Q_CONFIDENCE = {
    0.9: {3: 0.941, 4: 0.765, 5: 0.642, 6: 0.56, 7: 0.507, 8: 0.468, 9: 0.437, 10: 0.412},
    0.95: {3: 0.970, 4: 0.829, 5: 0.71, 6: 0.625, 7: 0.568, 8: 0.526, 9: 0.493, 10: 0.466},
    0.99: {3: 0.994, 4: 0.926, 5: 0.821, 6: 0.74, 7: 0.68, 8: 0.634, 9: 0.598, 10: 0.568},
}


def otsu_threshold_inv(gray: np.ndarray) -> np.ndarray:
    """cv2.threshold(gray, 0, 255, THRESH_BINARY_INV + THRESH_OTSU)."""
    hist = np.bincount(gray.ravel(), minlength=256).astype(np.float64)
    total = gray.size
    weight_bg = np.cumsum(hist)
    weight_fg = total - weight_bg
    cum_sum = np.cumsum(hist * np.arange(256))
    total_sum = cum_sum[-1]
    valid = (weight_bg > 0) & (weight_fg > 0)
    mean_bg = np.where(valid, cum_sum / np.maximum(weight_bg, 1), 0)
    mean_fg = np.where(valid, (total_sum - cum_sum) / np.maximum(weight_fg, 1), 0)
    between = weight_bg * weight_fg * (mean_bg - mean_fg) ** 2
    between[~valid] = -1
    t = int(np.argmax(between))
    return ((gray <= t) * 255).astype(np.uint8)


def get_connected_components(img_gray: np.ndarray):
    """(ref rotation.py:14-57)"""
    thresh = otsu_threshold_inv(img_gray)
    stats = connected_components_stats(thresh)

    stats = stats[stats[:, 4] > 5]
    median_width = np.median(stats[:, 2])
    median_height = np.median(stats[:, 3])
    upper = 4 * median_width * median_height
    lower = 0.25 * median_width * median_height
    area = stats[:, 2] * stats[:, 3]
    ar = stats[:, 2] / stats[:, 3]
    mask = (lower < area) & (area < upper) & (0.5 < ar) & (ar < 2)
    stats = stats[mask]
    cx = stats[:, 0] + stats[:, 2] / 2
    cy = stats[:, 1] + stats[:, 3] / 2
    return np.column_stack([cx, cy]), float(median_height), thresh


def compute_angles(centroids: np.ndarray, ref_height: float) -> list[float]:
    """(ref rotation.py:60-83) pairwise centroid angles, vectorized."""
    n = len(centroids)
    if n < 2:
        return []
    x = centroids[:, 0]
    y = centroids[:, 1]
    ii, jj = np.triu_indices(n, k=1)
    dx = x[ii] - x[jj]
    dy = y[ii] - y[jj]
    keep = (dx != 0) & (-10 * ref_height <= dy) & (dy <= 10 * ref_height)
    slope = np.round(dy[keep] / dx[keep], 3)
    angle = np.arctan(slope) * 180 / np.pi
    out_of_range = ~((-45 <= angle) & (angle <= 45))
    corrected = -np.minimum(angle + 90, 90 - angle) * np.sign(angle)
    angle = np.where(out_of_range, corrected, angle)
    return angle.tolist()


def get_relevant_angles(centroids: np.ndarray, ref_height: float, n_max: int = 5) -> list[float]:
    """(ref rotation.py:86-114): top-n most frequent pair angles (ties ->
    smallest |angle|), filtered to >= 25% of the max count."""
    if len(centroids) == 0:
        return [0]
    angles = compute_angles(centroids=centroids, ref_height=ref_height)
    if not angles:
        return [0]
    vals, counts = np.unique(np.array(angles), return_counts=True)
    order = np.lexsort((np.abs(vals), -counts))
    top = [(float(vals[i]), int(counts[i])) for i in order[:n_max]]
    if top:
        if top[0][0] == 0:
            return [0]
        max_len = max(c for _, c in top)
        return sorted({a for a, c in top if c >= 0.25 * max_len})
    return [0]


def angle_dixon_q_test(angles: list[float], confidence: float = 0.9) -> float:
    """(ref rotation.py:117-144)"""
    dict_q_crit = DIXON_Q_CONFIDENCE[confidence]
    while len(angles) >= 3:
        rng = angles[-1] - angles[0]
        diffs = [abs(nxt - prev) for prev, nxt in zip(angles, angles[1:])]
        idx_outlier = 0 if int(np.argmax(diffs)) == 0 else len(angles) - 1
        gap = max(diffs)
        q_exp = gap / rng if rng else 0
        if q_exp > dict_q_crit.get(len(angles), 1.0):
            angles.pop(idx_outlier)
        else:
            break
    return float(np.mean(angles))


def _rotation_matrix(center: tuple[float, float], angle: float) -> np.ndarray:
    """cv2.getRotationMatrix2D(center, angle, 1.0)."""
    a = math.radians(angle)
    alpha, beta = math.cos(a), math.sin(a)
    cx, cy = center
    return np.array([
        [alpha, beta, (1 - alpha) * cx - beta * cy],
        [-beta, alpha, beta * cx + (1 - alpha) * cy],
    ])


def warp_affine(img: np.ndarray, m: np.ndarray, out_wh: tuple[int, int],
                border_value=0) -> np.ndarray:
    """cv2.warpAffine with INTER_LINEAR + BORDER_CONSTANT, replicating the
    OpenCV 5-bit fixed-point pipeline at the integer level (imgwarp.cpp):

    * inverse map scaled by AB_SCALE=2^10 with cvRound (half-to-even) per
      row/column delta, + ROUND_DELTA = AB_SCALE/INTER_TAB_SIZE/2,
    * coordinates X >>= (AB_BITS-INTER_BITS); integer part X>>5, fraction
      X&31 (INTER_TAB_SIZE=32),
    * bilinear weights at 1/32 fractions scaled by 2^15 are EXACT integers
      ((32-fx)*(32-fy)*32 etc., summing to 32768 — cv2's short table holds
      exactly these, no rounding correction fires),
    * accumulate in int32, final (acc + 2^14) >> 15, saturate to uint8.
    """
    out_w, out_h = out_wh
    h, w = img.shape[:2]
    # cv2's exact in-place affine inversion (imgwarp.cpp warpAffine), not
    # np.linalg.inv — the double-precision op order must match so the
    # rounded fixed-point coordinates agree
    m = np.asarray(m, dtype=np.float64)
    D = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    D = 1.0 / D if D != 0 else 0.0
    a11 = m[1, 1] * D
    a22 = m[0, 0] * D
    a12 = -m[0, 1] * D
    a21 = -m[1, 0] * D
    b1 = -a11 * m[0, 2] - a12 * m[1, 2]
    b2 = -a21 * m[0, 2] - a22 * m[1, 2]
    inv = np.array([[a11, a12, b1], [a21, a22, b2]])

    AB_BITS, INTER_BITS = 10, 5
    AB_SCALE = 1 << AB_BITS
    TAB = 1 << INTER_BITS
    round_delta = AB_SCALE // TAB // 2

    xs = np.arange(out_w, dtype=np.float64)
    ys = np.arange(out_h, dtype=np.float64)
    adelta = np.rint(inv[0, 0] * xs * AB_SCALE).astype(np.int64)
    bdelta = np.rint(inv[1, 0] * xs * AB_SCALE).astype(np.int64)
    X0 = (np.rint((inv[0, 1] * ys + inv[0, 2]) * AB_SCALE).astype(np.int64)
          + round_delta)
    Y0 = (np.rint((inv[1, 1] * ys + inv[1, 2]) * AB_SCALE).astype(np.int64)
          + round_delta)

    X = (X0[:, None] + adelta[None, :]) >> (AB_BITS - INTER_BITS)
    Y = (Y0[:, None] + bdelta[None, :]) >> (AB_BITS - INTER_BITS)
    ix = X >> INTER_BITS
    iy = Y >> INTER_BITS
    fx = (X & (TAB - 1)).astype(np.int32)
    fy = (Y & (TAB - 1)).astype(np.int32)

    if np.isscalar(border_value):
        bval = np.array([border_value] * (img.shape[2] if img.ndim == 3 else 1),
                        dtype=np.uint8)
    else:
        bval = np.asarray(border_value, dtype=np.uint8)

    chans = img.reshape(h, w, -1)
    nc = chans.shape[2]

    def fetch(yy, xx):
        valid = (yy >= 0) & (yy < h) & (xx >= 0) & (xx < w)
        yc = np.clip(yy, 0, h - 1)
        xc = np.clip(xx, 0, w - 1)
        v = chans[yc, xc].astype(np.int32)  # (out_h, out_w, nc)
        v[~valid] = bval[:nc].astype(np.int32)
        return v

    w00 = ((TAB - fx) * (TAB - fy) * 32)[:, :, None]
    w01 = (fx * (TAB - fy) * 32)[:, :, None]
    w10 = ((TAB - fx) * fy * 32)[:, :, None]
    w11 = (fx * fy * 32)[:, :, None]
    acc = (w00 * fetch(iy, ix) + w01 * fetch(iy, ix + 1)
           + w10 * fetch(iy + 1, ix) + w11 * fetch(iy + 1, ix + 1))
    out = np.clip((acc + (1 << 14)) >> 15, 0, 255).astype(np.uint8)
    return out.reshape((out_h, out_w) if img.ndim == 2 else (out_h, out_w, nc))


def rotate_img(img: np.ndarray, angle: float) -> np.ndarray:
    """(ref rotation.py:147-156)"""
    center = tuple(np.array(img.shape[1::-1]) / 2)
    m = _rotation_matrix(center, angle)
    return warp_affine(img, m, img.shape[1::-1], border_value=0)


def evaluate_angle(img: np.ndarray, angle: float) -> int:
    """(ref rotation.py:159-171)"""
    rotated = rotate_img(img=img, angle=angle)
    proj = rotated.sum(axis=1, dtype=np.int64)
    return int(((proj[1:] - proj[:-1]) ** 2).sum())


def estimate_skew(angles: list[float], thresh: np.ndarray) -> float:
    """(ref rotation.py:174-200)"""
    if len(angles) == 1:
        return angles.pop()
    if angles[-1] - angles[0] <= 0.015:
        best_angle = angle_dixon_q_test(angles=angles)
    else:
        best_angle = None
        best_eval = 0
        for angle in sorted(angles, key=lambda a: abs(a)):
            ev = evaluate_angle(img=thresh, angle=angle)
            if ev > best_eval:
                best_angle = angle
                best_eval = ev
    return best_angle or 0


def rotate_img_with_border(img: np.ndarray, angle: float,
                           background_color=(255, 255, 255)) -> np.ndarray:
    """(ref rotation.py:203-230)"""
    height, width = img.shape[:2]
    center = (width // 2, height // 2)
    m = _rotation_matrix(center, angle)
    bound_w = int(height * abs(m[0, 1]) + width * abs(m[0, 0]))
    bound_h = int(height * abs(m[0, 0]) + width * abs(m[0, 1]))
    m[0, 2] += bound_w / 2 - center[0]
    m[1, 2] += bound_h / 2 - center[1]
    return warp_affine(img, m, (bound_w, bound_h), border_value=background_color[0])


def fix_rotation_image(img: np.ndarray) -> tuple[np.ndarray, bool]:
    """(ref rotation.py:233-256)"""
    gray = rgb2gray(img)
    cc_centroids, ref_height, thresh = get_connected_components(img_gray=gray)
    if len(cc_centroids) < 2:
        return img, False
    angles = get_relevant_angles(centroids=cc_centroids, ref_height=ref_height)
    skew_angle = estimate_skew(angles=angles, thresh=thresh)
    if abs(skew_angle) >= 0.25:
        return rotate_img_with_border(img=img, angle=skew_angle), True
    return img, False
