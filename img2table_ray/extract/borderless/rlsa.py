"""Text-mask identification via adaptive RLSA (ref: src/img2table/tables/
processing/borderless_tables/layout/rlsa.py, after Nikolaou et al. 2010
"Segmentation of historical machine-printed documents using Adaptive Run
Length Smoothing" — public algorithm).  The reference's numba kernels
become whole-image numpy: ``adaptive_rlsa`` takes every consecutive
same-row pixel pair of the label image at once (one gather for the band
check, one scatter for the fills), and ``find_obstacles`` finds every
column's empty runs from the steps of one flat transposed mask.  Their
loop forms are kept as oracles in tests/test_vectorized_kernels.py.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from img2table_ray.core.objects import Line, Table
from img2table_ray.imgops.ccl import (
    connected_components_stats,
    connected_components_with_stats,
)
from img2table_ray.imgops.kernels import _slide_extreme_axis, dilate, erode


def remove_noise(cc: np.ndarray, cc_stats: np.ndarray, average_height: float,
                 median_width: float) -> np.ndarray:
    """(ref rlsa.py:17-51) zero out noisy CC labels in-place: a CC that is
    not a dash and is short, flat or sparse.  The tests run over the stats
    array; only the noisy labels are cleared, each in its box."""
    s = cc_stats[1:].astype(np.int64)
    x, y, w, h, area = (s[:, k] for k in range(5))
    is_dash = (w / h >= 2) & (0.5 * median_width <= w) & (w <= 1.5 * median_width)
    noisy = ~is_dash & (
        (h < average_height / 3)
        | (np.maximum(h, w) / np.maximum(np.minimum(h, w), 1) < 0.33)
        | (area / (np.maximum(w, 1) * np.maximum(h, 1)) < 0.08))
    for label, (x0, y0, w0, h0) in zip(np.flatnonzero(noisy).tolist(),
                                       s[noisy, :4].tolist()):
        sub = cc[y0 : y0 + h0, x0 : x0 + w0]
        sub[sub == label + 1] = 0
    return cc


def adaptive_rlsa(cc: np.ndarray, cc_stats: np.ndarray, a: float, th: float,
                  c: float) -> np.ndarray:
    """(ref rlsa.py:54-118) run-length smoothing between horizontally
    adjacent CCs subject to distance / height-ratio / overlap / no-other-CC
    conditions, over all consecutive same-row pixel pairs at once."""
    rsla_img = (cc > 0).astype(np.uint8)
    h, w = cc.shape
    y1s = cc_stats[:, 1]
    hs = cc_stats[:, 3]

    # consecutive nonzero pixels of one row, as row-major flat indices;
    # pairs with an obstacle pixel (-1) never fill — the reference skips
    # them before the same-label branch (rlsa.py:80-82)
    flat = cc.reshape(-1)
    idx = np.flatnonzero(flat)
    labs = flat[idx]
    pair = np.flatnonzero((labs[:-1] != -1) & (labs[1:] != -1))
    row = idx[pair + 1] // w
    keep = idx[pair] // w == row
    pair, row = pair[keep], row[keep]
    start, stop = idx[pair], idx[pair + 1]
    prev_labs, cur_labs = labs[pair], labs[pair + 1]

    # same-label pairs (gap inside one CC, e.g. hollow glyphs) always fill;
    # the others are candidates
    fill = prev_labs == cur_labs
    cand = np.flatnonzero(~fill)
    pl = prev_labs[cand].astype(np.int64)
    cl = cur_labs[cand].astype(np.int64)
    p = start[cand] - row[cand] * w
    length = stop[cand] - start[cand] - 1
    hc, hp = hs[cl], hs[pl]
    height_ratio = np.maximum(hc, hp) / np.maximum(np.minimum(hc, hp), 1)
    h_overlap = np.minimum(y1s[cl] + hc, y1s[pl] + hp) - np.maximum(y1s[cl], y1s[pl])
    ok = np.flatnonzero(
        (length <= a * np.minimum(hc, hp))
        & (height_ratio <= th)
        & (h_overlap >= c * np.minimum(hc, hp))
    )

    # no-other-CC check in the +-2 row band between the two CCs: one gather
    # of cc[row-2:row+3, p+1:q] for every gap (rows clipped to the image,
    # which only repeats rows already in the band)
    gap = length[ok]
    owner = np.repeat(np.arange(len(ok)), gap)
    cols = np.repeat(p[ok] + 1 - (np.cumsum(gap) - gap), gap) + np.arange(len(owner))
    rows = np.clip(row[cand[ok]][owner, None] + np.arange(-2, 3), 0, h - 1)
    vals = cc[rows, cols[:, None]]
    other = ((vals > 0) & (vals != cl[ok][owner, None])
             & (vals != pl[ok][owner, None])).any(axis=1)
    clear = np.ones(len(ok), dtype=bool)
    clear[owner[other]] = False
    fill[cand[ok[clear]]] = True

    # fill [p, q) of every filling pair as one index scatter
    start, n = start[fill], stop[fill] - start[fill]
    at = np.repeat(start - (np.cumsum(n) - n), n) + np.arange(int(n.sum()))
    rsla_img.reshape(-1)[at] = 1
    return rsla_img


def find_obstacles(img: np.ndarray, min_width: float) -> np.ndarray:
    """(ref rlsa.py:121-159) vertical empty corridors of width >= min_width
    and height > h/5."""
    min_width = int(np.ceil(min_width))
    h, w = img.shape
    if w <= min_width:
        return np.zeros(img.shape, dtype=bool)
    # windowed any over [col, col+min_width) for cols 0..w-min_width-1, one
    # row per image column so that its runs lie along the fast axis; rows
    # -1 and h count as set (the reference's leading gap, and its trailing
    # gap up to the last loop row h-1), as do columns w-min_width..w-1
    on = (img > 0).astype(np.uint8)
    has = np.ones((w, h + 2), dtype=np.int8)
    has[: w - min_width, 1:-1] = _slide_extreme_axis(
        on, min_width, 0, axis=1, is_max=True)[:, : w - min_width].T

    # empty runs [start, stop): each follows a 1 -> 0 step and ends at a
    # 0 -> 1 step; those longer than h/5 are gaps
    step = np.flatnonzero(np.diff(has.reshape(-1)))
    start, stop = step[0::2] + 1, step[1::2] + 1
    long = stop - start > h / 5
    edge = np.zeros(has.size, dtype=np.int8)
    edge[start[long]] = 1
    edge[stop[long]] = -1
    gaps = np.cumsum(edge, dtype=np.int8).view(np.uint8).reshape(w, h + 2)[:, 1:-1]
    # each gap column marks itself and the min_width - 1 columns after it
    gaps = _slide_extreme_axis(gaps, min_width, min_width - 1, axis=0, is_max=True)
    return np.ascontiguousarray(gaps.T).view(bool)


def get_text_mask(thresh: np.ndarray, cc_stats_rlsa: np.ndarray, char_length: float,
                  median_width: float) -> np.ndarray:
    """(ref rlsa.py:162-236) transition-count text/non-text classification."""
    text_mask = np.zeros(thresh.shape, dtype=bool)

    heights = cc_stats_rlsa[1:, 3].astype(np.float64)
    areas = cc_stats_rlsa[1:, 4].astype(np.float64)
    denum = areas.sum()
    Hm = float((heights * areas).sum() / max(denum, 1))

    on = thresh == 255
    for idx in range(len(cc_stats_rlsa)):
        x, y, w, h, area = (int(v) for v in cc_stats_rlsa[idx])
        if (w / h >= 2) and (0.5 * median_width <= w <= 1.5 * median_width):
            text_mask[y : y + h, x : x + w] = True
            continue
        if idx == 0 or min(w, h) <= 2 * char_length / 3:
            continue

        sub = on[y : y + h, x : x + w]
        # horizontal white->black transitions (thresh==255 counts as "black")
        h_tc = int(sub[:, 0].sum()) + int((sub[:, 1:] & ~sub[:, :-1]).sum())
        # vertical transitions + columns containing pixels
        v_tc = int(sub[0, :].sum()) + int((sub[1:, :] & ~sub[:-1, :]).sum())
        nb_cols = int(sub.any(axis=0).sum())

        H = h
        R = w / max(h, 1)
        THx = h_tc / max(nb_cols, 1)
        TVx = v_tc / max(nb_cols, 1)
        THy = h_tc / max(h, 1)

        is_text = False
        if (0.8 * Hm <= H <= 1.2 * Hm) or (0.8 * Hm > H and 1.2 < THx < 3.5):
            is_text = True
        elif (THx < 0.2 and R > 5 and 0.95 < TVx < 1.05) or (THx > 5 and R < 0.2 and 0.95 < THy < 1.05):
            is_text = False
        elif 1.2 * Hm < H and 1.2 < THx < 3.5 and 1.2 < TVx < 3.5:
            is_text = True
        if is_text:
            text_mask[y : y + h, x : x + w] = True
    return text_mask


def identify_text_mask(thresh: np.ndarray, lines: list[Line], char_length: float,
                       existing_tables: Optional[list[Table]] = None) -> np.ndarray:
    """(ref rlsa.py:239-305)"""
    # mask detected ruling lines (cv2.rectangle filled -> slice assignment;
    # cv2 rectangle coordinates are INCLUSIVE of the end point)
    for line in lines:
        if line.horizontal and line.length >= 3 * char_length:
            thresh[max(0, line.y1 - line.thickness // 2 - 1) : line.y2 + line.thickness // 2 + 2,
                   line.x1 : line.x2 + 1] = 0
        elif line.vertical and line.length >= 2 * char_length:
            thresh[line.y1 : line.y2 + 1,
                   max(0, line.x1 - line.thickness // 2 - 1) : line.x2 + line.thickness // 2 + 2] = 0

    thresh = dilate(thresh, 2, 1)

    n, cc, cc_stats = connected_components_with_stats(thresh)
    if len(cc_stats) <= 1:
        return thresh

    average_height = float(np.mean(cc_stats[1:, 3]))
    median_width = float(np.median(cc_stats[1:, 2]))
    cc_denoised = remove_noise(cc=cc, cc_stats=cc_stats, average_height=average_height,
                               median_width=median_width)

    rlsa_small = adaptive_rlsa(cc=cc_denoised, cc_stats=cc_stats, a=1, th=3.5, c=0.4)
    rlsa_small = erode((255 * (rlsa_small > 0)).astype(np.uint8), 1, 2)

    mask_obstacles = find_obstacles(img=np.maximum(rlsa_small, thresh), min_width=char_length)
    cc_obstacles = cc_denoised.copy()
    cc_obstacles[mask_obstacles] = -1

    rlsa_image = adaptive_rlsa(cc=cc_obstacles, cc_stats=cc_stats, a=5, th=3.5, c=0.4)

    cc_stats_rlsa = connected_components_stats(rlsa_image)

    text_mask = get_text_mask(thresh=thresh, cc_stats_rlsa=cc_stats_rlsa,
                              char_length=char_length, median_width=median_width)

    cc_final = cc_obstacles.copy()
    cc_final[~text_mask] = -1
    rlsa_final = adaptive_rlsa(cc=cc_final, cc_stats=cc_stats, a=1.25, th=3.5, c=0.4)

    for tb in existing_tables or []:
        rlsa_final[tb.y1 : tb.y2, tb.x1 : tb.x2] = 0

    return erode((255 * rlsa_final).astype(np.uint8), 1, 2)
