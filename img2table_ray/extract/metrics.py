"""Image metrics: character length, median line separation, text contours
(ref: src/img2table/tables/metrics.py, numba kernels -> numpy/Python).

The reference's quirks are reproduced deliberately — they are observable in
its golden outputs:
* get_row_separations computes the 'horizontal' overlap with the cells'
  HEIGHTS (metrics.py:349: min(xi+hi, xj+hj) - max(xi, xj)) — kept as-is.
* compute_median_line_sep drops the first recomputed contour (metrics.py:395
  builds cells with `if idx > 0` over an array that already excludes the
  background) — kept as-is.
* create_character_thresh starts the discarded-CC scan at index 1 and may
  append the same discarded CC once per adjacent kept CC — kept as-is.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from img2table_ray.core.objects import Cell
from img2table_ray.imgops.ccl import (
    connected_components_stats,
    connected_components_with_stats,
)
from img2table_ray.imgops.kernels import morph_close


def remove_dots(cc_labels: np.ndarray, stats: np.ndarray) -> np.ndarray:
    """Drop round hollow CCs (roundness >= 0.7, inner pixels <= 10%)
    (ref metrics.py:11-53).  Only CCs passing the roundness pre-check need
    the expensive inner-pixel count."""
    kept = []
    for idx in range(1, len(stats)):
        x, y, w, h, area = (int(v) for v in stats[idx])
        roundness = 4 * area / (np.pi * max(h, w) ** 2)
        if roundness < 0.7:
            kept.append([x, y, w, h, area])
            continue
        sub = cc_labels[y : y + h, x : x + w] == idx
        # inner pixels: gaps between first/last pixel per row + per column
        inner = 0
        rows_any = sub.any(axis=1)
        if rows_any.any():
            first = sub.argmax(axis=1)
            last = w - 1 - sub[:, ::-1].argmax(axis=1)
            cnt = sub.sum(axis=1)
            inner += int(((last - first + 1 - cnt) * rows_any).sum())
        cols_any = sub.any(axis=0)
        if cols_any.any():
            firstc = sub.argmax(axis=0)
            lastc = h - 1 - sub[::-1, :].argmax(axis=0)
            cntc = sub.sum(axis=0)
            inner += int(((lastc - firstc + 1 - cntc) * cols_any).sum())
        if not (inner / (2 * area) <= 0.1 and roundness >= 0.7):
            kept.append([x, y, w, h, area])
    return np.array(kept, dtype=np.int32) if kept else np.empty((0, 5), dtype=np.int32)


def remove_dotted_lines(complete_stats: np.ndarray) -> np.ndarray:
    """Collapse >=5 aligned elongated CCs into line areas; drop CCs >=25%
    inside those areas (ref metrics.py:56-146)."""
    line_areas = []

    cs = complete_stats[complete_stats[:, 6].argsort(kind="stable")]
    x1a, y1a, x2a, y2a, width_a, prev_ym, count = 0, 0, 0, 0, 0, -10, 0
    for idx in range(cs.shape[0]):
        x, y, w, h, _, xm, ym = cs[idx]
        if w / h < 2:
            continue
        if ym - prev_ym <= 2:
            x1a, y1a, x2a, y2a = min(x, x1a), min(y, y1a), max(x + w, x2a), max(y + h, y2a)
            width_a += w
            count += 1
            prev_ym = ym
        else:
            if count >= 5 and width_a / ((x2a - x1a) or 1) >= 0.66:
                line_areas.append([float(x1a), float(y1a), float(x2a), float(y2a)])
            x1a, y1a, x2a, y2a = x, y, x + w, y + h
            width_a, prev_ym, count = w, ym, 1
    if count >= 5 and width_a / ((x2a - x1a) or 1) >= 0.66:
        line_areas.append([float(x1a), float(y1a), float(x2a), float(y2a)])

    cs = complete_stats[complete_stats[:, 5].argsort(kind="stable")]
    x1a, y1a, x2a, y2a, height_a, prev_xm, count = 0, 0, 0, 0, 0, -10, 0
    for idx in range(cs.shape[0]):
        x, y, w, h, _, xm, ym = cs[idx]
        if h / w < 2:
            continue
        if xm - prev_xm <= 2:
            x1a, y1a, x2a, y2a = min(x, x1a), min(y, y1a), max(x + w, x2a), max(y + h, y2a)
            height_a += h
            count += 1
            prev_xm = xm
        else:
            if count >= 5 and height_a / ((y2a - y1a) or 1) >= 0.66:
                line_areas.append([float(x1a), float(y1a), float(x2a), float(y2a)])
            x1a, y1a, x2a, y2a = x, y, x + w, y + h
            height_a, prev_xm, count = h, xm, 1
    if count >= 5 and height_a / ((y2a - y1a) or 1) >= 0.66:
        line_areas.append([float(x1a), float(y1a), float(x2a), float(y2a)])

    if not line_areas:
        return complete_stats[:, :5].astype(np.int32)

    areas = np.array(line_areas)  # (m, 4)
    x = complete_stats[:, 0]
    y = complete_stats[:, 1]
    w = complete_stats[:, 2]
    h = complete_stats[:, 3]
    x_ov = np.maximum(
        0, np.minimum(areas[None, :, 2], (x + w)[:, None]) - np.maximum(areas[None, :, 0], x[:, None])
    )
    y_ov = np.maximum(
        0, np.minimum(areas[None, :, 3], (y + h)[:, None]) - np.maximum(areas[None, :, 1], y[:, None])
    )
    inter = (x_ov * y_ov).sum(axis=1)
    keep = inter / (w * h) < 0.25
    kept = complete_stats[keep][:, :5]
    return kept.astype(np.int32) if len(kept) else np.empty((0, 5), dtype=np.int32)


def filter_cc(stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep character-like CCs (ref metrics.py:149-202)."""
    if stats.shape[0] == 0:
        return np.empty((0, 5), dtype=np.int32), np.empty((0, 5), dtype=np.int32)
    w = stats[:, 2].astype(np.float64)
    h = stats[:, 3].astype(np.float64)
    area = stats[:, 4].astype(np.float64)
    ar = np.maximum(w, h) / np.minimum(w, h)
    fill = area / (w * h)
    first_keep = (ar <= 5) & (fill > 0.08)
    kept_stats = stats[first_keep]
    discarded = [list(map(int, r)) for r in stats[~first_keep]]

    if len(kept_stats) == 0:
        return (np.empty((0, 5), dtype=np.int32),
                np.array(discarded, dtype=np.int32) if discarded else np.empty((0, 5), dtype=np.int32))

    median_w = np.median(kept_stats[:, 2])
    median_h = np.median(kept_stats[:, 3])
    upper = 5 * median_w * median_h
    lower = 0.2 * median_w * median_h

    kw = kept_stats[:, 2].astype(np.float64)
    kh = kept_stats[:, 3].astype(np.float64)
    bounded = (lower <= kw * kh) & (kw * kh <= upper)
    is_dash = (kw / kh >= 2) & (0.5 * median_w <= kw) & (kw <= 1.5 * median_w)
    final_keep = bounded | is_dash

    kept = kept_stats[final_keep]
    # preserve reference's discard order: first-pass discards, then second-pass
    discarded += [list(map(int, r)) for r in kept_stats[~final_keep]]
    kept_arr = kept.astype(np.int32) if len(kept) else np.empty((0, 5), dtype=np.int32)
    disc_arr = (np.array(discarded, dtype=np.int32) if discarded
                else np.empty((0, 5), dtype=np.int32))
    return kept_arr, disc_arr


def create_character_thresh(thresh: np.ndarray, stats: np.ndarray,
                            discarded_stats: np.ndarray, char_length: float):
    """Characters-only threshold image + adopted discarded CCs
    (ref metrics.py:205-248, quirks preserved)."""
    character_thresh = np.zeros_like(thresh)
    n_keep = len(stats)
    if n_keep == 0:
        return character_thresh, np.empty((0, 5), dtype=np.int32)

    # pairwise adoption test, vectorized over (kept x discarded[1:]) —
    # the reference's nested loop (its jdx-from-1 quirk preserved) was
    # O(K*D) Python; identical conditions broadcast below.  A discarded
    # CC adopted by several kept chars is appended once PER adopter,
    # exactly as the loop did.
    ks = stats.astype(np.int64)
    ds = discarded_stats[1:].astype(np.int64)
    if len(ds):
        x, y, w, h = (ks[:, None, k] for k in range(4))
        cx, cy, cw, ch = (ds[None, :, k] for k in range(4))
        y_overlap = np.minimum(cy + ch, y + h) - np.maximum(cy, y)
        ok = y_overlap >= 0.5 * np.minimum(ch, h)
        ok &= np.maximum(ch, cw) <= 3 * np.maximum(h, w)
        ok &= y_overlap > 0
        distance = np.minimum(
            np.minimum(np.abs(cx - x), np.abs(cx - x - w)),
            np.minimum(np.abs(cx + cw - x), np.abs(cx + cw - x - w)),
        )
        ok &= distance <= char_length
        ki, dj = np.nonzero(ok)  # row-major: kept order, then discarded order
    else:
        ki = dj = np.empty(0, dtype=np.int64)

    # interleave to the loop's append order: kept[i] first, then its
    # adoptions — stable sort on (adopter index, kept-before-adopted)
    rows = np.concatenate([stats.astype(np.int32),
                           discarded_stats[1:][dj].astype(np.int32)])
    key1 = np.concatenate([np.arange(n_keep), ki])
    key2 = np.concatenate([np.full(n_keep, -1, dtype=np.int64), dj])
    order = np.lexsort((key2, key1))
    chars_arr = rows[order]

    # region copies are idempotent (all from the same thresh): copy each
    # adopted rect once, kept rects always
    for xx, yy, ww, hh, _ in stats:
        character_thresh[yy : yy + hh, xx : xx + ww] = thresh[yy : yy + hh, xx : xx + ww]
    for j in np.unique(dj):
        cx0, cy0, cw0, ch0, _ = (int(v) for v in discarded_stats[1 + j])
        character_thresh[cy0 : cy0 + ch0, cx0 : cx0 + cw0] = \
            thresh[cy0 : cy0 + ch0, cx0 : cx0 + cw0]
    return character_thresh, chars_arr


def compute_char_length(thresh: np.ndarray):
    """(ref metrics.py:251-293)"""
    _, cc_labels, stats = connected_components_with_stats(thresh)

    stats = remove_dots(cc_labels=cc_labels, stats=stats)
    stats = stats[stats[:, 4] > 10] if len(stats) else stats
    if len(stats) == 0:
        return None, None, None

    complete_stats = np.c_[
        stats, (2 * stats[:, 0] + stats[:, 2]) / 2, (2 * stats[:, 1] + stats[:, 3]) / 2
    ]
    stats = remove_dotted_lines(complete_stats=complete_stats)
    if len(stats) == 0:
        return None, None, None

    relevant, discarded = filter_cc(stats=stats)
    if len(relevant) == 0:
        return None, None, None

    argmax_char_length = float(np.argmax(np.bincount(relevant[:, 2])))
    mean_char_length = np.mean(relevant[:, 2])
    char_length = mean_char_length if 1.5 * argmax_char_length <= mean_char_length else argmax_char_length

    characters_thresh, chars_array = create_character_thresh(
        thresh=thresh, stats=relevant, discarded_stats=discarded, char_length=char_length
    )
    return char_length, characters_thresh, chars_array


def recompute_contours(stats: np.ndarray, chars_array: np.ndarray) -> np.ndarray:
    """Snap word-blob contours to the characters they contain
    (ref metrics.py:296-327), vectorized over characters."""
    if chars_array.shape[0] == 0:
        return np.empty((0, 4), dtype=np.int64)
    cx = chars_array[:, 0].astype(np.int64)
    cy = chars_array[:, 1].astype(np.int64)
    cw = chars_array[:, 2].astype(np.int64)
    ch = chars_array[:, 3].astype(np.int64)
    out = []
    for idx in range(stats.shape[0]):
        if idx == 0:
            continue
        x, y, w, h = (int(v) for v in stats[idx][:4])
        x_ov = np.maximum(0, np.minimum(x + w, cx + cw) - np.maximum(x, cx))
        y_ov = np.maximum(0, np.minimum(y + h, cy + ch) - np.maximum(y, cy))
        match = x_ov * y_ov >= 0.5 * ch * cw
        if match.any():
            out.append([int(cx[match].min()), int(cy[match].min()),
                        int((cx + cw)[match].max() - cx[match].min()),
                        int((cy + ch)[match].max() - cy[match].min())])
    return np.array(out, dtype=np.int64) if out else np.empty((0, 4), dtype=np.int64)


def get_row_separations(stats: np.ndarray, char_length: float) -> list[float]:
    """Nearest-below vertical separations (ref metrics.py:330-363 —
    including its height-for-width overlap quirk)."""
    seps = []
    n = len(stats)
    xs = stats[:, 0]
    ys = stats[:, 1]
    ws = stats[:, 2]
    hs = stats[:, 3]
    vpos = (2 * ys + hs) / 2
    for i in range(n):
        xi, yi, wi, hi = xs[i], ys[i], ws[i], hs[i]
        # quirk preserved: overlap computed with heights, ref metrics.py:349
        h_overlap = np.minimum(xi + hi, xs + hs) - np.maximum(xi, xs)
        mask = (h_overlap > char_length // 2) & (vpos > vpos[i])
        mask[i] = False
        if mask.any():
            seps.append(float((vpos[mask] - vpos[i]).min()))
    return seps


def compute_median_line_sep(thresh_chars: np.ndarray, chars_array: np.ndarray,
                            char_length: float):
    """(ref metrics.py:366-401)"""
    kw = int(char_length // 2 + 1)
    kh = int(char_length // 3 + 1)
    closed = morph_close(thresh_chars, kw, kh)

    stats = connected_components_stats(closed)
    stats_contours = recompute_contours(stats=stats, chars_array=chars_array)

    row_separations = get_row_separations(stats=stats_contours, char_length=char_length)

    if row_separations:
        # mode of odd-binned separations: sep -> 2*floor(sep/2)+1, most
        # frequent, ties -> smallest (ref metrics.py:388-392 polars sort)
        binned = (2 * (np.floor(np.array(row_separations) / 2)) + 1).astype(np.int64)
        vals, counts = np.unique(binned, return_counts=True)
        order = np.lexsort((vals, -counts))
        median_line_sep = float(vals[order[0]])
    else:
        median_line_sep = None

    contours_cells = [
        Cell(x1=int(x), y1=int(y), x2=int(x + w), y2=int(y + h))
        for idx, (x, y, w, h) in enumerate(stats_contours)
        if idx > 0  # quirk preserved: first contour dropped (ref metrics.py:395-397)
    ]
    return median_line_sep, contours_cells


def compute_img_metrics(thresh: np.ndarray):
    """(ref metrics.py:404-421)"""
    char_length, thresh_chars, chars_array = compute_char_length(thresh=thresh)
    if char_length is None:
        return None, None, None
    median_line_sep, contours = compute_median_line_sep(
        thresh_chars=thresh_chars, chars_array=chars_array, char_length=char_length
    )
    return char_length, median_line_sep, contours
