"""Image metrics: character length, median line separation, text contours
(ref: src/img2table/tables/metrics.py, numba kernels -> numpy).

The reference's per-component kernels are array passes here, with no
Python loop over components:
* remove_dots tests roundness over the stats array and counts inner
  pixels only for the round CCs;
* remove_dotted_lines splits each of its two sorted scans into runs where
  the midpoint step is > 2 and takes each run's box, summed extent and
  count with ``reduceat``;
* recompute_contours is one (CC x character) overlap broadcast and
  get_row_separations one (contour x contour) broadcast, each in row
  blocks of at most BLOCK_PAIRS pairs, with a masked min/max per row.
Their loop forms are oracles in tests/test_page_metrics.py, and
tests/test_metrics_pins.py pins compute_img_metrics on whole pages.

The reference's quirks are reproduced deliberately — they are observable in
its golden outputs:
* get_row_separations computes the 'horizontal' overlap with the cells'
  HEIGHTS (metrics.py:349: min(xi+hi, xj+hj) - max(xi, xj)), bounded by
  ``char_length // 2``, and measures float vpos steps — kept as-is.
* compute_median_line_sep drops the first recomputed contour (metrics.py:395
  builds cells with `if idx > 0` over an array that already excludes the
  background) — kept as-is.
* create_character_thresh starts the discarded-CC scan at index 1 and may
  append the same discarded CC once per adjacent kept CC — kept as-is.
"""

from __future__ import annotations

import numpy as np

from img2table_ray.core.common import row_blocks
from img2table_ray.core.objects import Cell
from img2table_ray.imgops.ccl import (
    connected_components_stats,
    connected_components_with_stats,
)
from img2table_ray.imgops.kernels import morph_close

# pairs per block of the (CC x character) and (contour x contour)
# broadcasts: each int64 temporary stays near 2 MB however large the page
BLOCK_PAIRS = 1 << 18
_BIG = np.iinfo(np.int64).max


def remove_dots(cc_labels: np.ndarray, stats: np.ndarray) -> np.ndarray:
    """Drop round hollow CCs (roundness >= 0.7, inner pixels <= 10%)
    (ref metrics.py:11-53).  Roundness is tested over the stats array; only
    the round CCs need the expensive inner-pixel count."""
    s = stats[1:].astype(np.int64)
    area = s[:, 4]
    roundness = 4 * area / (np.pi * np.maximum(s[:, 2], s[:, 3]) ** 2)
    keep = roundness < 0.7
    for i in np.flatnonzero(~keep).tolist():
        x, y, w, h, a = s[i].tolist()
        sub = cc_labels[y : y + h, x : x + w] == i + 1
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
        keep[i] = not inner / (2 * a) <= 0.1
    return stats[1:][keep].astype(np.int32)


def _dotted_runs(complete_stats: np.ndarray, along: int) -> np.ndarray:
    """Line areas [x1, y1, x2, y2] of one dotted-line scan: ``along`` 0
    takes the CCs with w/h >= 2 sorted by ym, 1 those with h/w >= 2 sorted
    by xm.  A step of the sorted midpoints > 2 starts a run, and so does
    the first CC (the reference starts from a midpoint of -10 and CC
    midpoints are >= 0.5); a run of >= 5 CCs whose summed extent along the
    scan covers >= 66% of its box is a line area."""
    cs = complete_stats[complete_stats[:, 6 - along].argsort(kind="stable")]
    ext, other = cs[:, 2 + along], cs[:, 3 - along]
    cs = cs[~(ext / other < 2)]
    if not len(cs):
        return np.empty((0, 4))
    x, y, w, h = (cs[:, k] for k in range(4))
    starts = np.concatenate(([0], np.flatnonzero(np.diff(cs[:, 6 - along]) > 2) + 1))
    count = np.diff(starts, append=len(cs))
    box = np.stack([np.minimum.reduceat(x, starts), np.minimum.reduceat(y, starts),
                    np.maximum.reduceat(x + w, starts),
                    np.maximum.reduceat(y + h, starts)], axis=1)
    extent = np.add.reduceat(cs[:, 2 + along], starts)
    span = box[:, 2 + along] - box[:, along]
    return box[(count >= 5) & (extent / np.where(span == 0, 1, span) >= 0.66)]


def remove_dotted_lines(complete_stats: np.ndarray) -> np.ndarray:
    """Collapse >=5 aligned elongated CCs into line areas; drop CCs >=25%
    inside those areas (ref metrics.py:56-146)."""
    areas = np.concatenate([_dotted_runs(complete_stats, along=0),
                            _dotted_runs(complete_stats, along=1)])
    if not len(areas):
        return complete_stats[:, :5].astype(np.int32)

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
    return complete_stats[keep, :5].astype(np.int32)


def filter_cc(stats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep character-like CCs (ref metrics.py:149-202).  Returns (kept,
    discarded): the first pass's discards, then the second pass's."""
    w = stats[:, 2].astype(np.float64)
    h = stats[:, 3].astype(np.float64)
    area = stats[:, 4].astype(np.float64)
    first_keep = (np.maximum(w, h) / np.minimum(w, h) <= 5) & (area / (w * h) > 0.08)
    kept_stats = stats[first_keep]
    if len(kept_stats) == 0:
        return kept_stats.astype(np.int32), stats.astype(np.int32)

    median_w = np.median(kept_stats[:, 2])
    median_h = np.median(kept_stats[:, 3])
    upper = 5 * median_w * median_h
    lower = 0.2 * median_w * median_h

    kw = w[first_keep]
    kh = h[first_keep]
    bounded = (lower <= kw * kh) & (kw * kh <= upper)
    is_dash = (kw / kh >= 2) & (0.5 * median_w <= kw) & (kw <= 1.5 * median_w)
    final_keep = bounded | is_dash
    return (kept_stats[final_keep].astype(np.int32),
            np.concatenate([stats[~first_keep], kept_stats[~final_keep]]).astype(np.int32))


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
    (ref metrics.py:296-327): per CC (background row 0 skipped), the box of
    the characters it overlaps by >= half their area; CCs with none are
    dropped.  One (CC x character) broadcast per block of rows."""
    cx, cy, cw, ch = (chars_array[:, k].astype(np.int64) for k in range(4))
    cx2, cy2 = cx + cw, cy + ch
    half = 0.5 * ch * cw
    s = stats[1:, :4].astype(np.int64)
    out = []
    for r0, r1 in row_blocks(len(s) if len(cx) else 0, len(cx), BLOCK_PAIRS):
        x, y, w, h = (s[r0:r1, k, None] for k in range(4))
        x_ov = np.maximum(0, np.minimum(x + w, cx2) - np.maximum(x, cx))
        y_ov = np.maximum(0, np.minimum(y + h, cy2) - np.maximum(y, cy))
        match = x_ov * y_ov >= half
        hit = match.any(axis=1)
        match = match[hit]
        x1 = np.where(match, cx, _BIG).min(axis=1)
        y1 = np.where(match, cy, _BIG).min(axis=1)
        out.append(np.stack([x1, y1, np.where(match, cx2, -_BIG).max(axis=1) - x1,
                             np.where(match, cy2, -_BIG).max(axis=1) - y1], axis=1))
    return np.concatenate(out) if out else np.empty((0, 4), dtype=np.int64)


def get_row_separations(stats: np.ndarray, char_length: float) -> list[float]:
    """Nearest-below vertical separations (ref metrics.py:330-363): per
    contour, the smallest vpos step to a contour below it whose
    'horizontal' overlap exceeds ``char_length // 2`` -- computed with
    the HEIGHTS (quirk, ref metrics.py:349).  One (contour x contour)
    broadcast per block of rows."""
    x, h = stats[:, 0], stats[:, 3]
    vpos = (2 * stats[:, 1] + h) / 2
    seps = []
    for r0, r1 in row_blocks(len(stats), len(stats), BLOCK_PAIRS):
        xi, hi, vi = x[r0:r1, None], h[r0:r1, None], vpos[r0:r1, None]
        h_overlap = np.minimum(xi + hi, x + h) - np.maximum(xi, x)
        below = (h_overlap > char_length // 2) & (vpos > vi)
        step = np.where(below, vpos - vi, np.inf).min(axis=1)
        seps += step[below.any(axis=1)].tolist()
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

    # quirk preserved: first contour dropped (ref metrics.py:395-397)
    contours_cells = [Cell(x1=x, y1=y, x2=x + w, y2=y + h)
                      for x, y, w, h in stats_contours[1:].tolist()]
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
