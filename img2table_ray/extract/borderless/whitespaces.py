"""Whitespace detection (ref: src/img2table/tables/processing/
borderless_tables/whitespaces.py, numba kernel -> plain Python — per-page
element counts are small).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from img2table_ray.core.common import row_blocks
from img2table_ray.core.objects import Cell
from img2table_ray.extract.borderless.model import ColumnGroup, ImageSegment, Whitespace


def compute_whitespaces(elements_array: np.ndarray, min_width: float, min_height: float,
                        total_height: float, continuous: bool = True) -> list[list[list[int]]]:
    """(ref whitespaces.py:11-116) — x-interval sweep between sorted
    elements, emitting continuous or grouped whitespace rectangles."""
    xs1 = elements_array[:, 0]
    ys1 = elements_array[:, 1]
    xs2 = elements_array[:, 2]
    ys2 = elements_array[:, 3]
    x_sorted = np.unique(np.concatenate([xs1, xs2]))
    # the x intervals between consecutive element edges, at least min_width wide
    wide = np.flatnonzero(x_sorted[1:] - x_sorted[:-1] >= min_width)
    lows, highs = x_sorted[wide], x_sorted[wide + 1]

    # vectorized replacement for the reference's per-element scan, over
    # every interval at once: overlapping elements in ym-sorted order chain
    # prev_y = y2 of the PREVIOUS overlapping element, so emitted gaps are
    # exactly consecutive (y2[k], y1[k+1]) pairs with gap >= min_height.
    # (The loop's first element can never emit: y1 - 10**6 < 0.)
    # The reference's loop form tests min(x_max, x2) - max(x_min, x1)
    # > 0, which this mask matches only for positive-width elements;
    # fold that invariant in explicitly so a future element source
    # with degenerate (zero-/negative-width) boxes cannot silently
    # diverge from the loop form (ADVICE r4).
    gap_at, gap_y1, gap_y2 = [np.zeros(0, np.int64)], [np.zeros(0)], [np.zeros(0)]
    for a, b in row_blocks(len(wide), len(xs1)):  # (interval x element)
        m = (xs1 < highs[a:b, None]) & (xs2 > lows[a:b, None]) & (xs2 > xs1)
        at, el = np.nonzero(m)  # by interval, then in element order
        g = np.flatnonzero((at[1:] == at[:-1]) & (ys1[el[1:]] - ys2[el[:-1]] >= min_height))
        gap_at.append(at[g] + a)
        gap_y1.append(ys2[el[g]])
        gap_y2.append(ys1[el[g + 1]])
    bounds = np.searchsorted(np.concatenate(gap_at), np.arange(len(wide) + 1)).tolist()
    gap_y1, gap_y2 = np.concatenate(gap_y1).tolist(), np.concatenate(gap_y2).tolist()

    final_whitespaces: list[list[list[int]]] = []
    for t, (x_min, x_max) in enumerate(zip(lows.tolist(), highs.tolist())):
        list_ws = [[x_min, gap_y1[i], x_max, gap_y2[i]]
                   for i in range(bounds[t], bounds[t + 1])]

        if continuous:
            y_min, y_max = -1000, -1000
            for x1_ws, y1_ws, x2_ws, y2_ws in list_ws:
                if y1_ws == y_max:
                    y_min, y_max = min(y1_ws, y_min), max(y2_ws, y_max)
                else:
                    if y_max - y_min >= total_height:
                        final_whitespaces.append([[int(x_min), int(y_min), int(x_max), int(y_max)]])
                    y_min, y_max = y1_ws, y2_ws
            if y_max - y_min >= total_height:
                final_whitespaces.append([[int(x_min), int(y_min), int(x_max), int(y_max)]])
        else:
            nb_ws, tot_h, min_h, max_h = 0, 0, 10 ** 6, 0
            ws_group = []
            for x1_ws, y1_ws, x2_ws, y2_ws in list_ws:
                nb_ws += 1
                tot_h += y2_ws - y1_ws
                min_h, max_h = min(y1_ws, min_h), max(y2_ws, max_h)
                ws_group.append([int(x_min), int(y1_ws), int(x_max), int(y2_ws)])
            if (tot_h >= total_height and tot_h >= 0.8 * (max_h - min_h)
                    and (nb_ws == 1 or x_max - x_min >= 2 * min_width)):
                final_whitespaces.append(ws_group)

    if continuous:
        dedup = []
        x1p, y1p, x2p, y2p = 0, 0, 0, 0
        for idx in range(len(final_whitespaces)):
            x1, y1, x2, y2 = final_whitespaces[idx][0]
            if x1 == x2p and y1 == y1p and y2 == y2p:
                x2p = x2
            else:
                if x2p - x1p >= min_width and idx > 0:
                    dedup.append([[x1p, y1p, x2p, y2p]])
                x1p, y1p, x2p, y2p = x1, y1, x2, y2
        if x2p - x1p >= min_width:
            dedup.append([[x1p, y1p, x2p, y2p]])
        return dedup

    return final_whitespaces


def get_whitespaces(segment: Union[ImageSegment, ColumnGroup], vertical: bool = True,
                    min_width: float = 0, min_height: float = 1, pct: float = 0.25,
                    continuous: bool = True) -> list[Whitespace]:
    """(ref whitespaces.py:119-164)"""
    if not vertical:
        flipped = [Cell(x1=el.y1, y1=el.x1, x2=el.y2, y2=el.x2) for el in segment.elements]
        segment = ImageSegment(x1=segment.y1, y1=segment.x1, x2=segment.y2, y2=segment.x2,
                               elements=flipped)

    y_min = min(el.y1 for el in segment.elements)
    y_max = max(el.y2 for el in segment.elements)

    elements_array = np.array(
        [[el.x1, el.y1, el.x2, el.y2] for el in segment.elements]
        + [[segment.x1, y, segment.x2, y] for y in (y_min, y_max)],
        dtype=np.float64,
    )
    # in order of the y midpoint
    elements_array = elements_array[
        ((elements_array[:, 1] + elements_array[:, 3]) / 2).argsort(kind="stable")]

    ws_groups = compute_whitespaces(elements_array=elements_array, min_width=min_width,
                                    min_height=min_height,
                                    total_height=pct * (y_max - y_min),
                                    continuous=continuous)
    whitespaces = [Whitespace(cells=[Cell(x1=c[0], y1=c[1], x2=c[2], y2=c[3]) for c in g])
                   for g in ws_groups]
    if not vertical:
        whitespaces = [ws.flipped() for ws in whitespaces]
    return whitespaces


def adjacent_whitespaces(w_1: Whitespace, w_2: Whitespace) -> bool:
    x_coherent = len({w_1.x1, w_1.x2} & {w_2.x1, w_2.x2}) > 0
    y_coherent = min(w_1.y2, w_2.y2) - max(w_1.y1, w_2.y1) > 0
    return x_coherent and y_coherent


def identify_coherent_v_whitespaces(v_whitespaces: list[Whitespace]) -> list[Whitespace]:
    """Keep tallest among adjacent whitespaces (ref whitespaces.py:180-198)."""
    deleted_idx = []
    for i in range(len(v_whitespaces)):
        for j in range(i, len(v_whitespaces)):
            if adjacent_whitespaces(v_whitespaces[i], v_whitespaces[j]):
                if v_whitespaces[i].height > v_whitespaces[j].height:
                    deleted_idx.append(j)
                elif v_whitespaces[i].height < v_whitespaces[j].height:
                    deleted_idx.append(i)
    return [ws for idx, ws in enumerate(v_whitespaces) if idx not in deleted_idx]


def deduplicate_whitespaces(ws: list[Whitespace], elements: list[Cell]) -> list[Whitespace]:
    """Merge equal-height whitespaces with nothing between
    (ref whitespaces.py:201-263)."""
    if len(ws) <= 1:
        return ws

    deleted_idx, merged_ws = [], []
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            matching_elements = []
            for ws_1 in ws[i].cells:
                for ws_2 in ws[j].cells:
                    if min(ws_1.y2, ws_2.y2) - max(ws_1.y1, ws_2.y1) <= 0:
                        continue
                    common = Cell(x1=min(ws_1.x2, ws_2.x2), y1=max(ws_1.y1, ws_2.y1),
                                  x2=max(ws_1.x1, ws_2.x1), y2=min(ws_1.y2, ws_2.y2))
                    matching_elements += [
                        el for el in elements
                        if min(el.x2, common.x2) - max(el.x1, common.x1) > 0
                        and min(el.y2, common.y2) - max(el.y1, common.y1) > 0]

            if len(matching_elements) == 0:
                if ws[i].height > ws[j].height:
                    deleted_idx.append(j)
                elif ws[i].height < ws[j].height:
                    deleted_idx.append(i)
                else:
                    new_cells = [Cell(x1=min(ws[i].x1, ws[j].x1), y1=c.y1,
                                      x2=max(ws[i].x2, ws[j].x2), y2=c.y2)
                                 for c in ws[i].cells + ws[j].cells]
                    merged_ws.append(Whitespace(cells=list(set(new_cells))))
                    deleted_idx += [i, j]

    filtered_ws = [w for idx, w in enumerate(ws) if idx not in deleted_idx]
    merged_ws = [m for m in merged_ws
                 if not any(min(w.x2, m.x2) - max(w.x1, m.x1) > 0 for w in filtered_ws)]

    if len(merged_ws) > 1:
        seq = iter(sorted(merged_ws, key=lambda w: w.area, reverse=True))
        filtered_merged = [next(seq)]
        for w in seq:
            if not any(f for f in filtered_ws if w in f):
                filtered_merged.append(w)
    else:
        filtered_merged = merged_ws

    return filtered_ws + filtered_merged


def get_relevant_vertical_whitespaces(segment: Union[ImageSegment, ColumnGroup],
                                      char_length: float, median_line_sep: float,
                                      pct: float = 0.25) -> list[Whitespace]:
    """(ref whitespaces.py:266-287)"""
    v_whitespaces = get_whitespaces(
        segment=segment, vertical=True, pct=pct, min_width=char_length,
        min_height=min(median_line_sep, segment.element_height), continuous=True)
    vertical_delims = identify_coherent_v_whitespaces(v_whitespaces=v_whitespaces)
    return deduplicate_whitespaces(ws=vertical_delims, elements=segment.elements)
