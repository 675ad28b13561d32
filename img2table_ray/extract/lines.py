"""Ruling-line detection (ref: src/img2table/tables/processing/
bordered_tables/lines.py), numpy-only.

The edge image is filtered only on ink boxes; the exactness argument is in
the ``imgops/kernels.py`` module docstring.
"""

from __future__ import annotations

import numpy as np

from img2table_ray.core.objects import Cell, Line
from img2table_ray.imgops.ccl import connected_components_stats
from img2table_ray.imgops.kernels import (
    bilateral3_gray,
    ink_boxes,
    laplacian3_abs,
    morph_close,
    morph_open,
)


def identify_straight_lines(thresh: np.ndarray, min_line_length: float,
                            char_length: float, vertical: bool = True) -> list[Line]:
    """(ref lines.py:10-84): morphology chain OPEN(len/3) -> CLOSE(3x1
    hollow) -> CLOSE(len/6 dotted) -> OPEN(min_line_length), then per-CC
    subpixel centering."""
    d1 = round(min_line_length / 3) or 1
    kw, kh = (1, d1) if vertical else (d1, 1)
    mask = morph_open(thresh, kw, kh)

    hw, hh = (3, 1) if vertical else (1, 3)
    mask_closed = morph_close(mask, hw, hh)

    d2 = round(min_line_length / 6) or 1
    dw, dh = (1, d2) if vertical else (d2, 1)
    mask_dotted = morph_close(mask_closed, dw, dh)

    d3 = int(min_line_length) or 1
    fw, fh = (1, d3) if vertical else (d3, 1)
    final_mask = morph_open(mask_dotted, fw, fh)

    stats = connected_components_stats(final_mask)

    lines = []
    for idx in range(1, len(stats)):
        x, y, w, h, area = (int(v) for v in stats[idx])
        if max(w, h) / min(w, h) < 5 and min(w, h) >= char_length:
            continue
        if max(w, h) < min_line_length:
            continue

        cropped = thresh[y : y + h, x : x + w]
        if w >= h:
            non_blank = np.where(cropped.sum(axis=0) > 0)
            line_rows = np.where((cropped.sum(axis=1) / 255) >= 0.5 * w)
            if len(line_rows[0]) == 0:
                continue
            line = Line(x1=x + int(np.min(non_blank)),
                        y1=y + round(float(np.mean(line_rows))),
                        x2=x + int(np.max(non_blank)),
                        y2=y + round(float(np.mean(line_rows))),
                        thickness=int(np.max(line_rows) - np.min(line_rows) + 1))
        else:
            non_blank = np.where(cropped.sum(axis=1) > 0)
            line_cols = np.where((cropped.sum(axis=0) / 255) >= 0.5 * h)
            if len(line_cols[0]) == 0:
                continue
            line = Line(x1=x + round(float(np.mean(line_cols))),
                        y1=y + int(np.min(non_blank)),
                        x2=x + round(float(np.mean(line_cols))),
                        y2=y + int(np.max(non_blank)),
                        thickness=int(np.max(line_cols) - np.min(line_cols) + 1))
        lines.append(line)
    return lines


def edge_image(img: np.ndarray) -> np.ndarray:
    """laplacian3_abs(bilateral3_gray(img, 40, 80)) of a page, filtered
    only on the boxes of non-white pixels grown by 2.  The Laplacian of a
    box reads the bilateral image one pixel out through the image's reflect
    map; past an image border the box grown by 1 ends where the image does,
    so its own reflect map reads the same pixels."""
    h, w = img.shape[:2]
    edges = np.zeros((h, w), np.uint8)
    for y0, y1, x0, x1 in ink_boxes(img < 255, 2):
        g0, g1, c0, c1 = max(0, y0 - 1), min(h, y1 + 1), max(0, x0 - 1), min(w, x1 + 1)
        bilateral = bilateral3_gray(img, 40.0, 80.0, box=(g0, g1, c0, c1))
        edges[y0:y1, x0:x1] = laplacian3_abs(bilateral, box=(y0 - g0, y1 - g0, x0 - c0, x1 - c0))
    return edges


def detect_lines(img: np.ndarray, contours: list[Cell], char_length: float,
                 min_line_length: float) -> tuple[list[Line], list[Line]]:
    """(ref lines.py:87-120): bilateral blur -> Laplacian edges -> zero out
    text contours -> binarize at min(2.5*mean, max) -> directional line
    identification."""
    edge_img = edge_image(img)

    for c in contours:
        edge_img[c.y1 - 1 : c.y2 + 1, c.x1 - 1 : c.x2 + 1] = 0
    binary_img = (
        edge_img >= min(2.5 * np.mean(edge_img), np.max(edge_img))
    ).view(np.uint8) * np.uint8(255)

    h_lines = identify_straight_lines(thresh=binary_img, min_line_length=min_line_length,
                                      char_length=char_length, vertical=False)
    v_lines = identify_straight_lines(thresh=binary_img, min_line_length=min_line_length,
                                      char_length=char_length, vertical=True)
    return h_lines, v_lines
