"""Table title extraction (ref: src/img2table/tables/processing/text/
titles.py + get_contours_cell in processing/common.py:133-179).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from img2table_ray.core.common import merge_contours
from img2table_ray.core.objects import Cell, Table
from img2table_ray.extract.content import OCRWords
from img2table_ray.imgops.ccl import connected_components_stats
from img2table_ray.imgops.kernels import (
    adaptive_threshold_gaussian_inv,
    dilate,
    gaussian_blur,
    rgb2gray,
)


def get_contours_cell(img: np.ndarray, cell: Cell, margin: int = 5, blur_size: int = 9,
                      kernel_size: int = 15, merge_vertically: Optional[bool] = True) -> list[Cell]:
    """(ref processing/common.py:133-179): crop -> blur -> adaptive
    threshold -> dilate (x4, as one) -> component bboxes -> merged contours."""
    height, width = img.shape[:2]
    # the conversion is pointwise: crop first, convert only the cell
    cropped = img[max(cell.y1 - margin, 0): min(cell.y2 + margin, height),
                  max(cell.x1 - margin, 0): min(cell.x2 + margin, width)]
    if cropped.shape[0] <= 0 or cropped.shape[1] <= 0:
        return []
    cropped = rgb2gray(cropped)

    blur = gaussian_blur(cropped, blur_size)
    thresh = adaptive_threshold_gaussian_inv(blur, 11, 30)

    # the reference dilates four times by kernel_size; for an odd size that
    # is one dilation by 4 * (kernel_size - 1) + 1, also at the borders
    # (the window offsets add up, and out-of-image pixels are ignored)
    size = 4 * (kernel_size - 1) + 1
    stats = connected_components_stats(dilate(thresh, size, size))
    contours = []
    for idx in range(1, len(stats)):
        x, y, w, h, _ = (int(v) for v in stats[idx])
        contours.append(Cell(x1=x + cell.x1 - margin, y1=y + cell.y1 - margin,
                             x2=x + cell.x1 - margin + w, y2=y + cell.y1 - margin + h))
    return merge_contours(contours=contours, vertically=merge_vertically)


def get_title_tables(img: np.ndarray, tables: list[Table], words: OCRWords,
                     margin: int = 5) -> list[Table]:
    """(ref titles.py:11-64)"""
    height, width = img.shape[:2]
    if len(tables) == 0:
        return []

    sorted_tables = sorted(tables, key=lambda tb: (tb.y1, tb.x1, tb.x2))
    seq = iter(sorted_tables)
    tb_cl = [[next(seq)]]
    for tb in seq:
        if tb.y1 > tb_cl[-1][-1].y2:
            tb_cl.append([])
        tb_cl[-1].append(tb)

    final_tables = []
    for id_cl, cluster in enumerate(tb_cl):
        x_delimiters = [round((t1.x2 + t2.x1) / 2) for t1, t2 in zip(cluster, cluster[1:])]
        x_delimiters = [max(10, round(cluster[0].x1 - 0.2 * cluster[0].width)), *x_delimiters, width - 10]
        # quirk preserved: the final right bound is appended AFTER width-10
        x_delimiters = [*x_delimiters, min(width - 10, round(cluster[-1].x2 + 0.2 * cluster[-1].width))]
        x_bounds = list(zip(x_delimiters, x_delimiters[1:]))

        y_bounds = (max(tb.y2 for tb in tb_cl[id_cl - 1]) if id_cl > 0 else 0,
                    min(tb.y1 for tb in cluster))

        for id_tb, table in enumerate(cluster):
            cell_title = Cell(x1=x_bounds[id_tb][0], x2=x_bounds[id_tb][1],
                              y1=y_bounds[0], y2=y_bounds[1])
            contours = get_contours_cell(img=img, cell=cell_title, margin=0,
                                         blur_size=5, kernel_size=9)
            title = words.get_text_cell(cell=contours[-1], margin=margin) if contours else None
            table.set_title(title=title)
            final_tables.append(table)
    return final_tables
