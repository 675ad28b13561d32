"""Per-document table extraction orchestration — the equivalent of the
reference's TableImage (src/img2table/tables/image.py:21-134) and
Document.extract_tables / get_table_content flow
(src/img2table/document/base/__init__.py:65-142), as a pure function that
the Ray Data page stages (stages/extractor.py, and the metrics and lines
summaries in pipelines/extraction_queries.py) call once per page row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from img2table_ray.core.objects import ExtractedTable, Line, Table, table_to_extracted
from img2table_ray.extract.cells import get_cells
from img2table_ray.extract.content import OCRWords
from img2table_ray.extract.lines import detect_lines
from img2table_ray.extract.metrics import compute_img_metrics
from img2table_ray.extract.tables import (
    get_tables,
    implicit_content,
    merge_consecutive_tables,
)
from img2table_ray.extract.threshold import threshold_dark_areas
from img2table_ray.extract.titles import get_title_tables
from img2table_ray.imgops.kernels import _is_gray


@dataclass
class PageExtraction:
    tables: list[ExtractedTable]
    char_length: Optional[float] = None
    median_line_sep: Optional[float] = None
    n_contours: int = 0


class TableImage:
    """(ref tables/image.py:21-134).  Grayness is decided once per page:
    an R == G == B page is kept as its channel 0, one (H, W) plane."""

    def __init__(self, img: np.ndarray) -> None:
        if img.ndim == 3 and _is_gray(img):
            img = np.ascontiguousarray(img[:, :, 0])
        self.img = img
        self.lines: list[Line] = []
        self.tables: list[Table] = []
        self.thresh = threshold_dark_areas(img=img, char_length=11)
        self.char_length, self.median_line_sep, self.contours = compute_img_metrics(
            thresh=self.thresh
        )

    def ruling_lines(self) -> tuple[list[Line], list[Line]]:
        """(horizontal, vertical) ruling lines of the page; needs
        ``char_length`` (a page with no text-sized contours has none)."""
        min_line_length = (
            int(min(1.5 * self.median_line_sep, 4 * self.char_length))
            if self.median_line_sep else 20
        )
        return detect_lines(img=self.img, contours=self.contours,
                            char_length=self.char_length,
                            min_line_length=min_line_length)

    def extract_bordered_tables(self, implicit_rows: bool = False,
                                implicit_columns: bool = False) -> None:
        h_lines, v_lines = self.ruling_lines()
        self.lines = h_lines + v_lines

        cells = get_cells(horizontal_lines=h_lines, vertical_lines=v_lines)
        self.tables = get_tables(cells=cells, elements=self.contours,
                                 lines=self.lines, char_length=self.char_length)
        self.tables = [implicit_content(table=tb, contours=self.contours,
                                        char_length=self.char_length,
                                        implicit_rows=implicit_rows,
                                        implicit_columns=implicit_columns)
                       for tb in self.tables]
        self.tables = merge_consecutive_tables(tables=self.tables, contours=self.contours)
        self.tables = [tb for tb in self.tables if min(tb.nb_rows, tb.nb_columns) >= 2]

    def extract_borderless_tables(self) -> None:
        if self.median_line_sep is not None:
            from img2table_ray.extract.borderless import identify_borderless_tables

            self.thresh = threshold_dark_areas(img=self.img, char_length=self.char_length)
            borderless = identify_borderless_tables(
                thresh=self.thresh, char_length=self.char_length,
                median_line_sep=self.median_line_sep, lines=self.lines,
                contours=self.contours, existing_tables=self.tables)
            self.tables += [tb for tb in borderless
                            if tb.nb_rows >= 2 and tb.nb_columns >= 3]

    def extract_tables(self, implicit_rows: bool = False, implicit_columns: bool = False,
                       borderless_tables: bool = False) -> list[Table]:
        if self.char_length is None:
            return []
        self.extract_bordered_tables(implicit_rows=implicit_rows,
                                     implicit_columns=implicit_columns)
        if borderless_tables:
            self.extract_borderless_tables()
        return self.tables


def extract_tables_from_image(img: np.ndarray, words: Optional[OCRWords] = None,
                              implicit_rows: bool = False, implicit_columns: bool = False,
                              borderless_tables: bool = False, detect_rotation: bool = False,
                              min_confidence: int = 50) -> PageExtraction:
    """Full single-page pipeline: optional skew fix, detect tables, fill
    content from the word provider, extract titles, apply final shape
    filters (ref document/base/__init__.py:65-142, document/image.py:25-50)."""
    if detect_rotation:
        from img2table_ray.extract.rotation import fix_rotation_image

        img, _ = fix_rotation_image(img=img)
    ti = TableImage(img=img)
    tables = ti.extract_tables(implicit_rows=implicit_rows,
                               implicit_columns=implicit_columns,
                               borderless_tables=borderless_tables)

    if words is not None and len(tables) > 0:
        tables = [tb.get_content(ocr_words=words, min_confidence=min_confidence)
                  for tb in tables]
        tables = [tb for tb in tables if max(tb.nb_rows, tb.nb_columns) >= 2]
        tables = get_title_tables(img=ti.img, tables=tables, words=words)

    extracted = [
        table_to_extracted(tb) for tb in tables
        if (max(tb.nb_rows, tb.nb_columns) >= 2 and not tb.borderless)
        or (tb.nb_rows >= 2 and tb.nb_columns >= 3)
    ]
    return PageExtraction(
        tables=extracted,
        char_length=ti.char_length,
        median_line_sep=ti.median_line_sep,
        n_contours=len(ti.contours or []),
    )
