"""Minimal xlsx writer over stdlib zipfile — replaces the reference's
xlsxwriter sink (ref: src/img2table/document/base/__init__.py:144-189 +
tables/objects/extraction.py:176-206).

Writer semantics mirror the reference: one worksheet per extracted table
named "Page {p+1} - Table {i+1}", merged cells written once via merge
ranges, values as inline strings.
"""

from __future__ import annotations

import zipfile
from io import BytesIO
from xml.sax.saxutils import escape

from img2table_ray.core.spans import CellPosition, create_all_rectangles


def _col_letter(idx: int) -> str:
    out = ""
    idx += 1
    while idx:
        idx, rem = divmod(idx - 1, 26)
        out = chr(65 + rem) + out
    return out


def _sheet_xml(extracted) -> str:
    """Worksheet XML for one ExtractedTable (inline strings + mergeCells)."""
    # group duplicated merged cells exactly like the reference
    dict_cells: dict = {}
    for id_row, row in extracted.content.items():
        for id_col, cell in enumerate(row):
            key = (cell.bbox.x1, cell.bbox.y1, cell.bbox.x2, cell.bbox.y2, cell.value)
            dict_cells.setdefault(key, []).append(CellPosition(cell=cell, row=id_row, col=id_col))

    values: dict = {}  # (row, col) -> str | None
    merges: list[tuple[int, int, int, int]] = []
    for positions in dict_cells.values():
        if len(positions) == 1:
            cp = positions[0]
            values[(cp.row, cp.col)] = cp.cell.value
        else:
            for span in create_all_rectangles(cell_positions=positions):
                merges.append((span.top_row, span.col_left, span.bottom_row, span.col_right))
                values[(span.top_row, span.col_left)] = span.value

    rows_xml = []
    n_rows = len(extracted.content)
    for r in range(n_rows):
        cells_xml = []
        for (rr, cc), v in sorted(values.items()):
            if rr != r or v is None:
                continue
            ref = f"{_col_letter(cc)}{r + 1}"
            cells_xml.append(
                f'<c r="{ref}" t="inlineStr"><is><t xml:space="preserve">'
                f"{escape(v)}</t></is></c>"
            )
        rows_xml.append(f'<row r="{r + 1}">' + "".join(cells_xml) + "</row>")

    merge_xml = ""
    if merges:
        refs = "".join(
            f'<mergeCell ref="{_col_letter(c1)}{r1 + 1}:{_col_letter(c2)}{r2 + 1}"/>'
            for r1, c1, r2, c2 in merges
        )
        merge_xml = f'<mergeCells count="{len(merges)}">{refs}</mergeCells>'

    return (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        '<worksheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">'
        "<sheetData>" + "".join(rows_xml) + "</sheetData>" + merge_xml + "</worksheet>"
    )


def tables_to_xlsx(tables_by_page: dict[int, list]) -> bytes:
    """Write {page: [ExtractedTable]} -> xlsx bytes, one sheet per table
    named like the reference (base/__init__.py:173-179)."""
    sheets = []
    for page, tables in tables_by_page.items():
        for idx, tb in enumerate(tables):
            sheets.append((f"Page {page + 1} - Table {idx + 1}", tb))

    buf = BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as z:
        z.writestr(
            "[Content_Types].xml",
            '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
            '<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
            '<Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>'
            '<Default Extension="xml" ContentType="application/xml"/>'
            '<Override PartName="/xl/workbook.xml" ContentType="application/vnd.openxmlformats-officedocument.spreadsheetml.sheet.main+xml"/>'
            + "".join(
                f'<Override PartName="/xl/worksheets/sheet{i + 1}.xml" '
                'ContentType="application/vnd.openxmlformats-officedocument.spreadsheetml.worksheet+xml"/>'
                for i in range(len(sheets))
            )
            + "</Types>",
        )
        z.writestr(
            "_rels/.rels",
            '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
            '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">'
            '<Relationship Id="rId1" '
            'Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/officeDocument" '
            'Target="xl/workbook.xml"/></Relationships>',
        )
        sheet_entries = "".join(
            f'<sheet name="{escape(name)}" sheetId="{i + 1}" r:id="rId{i + 1}"/>'
            for i, (name, _) in enumerate(sheets)
        )
        z.writestr(
            "xl/workbook.xml",
            '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
            '<workbook xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main" '
            'xmlns:r="http://schemas.openxmlformats.org/officeDocument/2006/relationships">'
            f"<sheets>{sheet_entries}</sheets></workbook>",
        )
        z.writestr(
            "xl/_rels/workbook.xml.rels",
            '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
            '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">'
            + "".join(
                f'<Relationship Id="rId{i + 1}" '
                'Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/worksheet" '
                f'Target="worksheets/sheet{i + 1}.xml"/>'
                for i in range(len(sheets))
            )
            + "</Relationships>",
        )
        for i, (_, tb) in enumerate(sheets):
            z.writestr(f"xl/worksheets/sheet{i + 1}.xml", _sheet_xml(tb))
    return buf.getvalue()
