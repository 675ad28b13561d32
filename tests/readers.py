"""Readers that only tests use: an xlsx value reader (round trips and the
reference's ``expected.xlsx``) and the reference's OCR fixture CSV."""

from __future__ import annotations

import csv
import re
import zipfile
from io import BytesIO

from img2table_ray.extract.content import _TEXT_COLUMNS, OCRWords


def read_xlsx_values(data: bytes) -> dict[str, list[list]]:
    """Read an xlsx into {sheet_name: 2D value grid} (sharedStrings +
    inline strings; merged ranges NOT expanded — merge anchors carry the
    value, like openpyxl)."""
    import xml.etree.ElementTree as ET

    ns = {"m": "http://schemas.openxmlformats.org/spreadsheetml/2006/main"}
    z = zipfile.ZipFile(BytesIO(data))
    shared = []
    if "xl/sharedStrings.xml" in z.namelist():
        root = ET.fromstring(z.read("xl/sharedStrings.xml"))
        for si in root.findall("m:si", ns):
            shared.append("".join(
                t.text or ""
                for t in si.iter("{http://schemas.openxmlformats.org/spreadsheetml/2006/main}t")
            ))
    wb = ET.fromstring(z.read("xl/workbook.xml"))
    out = {}
    for i, s in enumerate(wb.find("m:sheets", ns)):
        name = s.get("name")
        root = ET.fromstring(z.read(f"xl/worksheets/sheet{i + 1}.xml"))
        cells = {}
        max_r = max_c = -1
        for c in root.iter("{http://schemas.openxmlformats.org/spreadsheetml/2006/main}c"):
            ref = c.get("r")
            m = re.match(r"([A-Z]+)(\d+)", ref)
            col = sum((ord(ch) - 64) * 26 ** k for k, ch in enumerate(reversed(m.group(1)))) - 1
            row = int(m.group(2)) - 1
            t = c.get("t")
            val = None
            if t == "inlineStr":
                tt = c.find("m:is/m:t", ns)
                val = tt.text if tt is not None else None
            else:
                v = c.find("m:v", ns)
                if v is not None:
                    val = shared[int(v.text)] if t == "s" else v.text
            cells[(row, col)] = val
            max_r, max_c = max(max_r, row), max(max_c, col)
        grid = [[cells.get((r, c)) for c in range(max_c + 1)] for r in range(max_r + 1)]
        out[name] = grid
    return out


def _field(name: str, v: str):
    """One CSV field: empty is missing, and the numeric columns hold
    numbers."""
    if not v or name in _TEXT_COLUMNS:
        return v or None
    return int(v) if v.lstrip("-").isdigit() else float(v)


def load_words_csv(path: str, sep: str = ";") -> OCRWords:
    """Load the reference's OCR fixture CSV (schema ocr/base.py:10-23)."""
    with open(path, newline="") as f:
        rows = csv.reader(f, delimiter=sep)
        header = [c.strip() for c in next(rows)]
        return OCRWords.from_records(
            [{k: _field(k, v) for k, v in zip(header, row)} for row in rows])
