"""OCR word model + text-to-cell assignment
(ref: src/img2table/ocr/data.py, src/img2table/ocr/base.py:10-23,
src/img2table/ocr/tesseract.py:99-141).

Words use the reference's hOCR-style schema: (page, class, id, parent,
value, confidence, x1, y1, x2, y2), one numpy array per column (a missing
confidence is NaN); hierarchy via id/parent strings.  The polars cross-join
+ group semantics of get_text_table are reproduced by one routine,
`OCRWords.lines_in`: a word lands in a box iff the intersection covers
> 50% of the word bbox; words group into lines by `parent` (joined with " "
in document order; parentless words form one line), lines sort by (y1, x1).
Cells join the lines with "\n"; titles also strip each line and the text.
"""

from __future__ import annotations

import re
from typing import Optional

import numpy as np


WORD_COLUMNS = ["page", "class", "id", "parent", "value", "confidence",
                "x1", "y1", "x2", "y2"]
_TEXT_COLUMNS = ("class", "id", "parent", "value")


def _column(name: str, values: list) -> np.ndarray:
    if name in _TEXT_COLUMNS:
        return np.array(values, dtype=object)
    return np.array([np.nan if v is None else v for v in values])


class OCRWords:
    """Columnar word table (hOCR schema) for one document: one numpy array
    per WORD_COLUMNS name."""

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        self.columns = columns
        self._kept: dict = {}  # min_confidence -> arrays of the text words

    @classmethod
    def from_records(cls, records: list[dict]) -> "OCRWords":
        return cls({k: _column(k, [r.get(k) for r in records])
                    for k in WORD_COLUMNS})

    def page(self, page_number: int = 0) -> "OCRWords":
        keep = self.columns["page"] == page_number
        return OCRWords({k: v[keep] for k, v in self.columns.items()})

    def lines_in(self, bbox, min_confidence: int = 50) -> list[str]:
        """Text lines of the words more than 50% inside bbox = (x1, y1, x2,
        y2), in reading order (ref ocr/data.py:19-151)."""
        kept = self._kept.get(min_confidence)
        if kept is None:
            c = self.columns
            keep = ((c["class"] == "ocrx_word") & (c["value"] != None)  # noqa: E711
                    & (c["confidence"] >= min_confidence))
            x1, y1, x2, y2 = (c[k][keep] for k in ("x1", "y1", "x2", "y2"))
            kept = self._kept[min_confidence] = (
                x1, y1, x2, y2, (x2 - x1) * (y2 - y1),
                c["parent"][keep], c["value"][keep])
        x1, y1, x2, y2, area, parents, values = kept
        xl = np.maximum(x1, bbox[0])
        yt = np.maximum(y1, bbox[1])
        xr = np.minimum(x2, bbox[2])
        yb = np.minimum(y2, bbox[3])
        has_int = (xr > xl) & (yb > yt)
        int_area = np.where(has_int, (xr - xl) * (yb - yt), 0)
        sel = has_int & (int_area / np.maximum(area, 1) > 0.5)
        # group words by parent in document order -> line text + line corner
        lines: dict = {}
        for p, v, y, x in zip(parents[sel], values[sel], y1[sel].tolist(),
                              x1[sel].tolist()):
            line = lines.setdefault(p, [[], y, x])
            line[0].append(v)
            line[1:] = min(line[1], y), min(line[2], x)
        ordered = sorted(lines.values(), key=lambda e: (e[1], e[2]))
        return [" ".join(e[0]) for e in ordered]

    def get_text_cell(self, cell, margin: int = 0, page_number: Optional[int] = None,
                      min_confidence: int = 50) -> Optional[str]:
        """(ref ocr/data.py:19-84)"""
        words = self.page(page_number) if page_number else self
        lines = words.lines_in(cell.bbox(margin=margin), min_confidence)
        return "\n".join(line.strip() for line in lines).strip() or None


def assign_text_to_table(table, words: Optional[OCRWords], min_confidence: int = 50):
    """Set Cell.content for every table slot (ref ocr/data.py:86-151)."""
    if words is None:
        return table
    for row in table.items:
        for cell in row.items:
            lines = words.lines_in((cell.x1, cell.y1, cell.x2, cell.y2),
                                   min_confidence)
            if lines:
                cell.content = "\n".join(lines) or None
    return table


# --- hOCR parsing (TesseractOCR-compatible word provider) ---

_NOISE_RE = re.compile(r"^(\s|\||L|_|;|\*)*$")
_CONF_RE = re.compile(r"x_wconf \d{1,2}")
_BBOX_RE = re.compile(r"bbox \d{1,4} \d{1,4} \d{1,4} \d{1,4}")


def parse_hocr(hocr: str, page: int = 0) -> list[dict]:
    """Parse hOCR HTML into word-schema records
    (ref ocr/tesseract.py:99-141: class, id, parent-id, noise-stripped
    value, 1-2-digit x_wconf, bbox)."""
    from html.parser import HTMLParser

    records: list[dict] = []
    elements: list[dict] = []  # parse tree nodes

    class _P(HTMLParser):
        def __init__(self):
            super().__init__(convert_charrefs=True)
            self.stack: list[dict] = []

        def handle_starttag(self, tag, attrs):
            a = dict(attrs)
            node = {"tag": tag, "attrs": a, "children": [], "text": [],
                    "parent": self.stack[-1] if self.stack else None}
            if self.stack:
                self.stack[-1]["children"].append(node)
            elements.append(node)
            if tag not in ("meta", "br", "img", "link"):
                self.stack.append(node)

        def handle_endtag(self, tag):
            for i in range(len(self.stack) - 1, -1, -1):
                if self.stack[i]["tag"] == tag:
                    del self.stack[i:]
                    break

        def handle_data(self, data):
            if self.stack:
                self.stack[-1]["text"].append(data)

    parser = _P()
    parser.feed(hocr)

    def element_string(node) -> Optional[str]:
        """bs4 .string semantics: the single string descendant, if unique."""
        el_children = node["children"]
        if not el_children:
            joined = "".join(node["text"])
            return joined if joined else None
        if len(el_children) == 1 and not "".join(node["text"]).strip():
            return element_string(el_children[0])
        return None

    for node in elements:
        a = node["attrs"]
        if "class" not in a:
            continue
        title = a.get("title", "")
        bboxes = _BBOX_RE.findall(title)
        if not bboxes:
            continue
        s = element_string(node)
        value = None
        if s is not None:
            value = _NOISE_RE.sub("", s).strip() or None
        conf_m = _CONF_RE.findall(title)
        confidence = int(conf_m[0].split()[1]) if conf_m else None
        parent = node["parent"]
        parent_id = parent["attrs"].get("id") if parent else None
        x1, y1, x2, y2 = (int(v) for v in re.sub(r"^bbox\s", "", bboxes[0]).split())
        records.append({
            "page": page, "class": a["class"].split()[0], "id": a.get("id"),
            "parent": parent_id, "value": value, "confidence": confidence,
            "x1": x1, "y1": y1, "x2": x2, "y2": y2,
        })
    return records
