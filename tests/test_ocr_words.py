"""OCRWords: the one box-to-lines routine behind cell and title text, and
the single-document API path without pandas."""

import os
import random
import subprocess
import sys

from img2table_ray.core.objects import Cell, Row, Table
from img2table_ray.extract.content import (OCRWords, assign_text_to_table,
                                           load_words_csv, parse_hocr)
from img2table_ray.fixtures import fixture_path

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _words_with_parentless_word() -> OCRWords:
    """One line "l1" holding "Total sales", and a word "2023" below it that
    no line lists, so its record has no parent."""
    records = [
        {"page": 0, "class": "ocrx_word", "id": "w1", "parent": "l1",
         "value": "Total", "confidence": 99, "x1": 100, "y1": 100, "x2": 200, "y2": 130},
        {"page": 0, "class": "ocrx_word", "id": "w2", "parent": "l1",
         "value": "sales", "confidence": 99, "x1": 210, "y1": 100, "x2": 300, "y2": 130},
        {"page": 0, "class": "ocrx_word", "id": "w3", "parent": None,
         "value": "2023", "confidence": 99, "x1": 100, "y1": 150, "x2": 180, "y2": 180},
    ]
    return OCRWords.from_records(records)


def test_parentless_word_in_title_and_cell():
    words = _words_with_parentless_word()
    box = Cell(x1=90, y1=90, x2=320, y2=190)
    assert words.lines_in(box.bbox()) == ["Total sales", "2023"]
    assert words.get_text_cell(box) == "Total sales\n2023"
    assert words.get_text_cell(Cell(x1=90, y1=140, x2=320, y2=190)) == "2023"

    table = Table(rows=[Row(cells=[Cell(x1=90, y1=90, x2=320, y2=140)]),
                        Row(cells=[Cell(x1=90, y1=140, x2=320, y2=190)]),
                        Row(cells=[Cell(x1=90, y1=190, x2=320, y2=240)])])
    assign_text_to_table(table, words)
    assert [row.items[0].content for row in table.items] == \
        ["Total sales", "2023", None]


def test_words_below_min_confidence_or_without_text_are_skipped():
    records = [
        {"page": 0, "class": "ocrx_word", "id": "w1", "parent": "l1",
         "value": "kept", "confidence": 60, "x1": 0, "y1": 0, "x2": 10, "y2": 10},
        {"page": 0, "class": "ocrx_word", "id": "w2", "parent": "l1",
         "value": "faint", "confidence": 40, "x1": 12, "y1": 0, "x2": 20, "y2": 10},
        {"page": 0, "class": "ocrx_word", "id": "w3", "parent": "l1",
         "value": None, "confidence": 90, "x1": 22, "y1": 0, "x2": 30, "y2": 10},
        {"page": 0, "class": "ocr_line", "id": "l1", "parent": None,
         "value": "line", "confidence": None, "x1": 0, "y1": 0, "x2": 30, "y2": 10},
    ]
    words = OCRWords.from_records(records)
    assert words.columns["confidence"].dtype.kind == "f"
    assert words.lines_in((0, 0, 40, 20)) == ["kept"]
    assert words.lines_in((0, 0, 40, 20), min_confidence=30) == ["kept faint"]
    assert words.page(1).lines_in((0, 0, 40, 20)) == []


def _lines_in_loop(words: OCRWords, bbox, min_confidence: int) -> list[str]:
    """Word-by-word form of OCRWords.lines_in."""
    c = words.columns
    lines: dict = {}
    for i in range(len(c["page"])):
        if (c["class"][i] != "ocrx_word" or c["value"][i] is None
                or not c["confidence"][i] >= min_confidence):
            continue
        x1, y1, x2, y2 = (int(c[k][i]) for k in ("x1", "y1", "x2", "y2"))
        w = min(x2, bbox[2]) - max(x1, bbox[0])
        h = min(y2, bbox[3]) - max(y1, bbox[1])
        if w <= 0 or h <= 0 or w * h / max((x2 - x1) * (y2 - y1), 1) <= 0.5:
            continue
        line = lines.setdefault(c["parent"][i], [[], y1, x1])
        line[0].append(c["value"][i])
        line[1:] = min(line[1], y1), min(line[2], x1)
    return [" ".join(v) for v, _, _ in sorted(lines.values(),
                                                key=lambda e: (e[1], e[2]))]


def test_lines_in_matches_loop_form():
    with open(fixture_path("tesseract_hocr.html")) as f:
        hocr_words = OCRWords.from_records(parse_hocr(f.read()))
    csv_words = load_words_csv(fixture_path("titles_ocr.csv"))
    rnd = random.Random(0)
    n_text = 0
    for words in (hocr_words, csv_words, _words_with_parentless_word()):
        for _ in range(300):
            x1, y1 = rnd.randrange(-50, 1400), rnd.randrange(-50, 700)
            bbox = (x1, y1, x1 + rnd.randrange(1, 600), y1 + rnd.randrange(1, 300))
            min_confidence = rnd.choice([0, 50, 90])
            got = words.lines_in(bbox, min_confidence)
            assert got == _lines_in_loop(words, bbox, min_confidence)
            n_text += bool(got)
    assert n_text > 100


def test_api_page_path_does_not_import_pandas():
    """Image.extract_tables with hOCR words runs without pandas."""
    code = """
import sys
from img2table_ray.api import HocrOCR, Image
from img2table_ray.fixtures import fixture_path
with open(fixture_path("tesseract_hocr.html")) as f:
    hocr = f.read()
tables = Image(src=fixture_path("test.png")).extract_tables(ocr=HocrOCR([hocr]))
assert any(c.value for t in tables for row in t.content.values() for c in row)
print("pandas" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], cwd=REPO,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
