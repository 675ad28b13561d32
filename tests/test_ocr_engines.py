"""OCR engine adapter tests against the reference's own canned-response
fixtures (ref tests/ocr/*/test_data, tests/_mock_data) — the seven
cloud / local-ML engines whose response parsers are offline-testable.

Pickled SDK responses (azure.pkl, surya.pkl, doctr ocr.pkl) load through
tests/duckpickle.py since the SDKs are not installed; JSON fixtures load
directly.  Each converter's output is compared to the reference's
ocr_df.csv golden for that engine.
"""

import json
import os
from types import SimpleNamespace

import numpy as np
import pandas as pd
import pytest

from img2table_ray.extract.content import WORD_COLUMNS
from img2table_ray.ocr_engines import (AzureOCR, DocTR, EasyOCR, PaddleOCR,
                                       SuryaOCR, TextractOCR, VisionOCR)
from tests.conftest import REFERENCE
from tests.duckpickle import duck_load

REF_OCR = f"{REFERENCE}/ocr"
MOCK = f"{REFERENCE}/_mock_data"


def golden_df(engine: str) -> pd.DataFrame:
    df = pd.read_csv(os.path.join(REF_OCR, engine, "test_data", "ocr_df.csv"),
                     sep=";", keep_default_na=False)
    return df.reset_index(drop=True)


def records_df(records: list[dict]) -> pd.DataFrame:
    return pd.DataFrame(records, columns=WORD_COLUMNS).reset_index(drop=True)


def assert_matches_golden(records: list[dict], engine: str,
                          check_confidence: bool = True):
    got = records_df(records)
    want = golden_df(engine)[WORD_COLUMNS]
    if not check_confidence:
        got = got.drop(columns=["confidence"])
        want = want.drop(columns=["confidence"])
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=False, rtol=1e-9)


# ---------------------------------------------------------------- textract
@pytest.mark.requires_reference(f"{REF_OCR}/aws_textract/test_data", f"{MOCK}/textract.json")
def test_textract_map_response_golden():
    """ref tests/ocr/aws_textract/test_aws_textract.py:14-27 — the raw
    API response maps to the content.json records, and those records
    match the ocr_df.csv golden."""
    from img2table_ray.imgops.png import decode_image

    img = decode_image(open(os.path.join(
        REF_OCR, "aws_textract", "test_data", "test.png"), "rb").read())
    h, w = img.shape[:2]
    resp = json.load(open(os.path.join(MOCK, "textract.json")))
    records = TextractOCR.map_response(resp, width=w, height=h, page=0)

    expected = json.load(open(os.path.join(
        REF_OCR, "aws_textract", "test_data", "content.json")))
    assert records == expected
    assert_matches_golden(records, "aws_textract")


# ------------------------------------------------------------------ vision
@pytest.mark.requires_reference(f"{REF_OCR}/google_vision/test_data", f"{MOCK}/vision.json")
def test_vision_endpoint_map_response_golden():
    """ref tests/ocr/google_vision/test_google_vision.py:16-32."""
    resp = json.load(open(os.path.join(MOCK, "vision.json")))
    records = VisionOCR.map_endpoint_response(resp, page=0, width=1365,
                                              height=417)
    expected = json.load(open(os.path.join(
        REF_OCR, "google_vision", "test_data", "expected_content.json")))
    assert records == expected[0]
    assert_matches_golden(records, "google_vision")


def _to_ns(obj):
    """JSON -> attribute objects with the client library's snake_case
    names, mimicking the proto response shape for map_api_response."""
    renames = {"fullTextAnnotation": "full_text_annotation",
               "boundingBox": "bounding_box", "detectedBreak": "detected_break"}
    if isinstance(obj, dict):
        return SimpleNamespace(
            **{renames.get(k, k): _to_ns(v) for k, v in obj.items()})
    if isinstance(obj, list):
        return [_to_ns(v) for v in obj]
    return obj


@pytest.mark.requires_reference(f"{REF_OCR}/google_vision/test_data", f"{MOCK}/vision.json")
def test_vision_api_map_response_golden():
    """ref tests/ocr/google_vision/test_google_vision.py:35-51 — the
    object-walk variant over a proto-shaped response (the reference's
    vision.pkl needs google-cloud-vision to unpickle; an attribute-tree
    built from the endpoint JSON exercises the same access paths)."""
    resp = _to_ns(json.load(open(os.path.join(MOCK, "vision.json"))))
    pages = VisionOCR.map_api_response(resp, shapes=[(417, 1365)])
    expected = json.load(open(os.path.join(
        REF_OCR, "google_vision", "test_data", "expected_content.json")))
    assert pages == expected
    assert_matches_golden(pages[0], "google_vision")


def test_vision_constructor_validation():
    """ref test_google_vision.py:62-66."""
    with pytest.raises(TypeError):
        VisionOCR(api_key=8)
    os.environ.pop("GOOGLE_APPLICATION_CREDENTIALS", None)
    with pytest.raises(ValueError):
        VisionOCR()
    VisionOCR(api_key="api_key")  # endpoint path needs no SDK


# ------------------------------------------------------------------- azure
@pytest.mark.requires_reference(f"{REF_OCR}/azure/test_data", f"{MOCK}/azure.pkl")
def test_azure_to_ocr_df_golden():
    """ref tests/ocr/azure/test_azure.py:27-36."""
    content = [duck_load(os.path.join(MOCK, "azure.pkl"))]
    assert_matches_golden(AzureOCR.to_word_records(content), "azure")


def test_azure_constructor_validation():
    """ref test_azure.py:39-50 (the env-var ValueErrors)."""
    os.environ.pop("COMPUTER_VISION_ENDPOINT", None)
    os.environ.pop("COMPUTER_VISION_SUBSCRIPTION_KEY", None)
    with pytest.raises(TypeError):
        AzureOCR(subscription_key=8, endpoint="a")
    with pytest.raises(TypeError):
        AzureOCR(subscription_key="a", endpoint=0)
    with pytest.raises(ValueError):
        AzureOCR(subscription_key="a")
    with pytest.raises(ModuleNotFoundError):
        AzureOCR(subscription_key="a", endpoint="b")  # SDK absent here


# ------------------------------------------------------------------ paddle
@pytest.mark.requires_reference(f"{REF_OCR}/paddle/test_data")
def test_paddle_to_ocr_df_golden():
    """ref tests/ocr/paddle/test_paddle.py:33-45 (v3 response shape)."""
    content = json.load(open(os.path.join(
        REF_OCR, "paddle", "test_data", "hocr.json")))
    assert_matches_golden(PaddleOCR.to_word_records(content), "paddle")


def test_paddle_v2_shape():
    """The v2 list-of-[bbox, (text, conf)] shape (ref PaddleOCR2)."""
    content = [[[[[10.0, 20.0], [50.0, 20.0], [50.0, 40.0], [10.0, 40.0]],
                 ("Hello", 0.98)]]]
    rec = PaddleOCR.to_word_records(content)
    assert rec == [{"page": 0, "class": "ocrx_word", "id": "word_1_1",
                    "parent": "word_1_1", "value": "Hello",
                    "confidence": 98, "x1": 10, "y1": 20, "x2": 50, "y2": 40}]


def test_paddle_validators():
    with pytest.raises(TypeError):
        PaddleOCR(lang=12)
    with pytest.raises(ModuleNotFoundError):
        PaddleOCR()


# ----------------------------------------------------------------- easyocr
@pytest.mark.requires_reference(f"{REF_OCR}/easyocr/test_data")
def test_easyocr_to_ocr_df_golden():
    """ref tests/ocr/easyocr/test_easyocr.py:52-62."""
    content = json.load(open(os.path.join(
        REF_OCR, "easyocr", "test_data", "ocr.json")))
    assert_matches_golden(EasyOCR.to_word_records(content), "easyocr")


def test_easyocr_validators():
    with pytest.raises(TypeError):
        EasyOCR(lang=12)
    with pytest.raises(ModuleNotFoundError):
        EasyOCR()


# ------------------------------------------------------------------- doctr
@pytest.mark.requires_reference(f"{REF_OCR}/doctr/test_data")
def test_doctr_to_ocr_df_golden():
    """ref tests/ocr/doctr/test_doctr.py:43-53."""
    content = duck_load(os.path.join(
        REF_OCR, "doctr", "test_data", "ocr.pkl"))
    assert_matches_golden(DocTR.to_word_records(content), "doctr")


def test_doctr_constructor():
    with pytest.raises(ModuleNotFoundError):
        DocTR()


# ------------------------------------------------------------------- surya
class _BboxLine:
    """surya's TextLine.bbox is a derived property of the pickled polygon
    (PolygonBox.bbox = [min x, min y, max x, max y]); the duck-loaded
    object carries only the stored fields, so derive it here."""

    def __init__(self, line):
        self.text = line.text
        self.confidence = line.confidence
        xs = [pt[0] for pt in line.polygon]
        ys = [pt[1] for pt in line.polygon]
        self.bbox = [min(xs), min(ys), max(xs), max(ys)]


@pytest.mark.requires_reference(f"{REF_OCR}/surya/test_data", f"{MOCK}/surya.pkl")
def test_surya_to_ocr_df_golden():
    """ref tests/ocr/surya/test_surya.py:31-41."""
    raw = duck_load(os.path.join(MOCK, "surya.pkl"))
    content = [SimpleNamespace(text_lines=[_BboxLine(l) for l in page.text_lines])
               for page in raw]
    assert_matches_golden(SuryaOCR.to_word_records(content), "surya")


def test_surya_validators():
    """ref test_surya.py:46-51."""
    with pytest.raises(TypeError):
        SuryaOCR(langs=1)
    with pytest.raises(TypeError):
        SuryaOCR(langs=[1, 2])
    with pytest.raises(ModuleNotFoundError):
        SuryaOCR(langs=["en"])


# ------------------------------------------------- OCRWords integration
@pytest.mark.requires_reference(f"{REF_OCR}/easyocr/test_data")
def test_converters_feed_ocr_words():
    """Every adapter's records flow into the engine's word table and the
    cell-text lookup works (same consumption path as TesseractOCR)."""
    content = json.load(open(os.path.join(
        REF_OCR, "easyocr", "test_data", "ocr.json")))
    words = EasyOCR.to_ocr_words(content)
    assert list(words.df.columns) == WORD_COLUMNS
    assert (words.df["class"] == "ocrx_word").all()
    assert len(words.df) == len(golden_df("easyocr"))
    assert words.df["value"].iloc[0] == "Title"
