"""User-facing document API mirroring the reference's surface
(ref: src/img2table/document/image.py, document/base/__init__.py:114-189,
ocr/base.py:9-41) so a reference user can switch with minimal edits:

    from img2table_ray.api import Image, HocrOCR
    tables = Image(src="page.png").extract_tables(
        ocr=HocrOCR(["<hocr...>"]), implicit_rows=True, borderless_tables=True)
    Image(src="page.png").to_xlsx("out.xlsx", ocr=...)

Single-document, local execution (no Ray session needed) — the distributed
surface is ``img2table_ray.pipelines.extraction``.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Optional, Union

import numpy as np

from img2table_ray.core.objects import ExtractedTable


class OCRInstance:
    """Word-provider protocol (ref ocr/base.py:9-41): ``of(document)``
    returns per-page OCRWords."""

    def of(self, document: "Document"):
        raise NotImplementedError


def _hocr_words(hocr_pages: list[str]):
    """One document's OCRWords from its hOCR strings, one per page."""
    from img2table_ray.extract.content import OCRWords, parse_hocr

    return OCRWords.from_records([record for page, hocr in enumerate(hocr_pages)
                                  for record in parse_hocr(hocr, page=page)])


class HocrOCR(OCRInstance):
    """Word provider from pre-computed hOCR strings, one per page — the
    drop-in stand-in for TesseractOCR when the OCR ran externally."""

    def __init__(self, hocr_pages: list[str]) -> None:
        self.hocr_pages = hocr_pages

    def of(self, document: "Document"):
        return _hocr_words(self.hocr_pages)


class TesseractOCR(OCRInstance):
    """Subprocess-driving Tesseract adapter (ref ocr/tesseract.py:21-141):
    writes each page image to a temp PNG, shells out ``tesseract ... hocr``
    (optionally across ``n_threads``), and parses the returned hOCR into
    OCRWords.  Raises OSError at construction when the binary or requested
    traineddata is absent — same contract as the reference, so environments
    without tesseract fail fast instead of mid-pipeline."""

    def __init__(self, n_threads: int = 1, lang: str = "eng", psm: int = 11,
                 tessdata_dir: Optional[str] = None) -> None:
        import os
        import re
        import subprocess

        if not isinstance(n_threads, int):
            raise TypeError(f"Invalid type {type(n_threads)} for n_threads argument")
        if not isinstance(lang, str):
            raise TypeError(f"Invalid type {type(lang)} for lang argument")
        if not re.fullmatch(r"[A-Za-z0-9_]+(\+[A-Za-z0-9_]+)*", lang):
            # lang reaches a shell=True command line AND is embedded in a
            # validation regex — reject anything but traineddata-name chars
            raise ValueError(f"Invalid lang string {lang!r}")
        if not isinstance(psm, int):
            raise TypeError(f"Invalid type {type(psm)} for psm argument")
        self.n_threads = n_threads
        self.lang = lang
        self.psm = psm
        env = os.environ.copy()
        if tessdata_dir:
            env["TESSDATA_PREFIX"] = tessdata_dir
        self.env = env

        cmd = subprocess.run("tesseract --version", env=self.env, shell=True,
                             check=False, capture_output=True)
        if cmd.returncode != 0:
            raise OSError("Tesseract not found in environment. Check variables and PATH")
        try:
            langs = subprocess.check_output(
                "tesseract --list-langs", env=self.env, shell=True).decode()
            for lng in self.lang.split("+"):
                if not any(re.search(rf"\b{lng}\b", line) for line in langs.splitlines()):
                    raise OSError(f"Tesseract '{lng}' trainned data cannot be located")
        except Exception as err:
            if isinstance(err, OSError):
                raise
            raise OSError("Tesseract trainned data cannot be located.") from err

    def hocr(self, image: np.ndarray) -> str:
        """Run tesseract on one page image, return the hOCR HTML."""
        import subprocess
        from tempfile import NamedTemporaryFile

        from img2table_ray.imgops.png import encode_png

        with NamedTemporaryFile(suffix=".png", delete=False) as tmp_f:
            tmp_file = tmp_f.name
            tmp_f.write(encode_png(np.ascontiguousarray(image)))
        try:
            out = subprocess.check_output(
                f"tesseract {tmp_file} stdout --psm {self.psm} -l {self.lang} hocr",
                env=self.env, stderr=subprocess.STDOUT, shell=True)
        finally:
            Path(tmp_file).unlink(missing_ok=True)
        return out.decode("utf-8")

    def of(self, document: "Document"):
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=self.n_threads) as pool:
            pages = list(pool.map(self.hocr, document._pages))
        return _hocr_words(pages)


class PdfOCR(OCRInstance):
    """Native PDF text-layer word provider (ref ocr/pdf.py:156-235),
    backed by the pure-Python parser in ``extract/pdftext.py`` instead of
    pypdfium2.  Word ids/values/line structure reproduce the reference's
    own ``content.json`` golden exactly; box coordinates are bit-exact
    except where the pre-truncation value lands exactly on a pixel
    boundary (see tests/test_pdftext.py)."""

    def of(self, document: "Document"):
        from img2table_ray.extract.content import OCRWords
        from img2table_ray.extract.pdftext import pdf_words_content

        pages = getattr(document, "pages", None)
        content = pdf_words_content(document.bytes, pages=pages)
        records = [w for page_words in content for w in page_words]
        return OCRWords.from_records(records)

    def content(self, document: "Document") -> list[list[dict]]:
        """Raw per-page word dicts — mirrors ``PdfOCR.content`` in the
        reference so its content.json golden applies directly."""
        from img2table_ray.extract.pdftext import pdf_words_content

        return pdf_words_content(document.bytes,
                                 pages=getattr(document, "pages", None))


class Document:
    """(ref document/base/__init__.py:24-63)"""

    def __init__(self, src: Union[str, Path, io.BytesIO, bytes],
                 detect_rotation: bool = False) -> None:
        if not isinstance(src, (str, Path, io.BytesIO, bytes)):
            raise TypeError(f"Invalid type {type(src)} for src argument")
        if not isinstance(detect_rotation, bool):
            raise TypeError(
                f"Invalid type {type(detect_rotation)} for detect_rotation argument")
        self.src = src
        self.detect_rotation = detect_rotation

    @property
    def bytes(self) -> bytes:
        if isinstance(self.src, bytes):
            return self.src
        if isinstance(self.src, io.BytesIO):
            self.src.seek(0)
            return self.src.read()
        with Path(self.src).open("rb") as f:
            return f.read()

    @property
    def images(self) -> list[np.ndarray]:
        """The pages as the reference's (H, W, 3) RGB; ``_pages``, which
        the extraction reads, keeps a gray page as one (H, W) plane."""
        return [np.repeat(p[:, :, None], 3, axis=2) if p.ndim == 2 else p
                for p in self._pages]

    @property
    def _pages(self) -> list[np.ndarray]:
        raise NotImplementedError

    def extract_tables(self, ocr: Optional[OCRInstance] = None,
                       implicit_rows: bool = False, implicit_columns: bool = False,
                       borderless_tables: bool = False,
                       min_confidence: int = 50) -> dict[int, list[ExtractedTable]]:
        """(ref base/__init__.py:114-142) {page: [ExtractedTable]}"""
        from img2table_ray.extract.document import extract_tables_from_image

        words = ocr.of(self) if ocr is not None else None
        out: dict[int, list[ExtractedTable]] = {}
        for idx, img in enumerate(self._pages):
            page_words = words.page(idx) if words is not None else None
            res = extract_tables_from_image(
                img, words=page_words, implicit_rows=implicit_rows,
                implicit_columns=implicit_columns,
                borderless_tables=borderless_tables,
                detect_rotation=self.detect_rotation,
                min_confidence=min_confidence)
            out[idx] = res.tables
        return out

    def to_xlsx(self, dest: Union[str, Path, io.BytesIO], **kwargs):
        """(ref base/__init__.py:144-189) one worksheet per extracted table."""
        from img2table_ray.core.xlsx import tables_to_xlsx

        tables = self.extract_tables(**kwargs)
        if isinstance(tables, list):  # Image returns the flat page-0 list
            tables = {0: tables}
        data = tables_to_xlsx(tables)
        if isinstance(dest, io.BytesIO):
            dest.write(data)
            dest.seek(0)
            return dest
        with Path(dest).open("wb") as f:
            f.write(data)
        return dest


class Image(Document):
    """(ref document/image.py): single-page image document.

    NB: unlike the reference (which returns page 0's list), extract_tables
    keeps the {page: tables} mapping for API uniformity; ``tables``
    property gives the flat list."""

    @property
    def _pages(self) -> list[np.ndarray]:
        from img2table_ray.imgops.png import decode_image

        return [decode_image(self.bytes)]

    def extract_tables(self, **kwargs) -> list[ExtractedTable]:  # type: ignore[override]
        return super().extract_tables(**kwargs)[0]


class MultiPageDocument(Document):
    """Multi-page document over the MPNG container (the repo's multi-page
    image stand-in; real PDFs are rendered by the :class:`PDF` class —
    see extract/pdf.py)."""

    def __init__(self, src, pages: Optional[list[int]] = None,
                 detect_rotation: bool = False) -> None:
        super().__init__(src, detect_rotation=detect_rotation)
        self.pages = sorted(pages) if isinstance(pages, list) else None

    @property
    def _pages(self) -> list[np.ndarray]:
        from img2table_ray.extract.pdf import split_mpng
        from img2table_ray.imgops.png import decode_image

        page_bytes = split_mpng(self.bytes)
        if self.pages is not None:
            page_bytes = [page_bytes[p] for p in self.pages]
        return [decode_image(b) for b in page_bytes]

    def extract_tables(self, **kwargs) -> dict[int, list[ExtractedTable]]:
        tables = super().extract_tables(**kwargs)
        if self.pages:
            # remap output keys to original page indices (ref base/__init__.py:138-140)
            tables = {self.pages[k]: v for k, v in tables.items()}
        return tables


class PDF(Document):
    """Native PDF document (ref document/pdf.py).

    The text layer (``PdfOCR``) is fully supported via the pure-Python
    parser; ``images`` — the @200-DPI page rasters the reference obtains
    from pypdfium2 (document/pdf.py:46-67) — come from the pure-Python
    VECTOR rasterizer (``extract/pdfraster.py``): drawn table rules are
    geometrically exact, glyph ink is approximated from the text layer,
    so ``extract_tables`` runs end-to-end (pinned against the reference's
    own fixture asserts in tests/test_pdfraster.py).  ``pages=[...]``
    selects pages as in the reference (pdf.py:21).
    """

    def __init__(self, src, pages: Optional[list[int]] = None,
                 detect_rotation: bool = False) -> None:
        super().__init__(src, detect_rotation=detect_rotation)
        if pages is not None:
            if (not isinstance(pages, list)
                    or any(not isinstance(p, int) for p in pages)):
                raise TypeError(f"Invalid type {type(pages)} for pages argument")
        self.pages = sorted(pages) if isinstance(pages, list) else None

    @property
    def n_pages(self) -> int:
        from img2table_ray.extract.pdftext import pdf_page_count

        return pdf_page_count(self.bytes)

    def words(self):
        """Native text-layer words (OCRWords) for the selected pages."""
        return PdfOCR().of(self)

    @property
    def _pages(self) -> list[np.ndarray]:
        from img2table_ray.extract.pdf import PdfiumRenderer

        return PdfiumRenderer().render(self.bytes, pages=self.pages)
