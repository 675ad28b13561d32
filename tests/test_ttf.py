"""TrueType (sfnt) outline parser tests + FontFile2 rasterizer path.

Test vector: the OS-shipped DejaVuSans.ttf (public font, used only as
a parser fixture — the corpus stays synthetic).  Structural pins
(contour counts, em-scaled extents, cmap routing) catch mis-parses
that a smoke test would miss; the e2e embeds the font in a minimal PDF
and asserts the rasterizer paints real glyph ink through the
FontFile2 provider.
"""

import numpy as np
import pytest

from img2table_ray.extract.pdfraster import render_pdf
from img2table_ray.extract.ttf import TtfError, TtfFont

DEJAVU = "/usr/share/fonts/truetype/dejavu/DejaVuSans.ttf"


@pytest.fixture(scope="module")
def dejavu() -> TtfFont:
    with open(DEJAVU, "rb") as f:
        return TtfFont(f.read())


def test_header_and_cmap(dejavu):
    assert dejavu.units_per_em == 2048
    assert dejavu.num_glyphs > 5000
    assert dejavu.cmap[ord("A")] > 0
    assert dejavu.glyph_for_char(" ") == []  # space: no ink


def _extent(outline):
    pts = [(seg[i], seg[i + 1]) for cont in outline for seg in cont
           for i in range(1, len(seg) - 1, 2)]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return min(xs), min(ys), max(xs), max(ys)


def test_glyph_structure(dejavu):
    # contour counts are font facts a mis-parse cannot reproduce
    assert len(dejavu.glyph_for_char("A")) == 2  # outline + counter
    assert len(dejavu.glyph_for_char("i")) == 2  # stem + dot
    assert len(dejavu.glyph_for_char("%")) == 5
    assert len(dejavu.glyph_for_char("8")) == 3
    x0, y0, x1, y1 = _extent(dejavu.glyph_for_char("A"))
    # 1000-unit-em scaling: cap height ~729, baseline 0
    assert y0 == 0 and 650 < y1 < 800
    x0, y0, x1, y1 = _extent(dejavu.glyph_for_char("Q"))
    assert y0 < -50  # tail descends


def test_rejects_non_sfnt():
    with pytest.raises(TtfError):
        TtfFont(b"not a font at all")


def _mini_pdf_with_ttf(text: bytes, font_bytes: bytes) -> bytes:
    widths = b"[" + b" ".join([b"650"] * 95) + b"]"
    objs = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 200 100]"
            b" /Contents 4 0 R /Resources << /Font << /F1 5 0 R >> >> >>"),
        4: None,  # filled below
        5: (b"<< /Type /Font /Subtype /TrueType /BaseFont /DejaVuSans"
            b" /FirstChar 32 /LastChar 126 /Widths " + widths
            + b" /FontDescriptor 6 0 R >>"),
        6: (b"<< /Type /FontDescriptor /FontName /DejaVuSans /Flags 32"
            b" /FontBBox [-100 -250 900 900] /ItalicAngle 0 /Ascent 760"
            b" /Descent -240 /CapHeight 729 /StemV 80 /FontFile2 7 0 R >>"),
        7: (b"<< /Length " + str(len(font_bytes)).encode()
            + b" /Length1 " + str(len(font_bytes)).encode()
            + b" >>\nstream\n" + font_bytes + b"\nendstream"),
    }
    content = b"BT /F1 24 Tf 20 40 Td (" + text + b") Tj ET"
    objs[4] = (b"<< /Length " + str(len(content)).encode()
               + b" >>\nstream\n" + content + b"\nendstream")
    parts = [b"%PDF-1.4"]
    for num in sorted(objs):
        parts.append(b"%d 0 obj\n" % num + objs[num] + b"\nendobj")
    parts.append(b"%%EOF")
    return b"\n".join(parts)


def test_fontfile2_rasterizer_path():
    with open(DEJAVU, "rb") as f:
        font_bytes = f.read()
    pdf = _mini_pdf_with_ttf(b"Hio", font_bytes)
    img = render_pdf(pdf, dpi=72)[0]
    ink = img < 128
    assert img.shape == (100, 200)
    # text baseline at user y=40 -> device row 60; 24pt caps ~17px tall
    band = ink[35:62, 15:100]
    assert 200 < band.sum() < 2000  # real glyph strokes, not solid boxes
    # the 'o' is a ring: its interior contains white (counter preserved)
    cols = np.where(ink.any(axis=0))[0]
    assert cols.min() >= 20  # starts at the pen position
    # H + i + o at 650/1000 * 24pt advances: roughly 3 glyph groups
    from img2table_ray.imgops.ccl import connected_components_with_stats

    n, _, stats = connected_components_with_stats(
        ink[:, :120].astype(np.uint8) * 255)
    assert 3 <= n - 1 <= 5  # H, i-stem, i-dot, o (some may touch)
