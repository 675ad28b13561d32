"""Vector-layer PDF rasterizer tests.

The headline golden is the reference's OWN e2e fixture assert set
(/root/reference/tests/document/pdf/test_pdf.py:49-73): per page of
test.pdf, two tables titled 'Example of Data Table N' with 5x4 content.
The reference's bboxes — (235,249,1442,543) and (236,672,1452,972) —
come from a pdfium render; our vector render reproduces the second
EXACTLY and the first within one pixel on one edge (pdfium antialiases
the rule edge; we draw hard pixel-center coverage).  Our exact values
are pinned so regressions can't hide inside the tolerance.

Unit tests drive the interpreter through a minimal hand-assembled PDF
(uncompressed streams; PdfDocument scans for ``N 0 obj``).
"""

from __future__ import annotations

import numpy as np
import pytest
import zlib

from img2table_ray.fixtures import fixture_bytes
from img2table_ray.extract.pdfraster import PdfRasterError, render_pdf


def _mini_pdf(content: bytes, media=(0, 0, 72, 72), extra_objs=(),
              resources=b"<< >>") -> bytes:
    """One-page classic PDF with an uncompressed content stream.
    ``extra_objs`` are (num, body_bytes) appended verbatim."""
    mb = " ".join(str(v) for v in media).encode()
    objs = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [" + mb
            + b"] /Contents 4 0 R /Resources " + resources + b" >>"),
        4: (b"<< /Length " + str(len(content)).encode()
            + b" >>\nstream\n" + content + b"\nendstream"),
    }
    for num, body in extra_objs:
        objs[num] = body
    out = [b"%PDF-1.4"]
    for num in sorted(objs):
        out.append(b"%d 0 obj\n" % num + objs[num] + b"\nendobj")
    out.append(b"%%EOF")
    return b"\n".join(out)


def _gray(img):
    """A rendered page: one (H, W) uint8 gray plane."""
    assert img.ndim == 2 and img.dtype == np.uint8
    return img


def test_rect_fill_and_y_flip():
    # user-space rect x:[10,30) y:[10,40) on a 72x72pt page at 72 dpi
    pdf = _mini_pdf(b"0 0 0 rg 10 10 20 30 re f")
    img = _gray(render_pdf(pdf, dpi=72)[0])
    assert img.shape == (72, 72)
    ink = img < 128
    rows = np.where(ink.any(axis=1))[0]
    cols = np.where(ink.any(axis=0))[0]
    # y flip: user y in [10, 40) -> device rows [72-40, 72-10) = [32, 62)
    assert (rows.min(), rows.max()) == (32, 61)
    assert (cols.min(), cols.max()) == (10, 29)
    assert ink.sum() == 30 * 20


def test_rect_clip_limits_fill():
    pdf = _mini_pdf(b"20 20 10 10 re W n 0 0 0 rg 0 0 72 72 re f")
    img = _gray(render_pdf(pdf, dpi=72)[0])
    ink = img < 128
    rows = np.where(ink.any(axis=1))[0]
    cols = np.where(ink.any(axis=0))[0]
    assert (cols.min(), cols.max()) == (20, 29)
    assert (rows.min(), rows.max()) == (72 - 30, 72 - 21)


def test_stroke_marks_diagonal_and_axis_lines():
    pdf = _mini_pdf(b"2 w 0 0 0 RG 0 0 m 72 72 l S 10 50 m 60 50 l S")
    img = _gray(render_pdf(pdf, dpi=72)[0])
    ink = img < 128
    # user (0,0)->(72,72) maps to device bottom-left -> top-right
    assert ink[70, 1] and ink[1, 70]
    assert not ink[2, 2] and not ink[70, 70]
    # horizontal segment at user y=50 -> device row 22
    assert ink[22, 15] and ink[22, 55]
    assert not ink[22, 5]


def test_evenodd_ring_vs_nonzero():
    inner = b"20 20 32 32 re "
    outer = b"10 10 52 52 re "
    ring = _mini_pdf(b"0 0 0 rg " + outer + inner + b"f*")
    solid = _mini_pdf(b"0 0 0 rg " + outer + inner + b"f")
    g_ring = _gray(render_pdf(ring, dpi=72)[0]) < 128
    g_solid = _gray(render_pdf(solid, dpi=72)[0]) < 128
    center = (72 - 36, 36)
    assert not g_ring[center]  # even-odd: hole
    assert g_solid[center]  # nonzero same-direction rects: filled
    assert g_ring[72 - 15, 15]  # ring band inked in both
    assert g_solid.sum() > g_ring.sum()


def test_bezier_fill_smoke():
    # filled curved wedge: must produce ink strictly inside the hull
    pdf = _mini_pdf(b"0 0 0 rg 10 10 m 10 60 l 30 60 70 30 70 10 c h f")
    img = _gray(render_pdf(pdf, dpi=72)[0])
    assert (img < 128).sum() > 400


def test_image_xobject_blit():
    raw = np.zeros((4, 4), np.uint8)
    raw[:2] = 40  # top half dark
    raw[2:] = 220
    comp = zlib.compress(raw.tobytes())
    xobj = (b"<< /Subtype /Image /Width 4 /Height 4 /BitsPerComponent 8"
            b" /ColorSpace /DeviceGray /Filter /FlateDecode /Length "
            + str(len(comp)).encode() + b" >>\nstream\n" + comp
            + b"\nendstream")
    res = b"<< /XObject << /Im1 5 0 R >> >>"
    content = b"q 40 0 0 40 16 16 cm /Im1 Do Q"
    pdf = _mini_pdf(content, extra_objs=[(5, xobj)], resources=res)
    img = _gray(render_pdf(pdf, dpi=72)[0])
    # image top half (dark) is the UPPER device half of the placed square
    assert abs(int(img[20, 36]) - 40) <= 1  # device row 20 = image top
    assert abs(int(img[50, 36]) - 220) <= 1
    assert img[5, 5] == 255  # outside untouched


def test_form_xobject_recursion():
    form = (b"<< /Subtype /Form /BBox [0 0 10 10] /Matrix [1 0 0 1 0 0]"
            b" /Length 26 >>\nstream\n0 0 0 rg 0 0 10 10 re f \nendstream")
    res = b"<< /XObject << /F1 5 0 R >> >>"
    pdf = _mini_pdf(b"q 2 0 0 2 30 30 cm /F1 Do Q", extra_objs=[(5, form)],
                    resources=res)
    img = _gray(render_pdf(pdf, dpi=72)[0])
    ink = img < 128
    rows = np.where(ink.any(axis=1))[0]
    cols = np.where(ink.any(axis=0))[0]
    # form unit rect scaled 2x at (30,30): user [30,50)^2 -> rows [22,42)
    assert (cols.min(), cols.max()) == (30, 49)
    assert (rows.min(), rows.max()) == (22, 41)


def test_triangular_clip_masks_fill():
    """A non-rect clip path must confine ink to the PATH, not its
    bounding box (the round-3 bbox approximation is gone)."""
    # triangle (10,10) (60,10) (10,60); fill the whole page black
    pdf = _mini_pdf(b"10 10 m 60 10 l 10 60 l h W n 0 0 0 rg 0 0 72 72 re f")
    img = _gray(render_pdf(pdf, dpi=72)[0])
    ink = img < 128
    # device y = 72 - user y.  inside the triangle: user (20, 20) ->
    # device (52, 20); outside (near bbox corner): user (55, 55) -> (17, 55)
    assert ink[52, 20]
    assert not ink[17, 55]  # inside the bbox but outside the triangle
    assert not ink[5, 5] and not ink[70, 70]  # outside the bbox
    # hypotenuse x+y=70: user (30,30) on the line; interior point (28,28)
    assert ink[72 - 28, 27]
    # no ink beyond the diagonal by more than the AA fringe
    xs, ys = [], []
    for r in range(72):
        for c in range(72):
            if ink[r, c]:
                u_x, u_y = c + 0.5, 72 - (r + 0.5)
                assert u_x + u_y <= 71.5, (r, c)


def test_page_rotate_90_and_180_match_pdfium_orientation():
    """/Rotate composes into the base CTM like pdfium's page.render:
    90/270 swap device dims; content lands where rotating the
    unrotated raster clockwise would put it (ADVICE r3)."""
    rect = b"0 0 0 rg 10 10 20 6 re f"

    def rot_pdf(rot):
        mb = b"0 0 72 36"
        objs = {
            1: b"<< /Type /Catalog /Pages 2 0 R >>",
            2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
            3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [" + mb
                + b"] /Rotate " + str(rot).encode()
                + b" /Contents 4 0 R /Resources << >> >>"),
            4: (b"<< /Length " + str(len(rect)).encode()
                + b" >>\nstream\n" + rect + b"\nendstream"),
        }
        out = [b"%PDF-1.4"]
        for num in sorted(objs):
            out.append(b"%d 0 obj\n" % num + objs[num] + b"\nendobj")
        out.append(b"%%EOF")
        return b"\n".join(out)

    base = _gray(render_pdf(rot_pdf(0), dpi=72)[0])
    assert base.shape == (36, 72)
    r90 = _gray(render_pdf(rot_pdf(90), dpi=72)[0])
    assert r90.shape == (72, 36)
    # rotating the unrotated raster 90 clockwise == the /Rotate 90 render
    np.testing.assert_array_equal(np.rot90(base, k=-1), r90)
    r180 = _gray(render_pdf(rot_pdf(180), dpi=72)[0])
    assert r180.shape == (36, 72)
    np.testing.assert_array_equal(np.rot90(base, k=2), r180)
    r270 = _gray(render_pdf(rot_pdf(270), dpi=72)[0])
    assert r270.shape == (72, 36)
    np.testing.assert_array_equal(np.rot90(base, k=1), r270)


def test_inline_image_ei_inside_payload_is_skipped():
    """The b'EI' pair inside an inline image's binary payload must not
    terminate the skip: resuming there lexes payload bytes as operators
    (here a full-page fill) (ADVICE r3)."""
    payload = b"\x01\x02EI\x03 0 0 0 rg 0 0 72 72 re f \x9c\xff"
    content = (b"BI /W 2 /H 2 /BPC 8 /CS /G ID " + payload
               + b" EI\n0 0 0 rg 10 10 20 6 re f")
    img = _gray(render_pdf(_mini_pdf(content), dpi=72)[0])
    ink = img < 128
    assert ink.sum() == 20 * 6  # only the real rect, no payload 'ops'
    rows = np.where(ink.any(axis=1))[0]
    cols = np.where(ink.any(axis=0))[0]
    assert (rows.min(), rows.max()) == (72 - 16, 72 - 11)
    assert (cols.min(), cols.max()) == (10, 29)


def test_fixture_render_shape_matches_reference():
    # ref test_pdf.py:40 — pdfium render shape (2200, 1700, 3), 2 pages;
    # the renderer gives the gray plane, api.PDF.images the RGB page
    from img2table_ray.api import PDF

    imgs = render_pdf(fixture_bytes("test.pdf"))
    assert len(imgs) == 2
    assert all(im.shape == (2200, 1700) for im in imgs)
    assert all(im.shape == (2200, 1700, 3)
               for im in PDF(fixture_bytes("test.pdf")).images)
    imgs0 = render_pdf(fixture_bytes("test.pdf"), pages=[0])
    assert len(imgs0) == 1
    with pytest.raises(PdfRasterError):
        render_pdf(fixture_bytes("test.pdf"), pages=[7])


@pytest.fixture(scope="module")
def pdf_result():
    from img2table_ray.api import PDF, PdfOCR

    pdf = PDF(fixture_bytes("test.pdf"))
    return pdf.extract_tables(ocr=PdfOCR(), implicit_rows=True,
                              min_confidence=50)


def test_pdf_e2e_reference_asserts(pdf_result):
    """Port of /root/reference/tests/document/pdf/test_pdf.py:49-73 —
    EXACT since the rasterizer antialiases like pdfium (the partially
    covered border pixels of table 1's fractional left rule survive the
    threshold and pull x1 to 235, exactly as the reference records)."""
    result = pdf_result
    ref = {
        (0, 0): ("Example of Data Table 1", (235, 249, 1442, 543)),
        (0, 1): ("Example of Data Table 2", (236, 672, 1452, 972)),
        (1, 0): ("Example of Data Table 3", (235, 249, 1442, 543)),
        (1, 1): ("Example of Data Table 4", (236, 672, 1452, 972)),
    }
    for (page, idx), (title, bbox) in ref.items():
        t = result[page][idx]
        assert t.title == title
        assert (len(t.content), len(t.content[0])) == (5, 4)
        assert (t.bbox.x1, t.bbox.y1, t.bbox.x2, t.bbox.y2) == bbox


def test_pdf_e2e_pinned_exact(pdf_result):
    """Spot content + table counts (bboxes pinned above)."""
    t1 = pdf_result[0][0]
    assert t1.content[0][0].value == "sample"  # the PDF's actual text
    assert len(pdf_result[0]) == 2 and len(pdf_result[1]) == 2


def _bare_raster(w=64, h=64):
    """Minimal _Raster shell for driving _fill_glyph directly (identity
    device map: trm translation == device pixels)."""
    from img2table_ray.extract.pdfraster import _Raster

    r = object.__new__(_Raster)
    r.canvas = np.full((h, w), 255, np.uint8)
    r.base = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    r._glyph_cache = {}
    return r


def _glyph_ink(tx: float, ty: float = 30.0):
    # 700 font units at size 12 = 8.4 device px: fractional extent makes
    # the binary mask's edge columns phase-sensitive
    outline = [[("m", 0, 0), ("l", 700, 0), ("l", 700, 700), ("l", 0, 700)]]
    r = _bare_raster()
    r._fill_glyph(("f", 65), outline, (12.0, 0.0, 0.0, 12.0, tx, ty))
    return r.canvas < 128


def _crop(mask):
    rows = np.where(mask.any(axis=1))[0]
    cols = np.where(mask.any(axis=0))[0]
    return mask[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]


def test_glyph_subpixel_phase(monkeypatch):
    """VERDICT r4 §next-4: glyph origins carry sub-pixel phase.  The same
    8.4 px glyph at x=10.0 vs x=10.25 must ink DIFFERENT patterns (the
    0.25-phase run majority-covers one more edge column); legacy
    whole-pixel placement (GLYPH_PHASE_STEPS=1) collapses both to the
    same blit — the failure this test exists to catch."""
    from img2table_ray.extract import pdfraster

    a = _crop(_glyph_ink(10.0))
    b = _crop(_glyph_ink(10.25))
    assert a.shape != b.shape or not np.array_equal(a, b), (
        "sub-pixel x phase did not change the glyph ink pattern")
    # y phase too
    ay = _crop(_glyph_ink(10.0, 30.0))
    by = _crop(_glyph_ink(10.0, 30.25))
    assert ay.shape != by.shape or not np.array_equal(ay, by)

    # whole-pixel placement FAILS this property: both runs collapse to
    # one identical bitmap at one identical position
    monkeypatch.setattr(pdfraster, "GLYPH_PHASE_STEPS", 1)
    a1 = _glyph_ink(10.0)
    b1 = _glyph_ink(10.25)
    assert np.array_equal(a1, b1)


def test_fixture_glyph_phase_engages(monkeypatch):
    """On the glyph-heavy reference fixture (test.pdf, embedded-font text
    at 200 DPI) phase-aware placement must actually change rendered ink
    vs whole-pixel placement — i.e. the fixture exercises fractional
    origins, so the phase path is live in the real pipeline."""
    from img2table_ray.extract import pdfraster

    pdf = fixture_bytes("test.pdf")
    img4 = pdfraster.render_pdf(pdf, pages=[0])[0]
    monkeypatch.setattr(pdfraster, "GLYPH_PHASE_STEPS", 1)
    img1 = pdfraster.render_pdf(pdf, pages=[0])[0]
    assert img4.shape == img1.shape
    assert (img4 != img1).any(), (
        "phase-aware and whole-pixel renders identical — phase path dead")
