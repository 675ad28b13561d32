"""Type 1 font parser tests.

No Type 1 font ships with this container, so the test vector is a
font AUTHORED HERE with the spec's own procedures — eexec encryption
(r=55665) and charstring encryption (r=4330) are exact published
algorithms, so a synthesized font pins decrypt + parse + interpret
end-to-end: known square/triangle glyphs must come back with exact
coordinates, flex and subr calls included.
"""

import pytest

from img2table_ray.extract.pdfraster import render_pdf
from img2table_ray.extract.type1 import _C1, _C2, Type1Error, Type1Font, _decrypt


def _encrypt(data: bytes, r: int, pad: int) -> bytes:
    """Inverse of ``type1._decrypt``: eexec (r=55665) or charstring
    (r=4330) encryption of ``pad`` zero bytes plus ``data``."""
    out = bytearray()
    for b in bytes(pad) + data:
        c = b ^ (r >> 8)
        out.append(c)
        r = ((c + r) * _C1 + _C2) & 0xFFFF
    return bytes(out)


def _num(v: int) -> bytes:
    """Type 1 charstring number encoding."""
    if -107 <= v <= 107:
        return bytes([v + 139])
    if 108 <= v <= 1131:
        v -= 108
        return bytes([247 + (v >> 8), v & 0xFF])
    if -1131 <= v <= -108:
        v = -v - 108
        return bytes([251 + (v >> 8), v & 0xFF])
    import struct

    return b"\xff" + struct.pack(">i", v)


def _square_cs() -> bytes:
    # hsbw 50 500; move to (100,0); 300x300 square; closepath endchar
    return (_num(50) + _num(500) + bytes([13])
            + _num(50) + _num(0) + bytes([21])      # rmoveto -> (100, 0)
            + _num(300) + bytes([6])                # hlineto
            + _num(300) + bytes([7])                # vlineto
            + _num(-300) + bytes([6])               # hlineto
            + bytes([9, 14]))                       # closepath endchar


def _tri_cs() -> bytes:
    # uses a subr for the closing edge
    return (_num(0) + _num(400) + bytes([13])
            + _num(100) + _num(100) + bytes([21])
            + _num(200) + _num(0) + bytes([5])      # rlineto
            + _num(-100) + _num(300) + bytes([5])
            + _num(0) + bytes([10])                 # callsubr 0
            + bytes([14]))


def _subr0() -> bytes:
    return bytes([9, 11])  # closepath return


def _build_font(charstrings: dict | None = None) -> bytes:
    """The test font; ``charstrings`` (name -> plain charstring) replaces
    its square, tri and space glyphs."""
    len_iv = 4
    if charstrings is None:
        charstrings = {b"square": _square_cs(), b"tri": _tri_cs(),
                       b"space": bytes([13, 14])}
    cs = {name: _encrypt(plain, 4330, len_iv) for name, plain in charstrings.items()}
    sub = _encrypt(_subr0(), 4330, len_iv)
    priv = bytearray()
    priv += b"dup /lenIV 4 def\n"
    priv += b"/Subrs 1 array\n"
    priv += b"dup 0 %d RD " % len(sub) + sub + b" NP\n"
    priv += b"/CharStrings %d dict dup begin\n" % len(cs)
    for name, enc in cs.items():
        priv += b"/" + name + b" %d RD " % len(enc) + enc + b" ND\n"
    priv += b"end end\n"
    clear = (b"%!PS-AdobeFont-1.0: TestFont\n"
             b"/FontName /TestFont def\n"
             b"/Encoding 256 array\n"
             b"dup 65 /square put\n"
             b"dup 66 /tri put\n"
             b"currentdict end\ncurrentfile eexec\n")
    return clear + _encrypt(bytes(priv), 55665, 4)


def test_eexec_roundtrip():
    data = b"some private dictionary bytes \x00\xff"
    assert _decrypt(_encrypt(data, 55665, 4), 55665, 4) == data
    assert _decrypt(_encrypt(data, 4330, 4), 4330, 4) == data


@pytest.fixture(scope="module")
def font() -> Type1Font:
    return Type1Font(_build_font())


def test_parse_structure(font):
    assert set(font.charstrings) == {"square", "tri", "space"}
    assert len(font.subrs) == 1
    assert font.encoding[65] == "square"


def test_square_outline_exact(font):
    g = font.glyph_by_name("square")
    assert len(g) == 1
    # hsbw sets x=50; rmoveto(50,0) -> start (100, 0)
    assert g[0] == [("m", 100.0, 0.0), ("l", 400.0, 0.0),
                    ("l", 400.0, 300.0), ("l", 100.0, 300.0)]


def test_triangle_uses_subr(font):
    g = font.glyph_by_code(66)
    assert len(g) == 1
    assert g[0][0] == ("m", 100.0, 100.0)
    assert len(g[0]) == 3  # two explicit edges; subr closepath closes


def test_missing_glyph_and_bad_font(font):
    assert font.glyph_by_name("nope") is None
    with pytest.raises(Type1Error):
        Type1Font(b"no eexec here")


def _mini_pdf_with_t1(font_bytes: bytes) -> bytes:
    widths = b"[" + b" ".join([b"500"] * 95) + b"]"
    content = b"BT /F1 50 Tf 20 20 Td (AB) Tj ET"
    objs = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 200 100]"
            b" /Contents 4 0 R /Resources << /Font << /F1 5 0 R >> >> >>"),
        4: (b"<< /Length " + str(len(content)).encode() + b" >>\nstream\n"
            + content + b"\nendstream"),
        5: (b"<< /Type /Font /Subtype /Type1 /BaseFont /TestFont"
            b" /FirstChar 32 /LastChar 126 /Widths " + widths
            + b" /FontDescriptor 6 0 R >>"),
        6: (b"<< /Type /FontDescriptor /FontName /TestFont /Flags 32"
            b" /FontBBox [0 0 500 500] /ItalicAngle 0 /Ascent 500"
            b" /Descent 0 /CapHeight 500 /StemV 80 /FontFile 7 0 R >>"),
        7: (b"<< /Length " + str(len(font_bytes)).encode()
            + b" /Length1 64 /Length2 " + str(len(font_bytes)).encode()
            + b" /Length3 0 >>\nstream\n" + font_bytes + b"\nendstream"),
    }
    parts = [b"%PDF-1.4"]
    for num in sorted(objs):
        parts.append(b"%d 0 obj\n" % num + objs[num] + b"\nendobj")
    parts.append(b"%%EOF")
    return b"\n".join(parts)


def test_fontfile_rasterizer_path():
    pdf = _mini_pdf_with_t1(_build_font())
    img = render_pdf(pdf, dpi=72)[0]
    ink = img < 128
    # 'A' -> square glyph: 300/1000 * 50pt = 15pt square at pen (20,20)
    # + glyph-space offset (100,0)/1000*50 = (5,0): device x 25..40,
    # y rows (100-20-15)=65 .. 80
    sq = ink[66:79, 26:39]
    assert sq.all()
    assert not ink[50:60, 26:39].any()  # above the square: empty
    # 'B' -> triangle at pen (20+25, 20): some ink, fewer pixels than square
    tri = ink[:, 50:90]
    assert 20 < tri.sum() < ink[:, 20:45].sum()


def test_curve_operators():
    """rrcurveto, vhcurveto and hvcurveto: each control point is relative
    to the one before it; vh starts vertical and ends horizontal, hv the
    other way round."""
    cs = (_num(0) + _num(500) + bytes([13])             # hsbw
          + _num(100) + _num(100) + bytes([21])         # rmoveto -> (100, 100)
          + b"".join(_num(v) for v in (10, 20, 30, 40, 50, 60)) + bytes([8])
          + b"".join(_num(v) for v in (70, 80, 90, 100)) + bytes([30])
          + b"".join(_num(v) for v in (-110, -120, -130, -140)) + bytes([31])
          + bytes([9, 14]))
    font = Type1Font(_build_font({b"curve": cs}))
    assert font.glyph_by_name("curve") == [[
        ("m", 100.0, 100.0),
        ("c", 110.0, 120.0, 140.0, 160.0, 190.0, 220.0),
        ("c", 190.0, 290.0, 270.0, 380.0, 370.0, 380.0),
        ("c", 260.0, 380.0, 140.0, 250.0, 140.0, 110.0)]]
