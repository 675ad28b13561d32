"""Native PDF text layer in pure Python (stdlib ``zlib`` only).

Replaces the pypdfium2 dependency of the reference's ``PdfOCR``
(ref: src/img2table/ocr/pdf.py:119-235): parses the PDF object graph and
content streams, interprets the text operators (BT/ET, Tf, Tc, Tw, Tz,
TL, Ts, Td, TD, Tm, T*, Tj, TJ, ', "), computes pdfium-style LOOSE char
boxes (glyph origin -> origin+advance horizontally, FontDescriptor
Ascent/Descent vertically, all through Tm x CTM), and groups chars into
words with the reference's own distance/correspondence logic and
200/72-DPI integer scaling.

Scope (documented limits, explicit errors — never wrong output):

* classic cross-reference PDFs whose objects appear as ``N 0 obj``
  bodies (object streams /ObjStm are not parsed);
* simple fonts (Type1 / TrueType, one byte per code) with /Widths;
  composite Type0 fonts raise ``PdfTextError``;
* /FlateDecode (or uncompressed) content streams.

The golden for all of this is the reference's OWN expected output:
``fixtures/pdf_content.json`` is tests/ocr/pdf/test_data/content.json —
pypdfium2 word boxes for tests/document/pdf/test_data/test.pdf — which
:func:`pdf_words_content` must reproduce exactly
(tests/test_pdftext.py).
"""

from __future__ import annotations

import re

import numpy as np

from img2table_ray.imgops.limits import bounded_decompress

SCALE = 200 / 72  # reference renders @200 DPI (document/pdf.py:57)


class PdfTextError(ValueError):
    pass


# ---- object-level parsing ------------------------------------------------

_WS = b"\x00\t\n\x0c\r "
_DELIM = b"()<>[]{}/%"


class _Name(str):
    """PDF name (distinct from a literal string)."""


class _Ref(tuple):
    """Indirect reference (num, gen)."""


class _Lexer:
    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.d = data
        self.i = pos
        self.n = len(data)

    def _skip_ws(self) -> None:
        d, n = self.d, self.n
        while self.i < n:
            c = d[self.i]
            if c in _WS:
                self.i += 1
            elif c == 0x25:  # % comment
                j = d.find(b"\n", self.i)
                self.i = n if j < 0 else j + 1
            else:
                return

    def token(self):
        """Next syntactic object (number/name/string/array/dict/keyword)."""
        self._skip_ws()
        if self.i >= self.n:
            return None
        d, i = self.d, self.i
        c = d[i]
        if c == 0x2F:  # /name
            j = i + 1
            while j < self.n and d[j] not in _WS and d[j] not in _DELIM:
                j += 1
            self.i = j
            raw = d[i + 1:j]
            # #xx hex escapes in names
            if b"#" in raw:
                raw = re.sub(rb"#([0-9A-Fa-f]{2})",
                             lambda m: bytes([int(m.group(1), 16)]), raw)
            return _Name(raw.decode("latin-1"))
        if c == 0x28:  # ( literal string
            return self._string()
        if d[i:i + 2] == b"<<":
            return self._dict()
        if c == 0x3C:  # <hex>
            j = d.find(b">", i)
            if j < 0:
                raise PdfTextError("unterminated hex string")
            h = re.sub(rb"[^0-9A-Fa-f]", b"", d[i + 1:j])
            if len(h) % 2:
                h += b"0"
            self.i = j + 1
            return bytes.fromhex(h.decode("ascii"))
        if c == 0x5B:  # [ array
            self.i = i + 1
            arr = []
            while True:
                self._skip_ws()
                if self.i < self.n and d[self.i] == 0x5D:
                    self.i += 1
                    return arr
                t = self.token()
                if t is None:
                    raise PdfTextError("unterminated array")
                arr.append(t)
        if c == 0x5D:  # stray ] (callers handle)
            self.i += 1
            return _Name("]")
        if c in b"+-.0123456789":
            j = i + 1
            while j < self.n and d[j] in b"+-.0123456789eE":
                j += 1
            self.i = j
            tok = d[i:j]
            # possible indirect reference "N G R"
            if tok.isdigit():
                save = self.i
                self._skip_ws()
                k = self.i
                while k < self.n and d[k] in b"0123456789":
                    k += 1
                if k > self.i:
                    gen = d[self.i:k]
                    m = k
                    while m < self.n and d[m] in _WS:
                        m += 1
                    if m < self.n and d[m:m + 1] == b"R" and (
                            m + 1 >= self.n or d[m + 1] in _WS
                            or d[m + 1] in _DELIM):
                        self.i = m + 1
                        return _Ref((int(tok), int(gen)))
                self.i = save
            try:
                return int(tok)
            except ValueError:
                try:
                    return float(tok)
                except ValueError:
                    raise PdfTextError(f"bad number {tok!r}") from None
        # keyword / operator
        j = i
        while j < self.n and d[j] not in _WS and d[j] not in _DELIM:
            j += 1
        if j == i:  # lone delimiter we don't handle
            self.i = i + 1
            return _Name(chr(c))
        self.i = j
        return _Kw(d[i:j].decode("latin-1"))

    def _string(self) -> bytes:
        d = self.d
        i = self.i + 1
        out = bytearray()
        depth = 1
        while i < self.n:
            c = d[i]
            if c == 0x5C:  # backslash
                i += 1
                if i >= self.n:
                    break
                e = d[i]
                if e in b"nrtbf":
                    out.append({0x6E: 10, 0x72: 13, 0x74: 9, 0x62: 8,
                                0x66: 12}[e])
                    i += 1
                elif e in b"01234567":
                    oct_ = bytes([e])
                    i += 1
                    for _ in range(2):
                        if i < self.n and d[i] in b"01234567":
                            oct_ += bytes([d[i]])
                            i += 1
                        else:
                            break
                    out.append(int(oct_, 8) & 0xFF)
                elif e in b"\r\n":  # line continuation
                    i += 1
                    if e == 0x0D and i < self.n and d[i] == 0x0A:
                        i += 1
                else:
                    out.append(e)
                    i += 1
            elif c == 0x28:
                depth += 1
                out.append(c)
                i += 1
            elif c == 0x29:
                depth -= 1
                if depth == 0:
                    self.i = i + 1
                    return bytes(out)
                out.append(c)
                i += 1
            else:
                out.append(c)
                i += 1
        raise PdfTextError("unterminated string")

    def _dict(self) -> dict:
        self.i += 2
        out = {}
        while True:
            self._skip_ws()
            if self.d[self.i:self.i + 2] == b">>":
                self.i += 2
                return out
            key = self.token()
            if key is None:
                raise PdfTextError("unterminated dict")
            if not isinstance(key, _Name):
                raise PdfTextError(f"dict key {key!r} is not a name")
            out[str(key)] = self.token()


class _Kw(str):
    """Bare keyword token (content operator, obj/endobj, true/false...)."""


def _post(v):
    if isinstance(v, _Kw):
        if v == "true":
            return True
        if v == "false":
            return False
        if v == "null":
            return None
    return v


class PdfDocument:
    """Minimal object-graph reader for classic-xref PDFs."""

    def __init__(self, data: bytes) -> None:
        if data[:5] != b"%PDF-":
            raise PdfTextError("not a PDF")
        self.data = data
        self._offsets: dict[int, int] = {}
        for m in re.finditer(rb"(?<![0-9])(\d+)\s+(\d+)\s+obj\b", data):
            self._offsets[int(m.group(1))] = m.end()
        if not self._offsets:
            raise PdfTextError("no indirect objects found (object streams "
                               "and linearized-only layouts are unsupported)")
        self._cache: dict[int, object] = {}

    def obj(self, num: int):
        if num in self._cache:
            return self._cache[num]
        off = self._offsets.get(num)
        if off is None:
            return None
        lex = _Lexer(self.data, off)
        val = _post(lex.token())
        lex._skip_ws()
        if isinstance(val, dict) and self.data[lex.i:lex.i + 6] == b"stream":
            j = lex.i + 6
            if self.data[j:j + 2] == b"\r\n":
                j += 2
            elif self.data[j:j + 1] in (b"\n", b"\r"):
                j += 1
            length = self.resolve(val.get("Length"))
            if not isinstance(length, int):
                raise PdfTextError("stream /Length unresolved")
            val = _Stream(val, self.data[j:j + length])
        self._cache[num] = val
        return val

    def resolve(self, v):
        seen = 0
        while isinstance(v, _Ref):
            v = self.obj(v[0])
            seen += 1
            if seen > 32:
                raise PdfTextError("reference cycle")
        return v

    def catalog(self) -> dict:
        for num in self._offsets:
            o = self.obj(num)
            if isinstance(o, dict) and o.get("Type") == "Catalog":
                return o
        raise PdfTextError("no /Catalog object")

    def pages(self) -> list[dict]:
        """Flattened page dicts with inherited attributes resolved."""
        cat = self.catalog()
        root = self.resolve(cat.get("Pages"))
        out: list[dict] = []
        inheritable = ("Resources", "MediaBox", "CropBox", "Rotate")

        def walk(node: dict, inherited: dict) -> None:
            merged = dict(inherited)
            for k in inheritable:
                if k in node:
                    merged[k] = node[k]
            if node.get("Type") == "Page":
                page = dict(node)
                for k, v in merged.items():
                    page.setdefault(k, v)
                out.append(page)
                return
            for kid in self.resolve(node.get("Kids")) or []:
                walk(self.resolve(kid), merged)

        walk(root, {})
        return out

    def content_bytes(self, page: dict) -> bytes:
        cont = self.resolve(page.get("Contents"))
        parts = cont if isinstance(cont, list) else [cont]
        out = []
        for p in parts:
            s = self.resolve(p)
            if isinstance(s, _Stream):
                out.append(s.decoded())
        return b"\n".join(out)


class _Stream:
    def __init__(self, d: dict, raw: bytes) -> None:
        self.dict = d
        self.raw = raw

    def decoded(self) -> bytes:
        filt = self.dict.get("Filter")
        if filt is None:
            return self.raw
        filters = filt if isinstance(filt, list) else [filt]
        data = self.raw
        for f in filters:
            if str(f) == "FlateDecode":
                if self.dict.get("DecodeParms") not in (None, {}):
                    raise PdfTextError("FlateDecode predictors unsupported")
                data = bounded_decompress(data, what="PDF stream")
            else:
                raise PdfTextError(f"stream filter /{f} unsupported")
        return data


# ---- fonts ---------------------------------------------------------------

# glyph names for /Differences arrays (AGL subset covering Latin text)
_GLYPH_NAMES = {
    "space": " ", "exclam": "!", "quotedbl": '"', "numbersign": "#",
    "dollar": "$", "percent": "%", "ampersand": "&", "quotesingle": "'",
    "parenleft": "(", "parenright": ")", "asterisk": "*", "plus": "+",
    "comma": ",", "hyphen": "-", "period": ".", "slash": "/",
    "colon": ":", "semicolon": ";", "less": "<", "equal": "=",
    "greater": ">", "question": "?", "at": "@", "bracketleft": "[",
    "backslash": "\\", "bracketright": "]", "asciicircum": "^",
    "underscore": "_", "grave": "`", "braceleft": "{", "bar": "|",
    "braceright": "}", "asciitilde": "~", "quoteleft": "‘",
    "quoteright": "’", "quotedblleft": "“",
    "quotedblright": "”", "endash": "–", "emdash": "—",
    "bullet": "•", "fi": "ﬁ", "fl": "ﬂ",
}
for _ch in "0123456789":
    _GLYPH_NAMES[
        ("zero one two three four five six seven eight nine".split())[int(_ch)]
    ] = _ch
for _ch in "abcdefghijklmnopqrstuvwxyz":
    _GLYPH_NAMES[_ch] = _ch
    _GLYPH_NAMES[_ch.upper()] = _ch.upper()


class _Font:
    """Simple (one-byte-code) font: widths + vertical metrics + decoding."""

    def __init__(self, doc: PdfDocument, fd: dict) -> None:
        fd = {k: doc.resolve(v) for k, v in fd.items()}
        subtype = str(fd.get("Subtype", ""))
        if subtype == "Type0":
            raise PdfTextError("composite Type0 fonts unsupported")
        self.first = doc.resolve(fd.get("FirstChar", 0)) or 0
        widths = doc.resolve(fd.get("Widths")) or []
        self.widths = [float(doc.resolve(w)) for w in widths]
        desc = doc.resolve(fd.get("FontDescriptor")) or {}
        desc = {k: doc.resolve(v) for k, v in desc.items()} if desc else {}
        self.missing = float(desc.get("MissingWidth", 0.0))
        self.ascent = float(desc.get("Ascent", 0.0))
        self.descent = float(desc.get("Descent", 0.0))
        if self.ascent == self.descent:
            # degenerate metrics: fall back to the font bounding box
            bbox = desc.get("FontBBox")
            if isinstance(bbox, list) and len(bbox) == 4:
                self.descent = float(bbox[1])
                self.ascent = float(bbox[3])
            else:
                self.ascent, self.descent = 750.0, -250.0
        self._dec = self._build_decoder(doc, fd)

    @staticmethod
    def _build_decoder(doc: PdfDocument, fd: dict):
        table: dict[int, str] = {}
        tu = doc.resolve(fd.get("ToUnicode"))
        if isinstance(tu, _Stream):
            table.update(_parse_tounicode(tu.decoded()))
        enc = doc.resolve(fd.get("Encoding"))
        base = None
        diffs = None
        if isinstance(enc, _Name):
            base = str(enc)
        elif isinstance(enc, dict):
            base = str(enc["BaseEncoding"]) if "BaseEncoding" in enc else None
            diffs = doc.resolve(enc.get("Differences"))
        codec = {"MacRomanEncoding": "mac_roman",
                 "WinAnsiEncoding": "cp1252"}.get(base, "latin-1")
        base_map = {}
        for c in range(256):
            try:
                base_map[c] = bytes([c]).decode(codec)
            except UnicodeDecodeError:
                base_map[c] = ""
        if diffs:
            code = 0
            for item in diffs:
                if isinstance(item, (int, float)):
                    code = int(item)
                else:
                    base_map[code] = _GLYPH_NAMES.get(str(item), "")
                    code += 1
        for c, v in base_map.items():
            table.setdefault(c, v)
        return table

    def width(self, code: int) -> float:
        i = code - self.first
        if 0 <= i < len(self.widths):
            return self.widths[i]
        return self.missing

    def decode(self, code: int) -> str:
        return self._dec.get(code, "")


def _parse_tounicode(cmap: bytes) -> dict[int, str]:
    out: dict[int, str] = {}

    def u(hexs: bytes) -> str:
        b = bytes.fromhex(hexs.decode("ascii"))
        return b.decode("utf-16-be", errors="ignore")

    for m in re.finditer(rb"beginbfchar(.*?)endbfchar", cmap, re.S):
        for src, dst in re.findall(rb"<([0-9A-Fa-f]+)>\s*<([0-9A-Fa-f]+)>",
                                   m.group(1)):
            out[int(src, 16)] = u(dst)
    for m in re.finditer(rb"beginbfrange(.*?)endbfrange", cmap, re.S):
        for lo, hi, dst in re.findall(
                rb"<([0-9A-Fa-f]+)>\s*<([0-9A-Fa-f]+)>\s*<([0-9A-Fa-f]+)>",
                m.group(1)):
            lo_i, hi_i = int(lo, 16), int(hi, 16)
            base = int(dst, 16)
            for c in range(lo_i, hi_i + 1):
                out[c] = chr(base + (c - lo_i))
    return out


# ---- content-stream interpretation ---------------------------------------
#
# All interpreter arithmetic is IEEE float32 (numpy scalars): pdfium's
# CFX_Matrix / FS_RECTF pipeline is single-precision, and the reference's
# int(... * 200 / 72) truncation regularly lands on exact pixel boundaries
# (the golden's PDF was authored on a 0.36 pt = exactly-1-device-pixel
# grid), so the float32 representation error decides which pixel a box
# edge truncates to.  Double precision here flips 22 of the golden's 217
# word boxes by one pixel.

_F = np.float32
_ID = (_F(1), _F(0), _F(0), _F(1), _F(0), _F(0))
_F0 = _F(0)
_F1000 = _F(1000)


def _mul(m1, m2):
    a1, b1, c1, d1, e1, f1 = m1
    a2, b2, c2, d2, e2, f2 = m2
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2,
            e1 * a2 + f1 * c2 + e2, e1 * b2 + f1 * d2 + f2)


def _apply(m, x, y):
    return (m[0] * x + m[2] * y + m[4], m[1] * x + m[3] * y + m[5])


def page_chars(doc: PdfDocument, page: dict,
               glyph_sink=None) -> list[tuple]:
    """Interpret a page's content stream -> [(value, x1, y1, x2, y2)] with
    pdfium loose-charbox semantics, in unrotated PDF user space.

    ``glyph_sink(font_resource_name, font, code, trm)`` — when given —
    is called once per shown character with the text RENDERING matrix
    (glyph space x1000 -> user space) at that character's pen position;
    the rasterizer uses it to paint real outlines.  The returned charbox
    list is unchanged either way (golden-pinned)."""
    resources = doc.resolve(page.get("Resources")) or {}
    font_res = doc.resolve(resources.get("Font")) or {}
    fonts: dict[str, _Font] = {}

    content = doc.content_bytes(page)
    lex = _Lexer(content)
    stack: list = []
    gs_stack: list = []
    # graphics + text state (float32 throughout — see module comment)
    ctm = _ID
    tc = tw = _F0
    th = _F(1)
    tl = rise = _F0
    fs = _F0
    font: _Font | None = None
    font_name: str = ""
    tm = tlm = _ID
    chars: list[tuple] = []
    op_buf: list[tuple] = []       # chars of the current show operator
    line_rect: list | None = None  # vertical extent of the current text line

    def num(v):
        return _F(v) if isinstance(v, (int, float)) else _F0

    def show(s: bytes) -> None:
        nonlocal tm
        if font is None:
            return
        full = _mul(tm, ctm)
        asc = rise + _F(font.ascent) / _F1000 * fs
        desc = rise + _F(font.descent) / _F1000 * fs
        for code in s:
            w0 = _F(font.width(code)) / _F1000
            adv = w0 * fs * th
            if glyph_sink is not None:
                glyph_sink(font_name, font, code,
                           _mul((float(fs) * float(th), 0.0, 0.0,
                                 float(fs), 0.0, float(rise)),
                                tuple(float(v) for v in full)))
            corners = (_apply(full, _F0, desc), _apply(full, _F0, asc),
                       _apply(full, adv, desc), _apply(full, adv, asc))
            xs = [p[0] for p in corners]
            ys = [p[1] for p in corners]
            op_buf.append((font.decode(code), float(min(xs)), float(min(ys)),
                           float(max(xs)), float(max(ys))))
            tx = (w0 * fs + tc + (tw if code == 32 else _F0)) * th
            tm = _mul((_F(1), _F0, _F0, _F(1), tx, _F0), tm)
            full = _mul(tm, ctm)

    def flush_op() -> None:
        """Close a show operator = one pdfium text object.

        Reproduces CPDF_TextPage's generated-character behavior as pinned
        by the reference golden (fixtures/pdf_content.json): a text object
        whose vertical extent does not overlap the current line starts a
        new line — a space-led object on a new line is dropped (pdfium
        never leads a line with a generated-adjacent space), a non-space
        object pops one trailing space and appends the generated "\\r\\n"
        pair before its chars.
        """
        nonlocal line_rect
        if not op_buf:
            return
        y1 = min(c[2] for c in op_buf)
        y2 = max(c[4] for c in op_buf)
        newline = line_rect is not None and (y2 <= line_rect[0]
                                             or y1 >= line_rect[1])
        buf = op_buf[:]
        op_buf.clear()
        if newline:
            while buf and buf[0][0] == " ":
                buf.pop(0)
            if not buf:
                return  # dropped space-only object: line unchanged
            if chars and chars[-1][0] == " ":
                chars.pop()
            chars.append(("\r", 0.0, 0.0, 0.0, 0.0))
            chars.append(("\n", 0.0, 0.0, 0.0, 0.0))
            line_rect = [y1, y2]
        elif line_rect is None:
            line_rect = [y1, y2]
        else:
            line_rect = [min(line_rect[0], y1), max(line_rect[1], y2)]
        chars.extend(buf)

    while True:
        tok = lex.token()
        if tok is None:
            break
        if not isinstance(tok, _Kw):
            stack.append(tok)
            continue
        op = str(tok)
        try:
            if op == "q":
                gs_stack.append((ctm, tc, tw, th, tl, rise, fs, font,
                                 font_name))
            elif op == "Q":
                if gs_stack:
                    (ctm, tc, tw, th, tl, rise, fs, font,
                     font_name) = gs_stack.pop()
            elif op == "cm":
                m = tuple(num(v) for v in stack[-6:])
                ctm = _mul(m, ctm)
            elif op == "BT":
                tm = tlm = _ID
            elif op == "ET":
                pass
            elif op == "Tf":
                fs = num(stack[-1])
                name = str(stack[-2])
                if name not in fonts:
                    fdict = doc.resolve(font_res.get(name))
                    fonts[name] = _Font(doc, fdict) if fdict else None
                font = fonts[name]
                font_name = name
            elif op == "Tc":
                tc = num(stack[-1])
            elif op == "Tw":
                tw = num(stack[-1])
            elif op == "Tz":
                th = num(stack[-1]) / _F(100)
            elif op == "TL":
                tl = num(stack[-1])
            elif op == "Ts":
                rise = num(stack[-1])
            elif op == "Td":
                tlm = _mul((_F(1), _F0, _F0, _F(1),
                            num(stack[-2]), num(stack[-1])), tlm)
                tm = tlm
            elif op == "TD":
                tl = -num(stack[-1])
                tlm = _mul((_F(1), _F0, _F0, _F(1),
                            num(stack[-2]), num(stack[-1])), tlm)
                tm = tlm
            elif op == "Tm":
                tm = tlm = tuple(num(v) for v in stack[-6:])
            elif op == "T*":
                tlm = _mul((_F(1), _F0, _F0, _F(1), _F0, -tl), tlm)
                tm = tlm
            elif op == "Tj":
                show(stack[-1] if isinstance(stack[-1], bytes) else b"")
                flush_op()
            elif op == "'":
                tlm = _mul((_F(1), _F0, _F0, _F(1), _F0, -tl), tlm)
                tm = tlm
                show(stack[-1] if isinstance(stack[-1], bytes) else b"")
                flush_op()
            elif op == '"':
                tw = num(stack[-3])
                tc = num(stack[-2])
                tlm = _mul((_F(1), _F0, _F0, _F(1), _F0, -tl), tlm)
                tm = tlm
                show(stack[-1] if isinstance(stack[-1], bytes) else b"")
                flush_op()
            elif op == "TJ":
                arr = stack[-1] if isinstance(stack[-1], list) else []
                for item in arr:
                    if isinstance(item, bytes):
                        show(item)
                    elif isinstance(item, (int, float)):
                        tx = -_F(item) / _F1000 * fs * th
                        tm = _mul((_F(1), _F0, _F0, _F(1), tx, _F0), tm)
                flush_op()
        finally:
            stack.clear()
    return chars


def page_has_images(doc: PdfDocument, page: dict) -> bool:
    resources = doc.resolve(page.get("Resources")) or {}
    xobjs = doc.resolve(resources.get("XObject")) or {}
    for v in xobjs.values():
        o = doc.resolve(v)
        if isinstance(o, _Stream) and str(o.dict.get("Subtype", "")) == "Image":
            return True
    return False


# ---- word grouping (port of ref ocr/pdf.py Char/Word logic) ---------------


class _Char:
    __slots__ = ("value", "x1", "y1", "x2", "y2")

    def __init__(self, value, x1, y1, x2, y2):
        self.value, self.x1, self.y1, self.x2, self.y2 = value, x1, y1, x2, y2

    @property
    def width(self):
        return (self.x2 - self.x1) or 1

    @property
    def height(self):
        return (self.y2 - self.y1) or 1

    def distance(self, other):
        return (((self.x2 + self.x1 - other.x2 - other.x1) / 2) ** 2
                + ((self.y2 + self.y1 - other.y2 - other.y1) / 2) ** 2) ** 0.5


class _Word:
    """Mirrors the reference's Word (ocr/pdf.py:33-117)."""

    def __init__(self, idx, line_idx, chars):
        self.idx, self.line_idx, self.chars = idx, line_idx, chars

    @property
    def x1(self):
        return min(c.x1 for c in self.chars) if self.chars else 0

    @property
    def y1(self):
        return min(c.y1 for c in self.chars) if self.chars else 0

    @property
    def x2(self):
        return max(c.x2 for c in self.chars) if self.chars else 0

    @property
    def y2(self):
        return max(c.y2 for c in self.chars) if self.chars else 0

    @property
    def width(self):
        return (self.x2 - self.x1) or 1

    @property
    def height(self):
        return (self.y2 - self.y1) or 1

    @property
    def value(self):
        return "".join(c.value for c in self.chars) if self.chars else None

    @property
    def direction(self):
        if len(self.chars) >= 3:
            if self.width / self.height >= 2:
                return "horizontal"
            if self.height / self.width >= 2:
                return "vertical"
        return "unknown"

    @property
    def size(self):
        if not self.chars:
            return 0
        if self.direction == "horizontal":
            return sum(c.width for c in self.chars) / len(self.chars)
        if self.direction == "vertical":
            return sum(c.height for c in self.chars) / len(self.chars)
        return sum(max(c.height, c.width) for c in self.chars) / len(self.chars)

    def distance(self, char):
        return self.chars[-1].distance(char) if self.chars else 0

    def corresponds(self, char):
        if not self.chars:
            return True
        if self.direction == "horizontal":
            return (min(self.y2, char.y2) - max(self.y1, char.y1)
                    >= 0.5 * min(self.height, char.height))
        if self.direction == "vertical":
            return (min(self.x2, char.x2) - max(self.x1, char.x1)
                    >= 0.5 * min(self.width, char.width))
        return self.distance(char) <= 3 * self.size

    def dict(self, page_idx):
        return {
            "page": page_idx,
            "class": "ocrx_word",
            "id": f"word_{page_idx + 1}_{self.line_idx}_{self.idx}",
            "parent": f"line_{page_idx + 1}_{self.line_idx}",
            "value": self.value,
            "confidence": 99,
            "x1": self.x1, "y1": self.y1, "x2": self.x2, "y2": self.y2,
        }


def pdf_words_content(data: bytes,
                      pages: list[int] | None = None) -> list[list[dict]]:
    """Word records per page, identical to the reference ``PdfOCR.content``
    (ref ocr/pdf.py:157-235) run through pypdfium2: loose char boxes,
    page-height y-flip, cropbox offsets, int truncation at 200/72 scale,
    then the reference's word/line grouping."""
    doc = PdfDocument(data)
    all_pages = doc.pages()
    sel = pages if pages is not None else list(range(len(all_pages)))

    list_pages = []
    for idx, page_number in enumerate(sel):
        page = all_pages[page_number]
        media = [float(doc.resolve(v)) for v in doc.resolve(page["MediaBox"])]
        crop = page.get("CropBox")
        crop = ([float(doc.resolve(v)) for v in doc.resolve(crop)]
                if crop else media)
        page_height = crop[3] - crop[1]
        x_offset, y_offset = crop[0], crop[1]
        # NOTE: the reference never applies /Rotate — its page_rotation
        # variable is accidentally bound to the cropbox tuple
        # (ocr/pdf.py:166), so the ==90/180/270 branches are dead.  We
        # reproduce the de-facto behavior (no rotation correction).

        word_id, line_id = 1, 1
        words = [_Word(1, 1, [])]
        for value, _x1, _y1, _x2, _y2 in page_chars(doc, page):
            x1 = int((_x1 - x_offset) * SCALE)
            y1 = int((page_height - _y2 + y_offset) * SCALE)
            x2 = int((_x2 - x_offset) * SCALE)
            y2 = int((page_height - _y1 + y_offset) * SCALE)
            char = _Char(value, min(x1, x2), min(y1, y2),
                         max(x1, x2), max(y1, y2))
            if char.value.strip() == "":
                word_id += 1
            elif words[-1].corresponds(char):
                if (words[-1].distance(char) <= 2 * words[-1].size
                        and word_id == words[-1].idx):
                    words[-1].chars.append(char)
                else:
                    word_id += 1
                    words.append(_Word(word_id, line_id, [char]))
            else:
                word_id += 1
                line_id += 1
                words.append(_Word(word_id, line_id, [char]))

        list_words = [w.dict(page_idx=idx) for w in words if w.value]
        if list_words:
            list_pages.append(list_words)
        elif not page_has_images(doc, page):
            list_pages.append([{
                "page": idx, "class": "ocr_page", "id": f"page_{idx + 1}",
                "parent": None, "value": None, "confidence": None,
                "x1": 0, "y1": 0,
                "x2": int((crop[2] - crop[0]) * SCALE),
                "y2": int(page_height * SCALE),
            }])
        else:
            list_pages.append([])
    return list_pages


def pdf_page_count(data: bytes) -> int:
    return len(PdfDocument(data).pages())
