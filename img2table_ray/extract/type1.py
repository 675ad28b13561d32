"""PostScript Type 1 font parser (PDF ``FontFile``), from the public
Adobe Type 1 Font Format specification.

Completes the embedded-font trio for the PDF rasterizer
(CFF/``FontFile3`` in ``extract/cff.py``, TrueType/``FontFile2`` in
``extract/ttf.py``): eexec decryption (r=55665), charstring decryption
(r=4330, lenIV skip), /Subrs and /CharStrings extraction from the
private portion, and a Type 1 charstring interpreter (hsbw, moveto/
lineto/curveto families, closepath, subrs, flex and hint-replacement
via OtherSubrs 0-3, div, seac accent composition approximated by the
base glyph).  Outlines come out in the same ('m'|'l'|'c') segment form
as the CFF/TTF parsers, nominally in a 1000-unit em (FontMatrix is
assumed 0.001 — universal for Type 1).
"""

from __future__ import annotations

import re
import struct


class Type1Error(ValueError):
    pass


_C1, _C2 = 52845, 22719


def _decrypt(data: bytes, r: int, skip: int) -> bytes:
    out = bytearray()
    for b in data:
        out.append(b ^ (r >> 8))
        r = ((b + r) * _C1 + _C2) & 0xFFFF
    return bytes(out[skip:])


# StandardEncoding for codes 32..126 (name order per the Type 1 spec)
_STD_ENC = [
    "space", "exclam", "quotedbl", "numbersign", "dollar", "percent",
    "ampersand", "quoteright", "parenleft", "parenright", "asterisk",
    "plus", "comma", "hyphen", "period", "slash", "zero", "one", "two",
    "three", "four", "five", "six", "seven", "eight", "nine", "colon",
    "semicolon", "less", "equal", "greater", "question", "at",
    "A", "B", "C", "D", "E", "F", "G", "H", "I", "J", "K", "L", "M",
    "N", "O", "P", "Q", "R", "S", "T", "U", "V", "W", "X", "Y", "Z",
    "bracketleft", "backslash", "bracketright", "asciicircum",
    "underscore", "quoteleft",
    "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m",
    "n", "o", "p", "q", "r", "s", "t", "u", "v", "w", "x", "y", "z",
    "braceleft", "bar", "braceright", "asciitilde",
]


class Type1Font:
    """Parsed Type 1 font: name-keyed glyph outlines + encoding."""

    def __init__(self, data: bytes) -> None:
        idx = data.find(b"eexec")
        if idx < 0:
            raise Type1Error("no eexec section")
        clear = data[:idx]
        enc = data[idx + 5 :].lstrip(b"\r\n\t ")
        # hex form detection: first 4 bytes all hex digits and the data
        # contains only hex/whitespace early on
        head = enc[:4]
        if all(c in b"0123456789abcdefABCDEF" for c in head):
            hex_part = re.sub(rb"[^0-9a-fA-F]", b"", enc)
            try:
                enc = bytes.fromhex(hex_part.decode("ascii"))
            except ValueError as exc:
                raise Type1Error("bad hex eexec data") from exc
        priv = _decrypt(enc, 55665, 4)

        m = re.search(rb"/lenIV\s+(\d+)", priv)
        len_iv = int(m.group(1)) if m else 4

        # /Subrs N array-of  dup <i> <n> RD <bin> NP
        self.subrs: list[bytes] = []
        ms = re.search(rb"/Subrs\s+(\d+)", priv)
        if ms:
            pos = ms.end()
            count = int(ms.group(1))
            self.subrs = [b""] * count
            for _ in range(count):
                md = re.compile(
                    rb"dup\s+(\d+)\s+(\d+)\s+(RD|-\|)[ ]").search(priv, pos)
                if not md:
                    break
                i, n = int(md.group(1)), int(md.group(2))
                start = md.end()
                if 0 <= i < count:
                    self.subrs[i] = _decrypt(priv[start : start + n], 4330,
                                             len_iv)
                pos = start + n

        # /CharStrings M dict dup begin  /<name> <n> RD <bin> ND
        self.charstrings: dict[str, bytes] = {}
        mc = re.search(rb"/CharStrings\s+(\d+)", priv)
        if not mc:
            raise Type1Error("no /CharStrings")
        pos = mc.end()
        pat = re.compile(rb"/([^\s/{}()<>\[\]]+)\s+(\d+)\s+(RD|-\|)[ ]")
        while True:
            md = pat.search(priv, pos)
            if not md:
                break
            name = md.group(1).decode("latin-1")
            n = int(md.group(2))
            start = md.end()
            self.charstrings[name] = _decrypt(priv[start : start + n], 4330,
                                              len_iv)
            pos = start + n

        # cleartext /Encoding: StandardEncoding or explicit dup puts
        self.encoding: dict[int, str] = {}
        if b"StandardEncoding" in clear:
            for code in range(32, 127):
                self.encoding[code] = _STD_ENC[code - 32]
        for md in re.finditer(rb"dup\s+(\d+)\s*/([^\s/]+)\s+put", clear):
            self.encoding[int(md.group(1))] = md.group(2).decode("latin-1")
        self._cache: dict[str, list] = {}

    def glyph_by_name(self, name: str):
        if name in self._cache:
            return self._cache[name]
        cs = self.charstrings.get(name)
        if cs is None:
            return None
        out = _Type1Interp(self).run(cs)
        self._cache[name] = out
        return out

    def glyph_by_code(self, code: int):
        name = self.encoding.get(code)
        if name is None:
            return None
        return self.glyph_by_name(name)


class _Type1Interp:
    def __init__(self, font: Type1Font) -> None:
        self.font = font
        self.x = 0.0
        self.y = 0.0
        self.contours: list = []
        self.cur: list | None = None
        self.stack: list = []
        self.ps_stack: list = []
        self.flex_pts: list = []
        self.in_flex = False
        self.depth = 0
        self.seac_parts: list | None = None

    def run(self, cs: bytes):
        self._exec(cs)
        self._close()
        if self.seac_parts:
            # accent composition: base glyph + accent at offset
            base_name, accent_name, adx, ady, asb = self.seac_parts
            for nm, dx, dy in ((base_name, 0.0, 0.0),
                               (accent_name, adx - asb, ady)):
                sub = self.font.glyph_by_name(nm) or []
                for cont in sub:
                    self.contours.append(
                        [(seg[0], *[v + (dx if i % 2 == 0 else dy)
                                    for i, v in enumerate(seg[1:])])
                         for seg in cont])
        return self.contours

    def _close(self) -> None:
        if self.cur is not None and len(self.cur) > 1:
            self.contours.append(self.cur)
        self.cur = None

    def _moveto(self) -> None:
        if self.in_flex:
            self.flex_pts.append((self.x, self.y))
            return
        self._close()
        self.cur = [("m", self.x, self.y)]

    def _exec(self, cs: bytes) -> None:
        self.depth += 1
        if self.depth > 32:
            raise Type1Error("charstring recursion")
        st = self.stack
        i = 0
        n = len(cs)
        while i < n:
            b0 = cs[i]
            if b0 >= 32:
                if b0 <= 246:
                    st.append(b0 - 139)
                    i += 1
                elif b0 <= 250:
                    st.append((b0 - 247) * 256 + cs[i + 1] + 108)
                    i += 2
                elif b0 <= 254:
                    st.append(-(b0 - 251) * 256 - cs[i + 1] - 108)
                    i += 2
                else:
                    st.append(struct.unpack(">i", cs[i + 1 : i + 5])[0])
                    i += 5
                continue
            i += 1
            if b0 == 13:  # hsbw: sbx wx
                if len(st) >= 2:
                    self.x = float(st[0])
                st.clear()
            elif b0 == 21:  # rmoveto
                if len(st) >= 2:
                    self.x += st[-2]
                    self.y += st[-1]
                self._moveto()
                st.clear()
            elif b0 == 22:  # hmoveto
                if st:
                    self.x += st[-1]
                self._moveto()
                st.clear()
            elif b0 == 4:  # vmoveto
                if st:
                    self.y += st[-1]
                self._moveto()
                st.clear()
            elif b0 == 5:  # rlineto
                if len(st) >= 2:
                    self.x += st[-2]
                    self.y += st[-1]
                    if self.cur is not None:
                        self.cur.append(("l", self.x, self.y))
                st.clear()
            elif b0 == 6:  # hlineto
                if st:
                    self.x += st[-1]
                    if self.cur is not None:
                        self.cur.append(("l", self.x, self.y))
                st.clear()
            elif b0 == 7:  # vlineto
                if st:
                    self.y += st[-1]
                    if self.cur is not None:
                        self.cur.append(("l", self.x, self.y))
                st.clear()
            elif b0 == 8:  # rrcurveto
                if len(st) >= 6:
                    self._rc(*st[-6:])
                st.clear()
            elif b0 == 30:  # vhcurveto
                if len(st) >= 4:
                    self._rc(0.0, st[-4], st[-3], st[-2], st[-1], 0.0)
                st.clear()
            elif b0 == 31:  # hvcurveto
                if len(st) >= 4:
                    self._rc(st[-4], 0.0, st[-3], st[-2], 0.0, st[-1])
                st.clear()
            elif b0 == 9:  # closepath
                self._close()
                st.clear()
            elif b0 == 10:  # callsubr
                if st:
                    idx = int(st.pop())
                    if 0 <= idx < len(self.font.subrs):
                        self._exec(self.font.subrs[idx])
            elif b0 == 11:  # return
                self.depth -= 1
                return
            elif b0 in (1, 3):  # hstem / vstem
                st.clear()
            elif b0 == 14:  # endchar
                self.depth -= 1
                return
            elif b0 == 12:
                b1 = cs[i]
                i += 1
                if b1 == 12:  # div
                    if len(st) >= 2:
                        b = st.pop()
                        a = st.pop()
                        st.append(a / b if b else 0.0)
                elif b1 == 16:  # callothersubr
                    if len(st) >= 2:
                        on = int(st.pop())
                        cnt = int(st.pop())
                        args = [st.pop() for _ in range(min(cnt, len(st)))]
                        args.reverse()
                        if on == 1:  # flex start
                            self.in_flex = True
                            self.flex_pts = []
                        elif on == 0:  # flex end: 7 collected points
                            self.in_flex = False
                            p = self.flex_pts
                            if len(p) >= 7 and self.cur is not None:
                                self.cur.append(("c", p[1][0], p[1][1],
                                                 p[2][0], p[2][1],
                                                 p[3][0], p[3][1]))
                                self.cur.append(("c", p[4][0], p[4][1],
                                                 p[5][0], p[5][1],
                                                 p[6][0], p[6][1]))
                                self.x, self.y = p[6]
                            self.ps_stack = [self.y, self.x]
                        elif on == 3:  # hint replacement
                            self.ps_stack = [3]
                        else:
                            self.ps_stack = list(reversed(args))
                elif b1 == 17:  # pop
                    st.append(self.ps_stack.pop() if self.ps_stack else 0)
                elif b1 == 6:  # seac: asb adx ady bchar achar
                    if len(st) >= 5:
                        asb, adx, ady, bch, ach = st[-5:]
                        std = _STD_ENC
                        bname = (std[int(bch) - 32]
                                 if 32 <= int(bch) < 127 else None)
                        aname = (std[int(ach) - 32]
                                 if 32 <= int(ach) < 127 else None)
                        if bname and aname:
                            self.seac_parts = [bname, aname, float(adx),
                                               float(ady), float(asb)]
                    st.clear()
                    self.depth -= 1
                    return
                elif b1 == 7:  # sbw
                    if len(st) >= 4:
                        self.x = float(st[0])
                        self.y = float(st[1])
                    st.clear()
                elif b1 == 33:  # setcurrentpoint
                    if len(st) >= 2:
                        self.x = float(st[-2])
                        self.y = float(st[-1])
                    st.clear()
                else:  # dotsection, vstem3, hstem3, unknowns
                    st.clear()
            else:
                st.clear()
        self.depth -= 1

    def _rc(self, dx1, dy1, dx2, dy2, dx3, dy3) -> None:
        x1 = self.x + dx1
        y1 = self.y + dy1
        x2 = x1 + dx2
        y2 = y1 + dy2
        self.x = x2 + dx3
        self.y = y2 + dy3
        if self.cur is not None:
            self.cur.append(("c", x1, y1, x2, y2, self.x, self.y))
