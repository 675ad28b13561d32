"""CCITT Group 3/4 fax codecs (ITU-T T.4 / T.6) for bilevel TIFF strips.

Implements Modified Huffman 1-D RLE (TIFF Compression=2), Group 4
MMR 2-D coding (Compression=4), and Group 3 with EOLs (Compression=3)
in both its 1-D and 2-D (T4Options bit 0) forms — the formats
scanned-document TIFFs in web crawls actually use.  G3 2-D lines are
tagged after each EOL (1 = 1-D coded, 0 = 2-D coded vs the previous
line); the 2-D line coder itself is T.6's, shared via _decode_2d_row.

The run-length code tables are transcribed from T.4 §2 (white/black
terminating + make-up codes, shared extended make-ups).  Both tables are
asserted prefix-free at import — a transcription typo in any code makes
some pair prefix-ambiguous with overwhelming likelihood, so the assert
is a real canary, and the encoder/decoder pair round-trips random and
structured bilevel images (they share the tables but not the mode
logic).

Convention: rows are numpy uint8 arrays of 0/1 where **1 = black**
(a "set" fax pixel); the TIFF layer maps photometric 0/1 onto gray.
No reference counterpart — the reference delegates to cv2/libtiff
(/root/reference/src/img2table/document/image.py:25-32).
"""

from __future__ import annotations

import numpy as np


class FaxError(ValueError):
    pass


# ---- T.4 run-length tables: {run_length: (code_value, bit_count)} -------

_WHITE_TERM = {
    0: ("00110101"), 1: ("000111"), 2: ("0111"), 3: ("1000"),
    4: ("1011"), 5: ("1100"), 6: ("1110"), 7: ("1111"),
    8: ("10011"), 9: ("10100"), 10: ("00111"), 11: ("01000"),
    12: ("001000"), 13: ("000011"), 14: ("110100"), 15: ("110101"),
    16: ("101010"), 17: ("101011"), 18: ("0100111"), 19: ("0001100"),
    20: ("0001000"), 21: ("0010111"), 22: ("0000011"), 23: ("0000100"),
    24: ("0101000"), 25: ("0101011"), 26: ("0010011"), 27: ("0100100"),
    28: ("0011000"), 29: ("00000010"), 30: ("00000011"), 31: ("00011010"),
    32: ("00011011"), 33: ("00010010"), 34: ("00010011"), 35: ("00010100"),
    36: ("00010101"), 37: ("00010110"), 38: ("00010111"), 39: ("00101000"),
    40: ("00101001"), 41: ("00101010"), 42: ("00101011"), 43: ("00101100"),
    44: ("00101101"), 45: ("00000100"), 46: ("00000101"), 47: ("00001010"),
    48: ("00001011"), 49: ("01010010"), 50: ("01010011"), 51: ("01010100"),
    52: ("01010101"), 53: ("00100100"), 54: ("00100101"), 55: ("01011000"),
    56: ("01011001"), 57: ("01011010"), 58: ("01011011"), 59: ("01001010"),
    60: ("01001011"), 61: ("00110010"), 62: ("00110011"), 63: ("00110100"),
}
_WHITE_MAKEUP = {
    64: ("11011"), 128: ("10010"), 192: ("010111"), 256: ("0110111"),
    320: ("00110110"), 384: ("00110111"), 448: ("01100100"),
    512: ("01100101"), 576: ("01101000"), 640: ("01100111"),
    704: ("011001100"), 768: ("011001101"), 832: ("011010010"),
    896: ("011010011"), 960: ("011010100"), 1024: ("011010101"),
    1088: ("011010110"), 1152: ("011010111"), 1216: ("011011000"),
    1280: ("011011001"), 1344: ("011011010"), 1408: ("011011011"),
    1472: ("010011000"), 1536: ("010011001"), 1600: ("010011010"),
    1664: ("011000"), 1728: ("010011011"),
}
_BLACK_TERM = {
    0: ("0000110111"), 1: ("010"), 2: ("11"), 3: ("10"),
    4: ("011"), 5: ("0011"), 6: ("0010"), 7: ("00011"),
    8: ("000101"), 9: ("000100"), 10: ("0000100"), 11: ("0000101"),
    12: ("0000111"), 13: ("00000100"), 14: ("00000111"),
    15: ("000011000"), 16: ("0000010111"), 17: ("0000011000"),
    18: ("0000001000"), 19: ("00001100111"), 20: ("00001101000"),
    21: ("00001101100"), 22: ("00000110111"), 23: ("00000101000"),
    24: ("00000010111"), 25: ("00000011000"), 26: ("000011001010"),
    27: ("000011001011"), 28: ("000011001100"), 29: ("000011001101"),
    30: ("000001101000"), 31: ("000001101001"), 32: ("000001101010"),
    33: ("000001101011"), 34: ("000011010010"), 35: ("000011010011"),
    36: ("000011010100"), 37: ("000011010101"), 38: ("000011010110"),
    39: ("000011010111"), 40: ("000001101100"), 41: ("000001101101"),
    42: ("000011011010"), 43: ("000011011011"), 44: ("000001010100"),
    45: ("000001010101"), 46: ("000001010110"), 47: ("000001010111"),
    48: ("000001100100"), 49: ("000001100101"), 50: ("000001010010"),
    51: ("000001010011"), 52: ("000000100100"), 53: ("000000110111"),
    54: ("000000111000"), 55: ("000000100111"), 56: ("000000101000"),
    57: ("000001011000"), 58: ("000001011001"), 59: ("000000101011"),
    60: ("000000101100"), 61: ("000001011010"), 62: ("000001100110"),
    63: ("000001100111"),
}
_BLACK_MAKEUP = {
    64: ("0000001111"), 128: ("000011001000"), 192: ("000011001001"),
    256: ("000001011011"), 320: ("000000110011"), 384: ("000000110100"),
    448: ("000000110101"), 512: ("0000001101100"), 576: ("0000001101101"),
    640: ("0000001001010"), 704: ("0000001001011"), 768: ("0000001001100"),
    832: ("0000001001101"), 896: ("0000001110010"), 960: ("0000001110011"),
    1024: ("0000001110100"), 1088: ("0000001110101"), 1152: ("0000001110110"),
    1216: ("0000001110111"), 1280: ("0000001010010"), 1344: ("0000001010011"),
    1408: ("0000001010100"), 1472: ("0000001010101"), 1536: ("0000001011010"),
    1600: ("0000001011011"), 1664: ("0000001100100"), 1728: ("0000001100101"),
}
_EXT_MAKEUP = {
    1792: ("00000001000"), 1856: ("00000001100"), 1920: ("00000001101"),
    1984: ("000000010010"), 2048: ("000000010011"), 2112: ("000000010100"),
    2176: ("000000010101"), 2240: ("000000010110"), 2304: ("000000010111"),
    2368: ("000000011100"), 2432: ("000000011101"), 2496: ("000000011110"),
    2560: ("000000011111"),
}


def _build(*tables: dict) -> dict:
    """bitstring -> run value decode map; asserts prefix-freeness."""
    out: dict[str, int] = {}
    for t in tables:
        for run, bits in t.items():
            if bits in out:
                raise AssertionError(f"duplicate fax code {bits}")
            out[bits] = run
    codes = sorted(out)
    for i, c in enumerate(codes):
        # strings extending c are lexicographically contiguous after c
        for d in codes[i + 1 :]:
            if not d.startswith(c):
                break
            raise AssertionError(f"fax table not prefix-free: {c} / {d}")
    return out


# EOL (000000000001) prefixes overlap legal code space only at the
# table boundary; decode handles EOL before run lookup.
_WHITE_DEC = _build(_WHITE_TERM, _WHITE_MAKEUP, _EXT_MAKEUP)
_BLACK_DEC = _build(_BLACK_TERM, _BLACK_MAKEUP, _EXT_MAKEUP)
_WHITE_ENC = {**{k: v for k, v in _WHITE_TERM.items()},
              **{k: v for k, v in _WHITE_MAKEUP.items()}, **_EXT_MAKEUP}
_BLACK_ENC = {**{k: v for k, v in _BLACK_TERM.items()},
              **{k: v for k, v in _BLACK_MAKEUP.items()}, **_EXT_MAKEUP}

_MAX_CODE_LEN = 14
_EOL = "000000000001"


class _Bits:
    """MSB-first bit reader over bytes."""

    def __init__(self, data: bytes) -> None:
        self.bits = np.unpackbits(np.frombuffer(data, np.uint8))
        self.pos = 0

    def read1(self) -> int:
        if self.pos >= len(self.bits):
            raise FaxError("truncated fax stream")
        v = int(self.bits[self.pos])
        self.pos += 1
        return v

    def align(self) -> None:
        self.pos = (self.pos + 7) & ~7

    def eof(self, slack: int = 0) -> bool:
        return self.pos + slack >= len(self.bits)


def _read_run(br: _Bits, white: bool) -> int:
    """One complete run length: make-up codes accumulate until a
    terminating code (< 64) arrives."""
    table = _WHITE_DEC if white else _BLACK_DEC
    total = 0
    while True:
        s = ""
        for _ in range(_MAX_CODE_LEN):
            s += "1" if br.read1() else "0"
            run = table.get(s)
            if run is not None:
                break
        else:
            raise FaxError(f"bad {'white' if white else 'black'} run code {s}")
        total += run
        if run < 64:
            return total


def _emit_run(out: list[str], run: int, white: bool) -> None:
    enc = _WHITE_ENC if white else _BLACK_ENC
    while run >= 64:
        step = min(2560, (run // 64) * 64)
        out.append(enc[step])
        run -= step
    out.append(enc[run])  # terminating code (< 64) always ends the run


def _changes_of(row: np.ndarray) -> list[int]:
    """Positions where the color changes (run starts), excluding 0 unless
    the row starts black; G3/G4 lines notionally start white."""
    d = np.flatnonzero(np.diff(row.astype(np.int8))) + 1
    ch = d.tolist()
    if len(row) and row[0] == 1:
        ch.insert(0, 0)
    return ch


def _pack_bits(bits: list[str]) -> bytes:
    """'0'/'1' code strings -> bytes, zero-padded to a byte."""
    s = "".join(bits)
    s += "0" * (-len(s) % 8)
    return np.packbits(
        np.frombuffer(s.encode(), np.uint8) - ord("0")).tobytes()


# ---- Modified Huffman 1-D (TIFF Compression=2) ---------------------------

def mh_decode(data: bytes, width: int, height: int) -> np.ndarray:
    """T.4 1-D RLE, each row starting white and byte-aligned (TIFF
    Compression=2 semantics).  Returns (height, width) uint8, 1=black."""
    br = _Bits(data)
    img = np.zeros((height, width), np.uint8)
    for y in range(height):
        pos = 0
        white = True
        while pos < width:
            run = _read_run(br, white)
            if pos + run > width:
                raise FaxError("MH run overruns row")
            if not white:
                img[y, pos : pos + run] = 1
            pos += run
            white = not white
        br.align()
    return img


# ---- Group 4 (T.6 MMR, TIFF Compression=4) -------------------------------

_G4_MODES = {
    "1": ("v", 0), "011": ("v", 1), "010": ("v", -1), "001": ("h", 0),
    "0001": ("p", 0), "000011": ("v", 2), "000010": ("v", -2),
    "0000011": ("v", 3), "0000010": ("v", -3),
}


def _decode_2d_row(br: _Bits, ref: list[int], width: int) -> list[int] | None:
    """One 2-D-coded line (shared by T.6 G4 and T.4 G3-2-D): returns the
    line's changing elements, or None when the stream ends (EOFB prefix /
    padding / exhaustion) instead of a mode code."""
    cur: list[int] = []
    a0 = -1
    white = True
    j = 0  # monotone cursor into ref (a0 never decreases)
    nref = len(ref)
    while a0 < width:
        # b1: first ref change > a0 with color opposite the current
        # color.  ref[i] starts a black run iff i is even (lines
        # notionally start white); changes alternate, so the parity
        # match is at j or j+1.
        while j < nref and ref[j] <= a0:
            j += 1
        jj = j if (j % 2 == 0) == white else j + 1
        b1 = ref[jj] if jj < nref else width
        b2 = ref[jj + 1] if jj + 1 < nref else width

        s = ""
        mode = None
        while len(s) < 7:
            if br.eof():
                return None  # stream ends exactly at last row's end
            s += "1" if br.read1() else "0"
            m = _G4_MODES.get(s)
            if m is not None:
                mode = m
                break
        if mode is None:
            if s == "0000000":
                return None  # EOFB / next EOL / zero padding
            raise FaxError(f"bad 2-D fax mode code {s}")

        kind, d = mode
        if kind == "p":
            a0 = b2  # run of the current color continues past b2
        elif kind == "h":
            r1 = _read_run(br, white)
            r2 = _read_run(br, not white)
            start = max(a0, 0)
            a1 = start + r1
            a2 = a1 + r2
            if a2 > width:
                raise FaxError("fax horizontal run overruns row")
            cur.append(a1)
            cur.append(a2)
            a0 = a2
        else:
            a1 = b1 + d
            if a1 < 0 or a1 > width or a1 <= a0:
                raise FaxError("fax vertical offset out of range")
            cur.append(a1)
            a0 = a1
            white = not white
    return cur


def _paint(img: np.ndarray, y: int, cur: list[int], width: int) -> None:
    for i in range(0, len(cur), 2):
        start = cur[i]
        end = cur[i + 1] if i + 1 < len(cur) else width
        img[y, start:end] = 1


def g4_decode(data: bytes, width: int, height: int) -> np.ndarray:
    br = _Bits(data)
    img = np.zeros((height, width), np.uint8)
    ref: list[int] = []  # changing elements of reference line
    for y in range(height):
        cur = _decode_2d_row(br, ref, width)
        if cur is None:
            return img
        _paint(img, y, cur, width)
        ref = [p for p in cur if p < width]
    return img


def _encode_2d_row(bits: list[str], cur: list[int], ref: list[int],
                   width: int) -> None:
    """Emit one 2-D-coded line (T.6 modes; also used for T.4 2-D lines)."""
    a0 = -1
    white = True
    j = 0   # monotone cursor into ref
    ci = 0  # monotone cursor into cur (both only need entries > a0)
    nref = len(ref)
    ncur = len(cur)
    while a0 < width:
        while j < nref and ref[j] <= a0:
            j += 1
        jj = j if (j % 2 == 0) == white else j + 1
        b1 = ref[jj] if jj < nref else width
        b2 = ref[jj + 1] if jj + 1 < nref else width
        # a1: next change in current line after a0 (of opposite color
        # by construction)
        while ci < ncur and cur[ci] <= a0:
            ci += 1
        a1 = cur[ci] if ci < ncur else width
        if b2 < a1:  # pass mode
            bits.append("0001")
            a0 = b2
            continue
        d = a1 - b1
        if -3 <= d <= 3:  # vertical
            bits.append({0: "1", 1: "011", -1: "010", 2: "000011",
                         -2: "000010", 3: "0000011", -3: "0000010"}[d])
            a0 = a1
            white = not white
            continue
        # horizontal
        a2 = cur[ci + 1] if ci + 1 < ncur else width
        start = max(a0, 0)
        bits.append("001")
        _emit_run(bits, a1 - start, white)
        _emit_run(bits, a2 - a1, not white)
        a0 = a2


def g4_encode(img: np.ndarray, with_eofb: bool = True) -> bytes:
    img = np.asarray(img, np.uint8)
    height, width = img.shape
    bits: list[str] = []
    ref: list[int] = []
    for y in range(height):
        cur = _changes_of(img[y])
        _encode_2d_row(bits, cur, ref, width)
        ref = cur
    if with_eofb:
        bits.append(_EOL + _EOL)
    return _pack_bits(bits)


# ---- Group 3 with EOLs (TIFF Compression=3) ------------------------------

def _skip_eol(br: _Bits) -> None:
    # EOL = 11 zeros minimum then a 1 (fill bits extend the zeros)
    zeros = 0
    while True:
        b = br.read1()
        if b:
            if zeros >= 11:
                return
            raise FaxError("expected G3 EOL")
        zeros += 1


def _decode_1d_row(br: _Bits, width: int) -> list[int]:
    """One 1-D-coded line as changing elements (even index = black
    start, matching the 2-D reference-line convention)."""
    ch: list[int] = []
    pos = 0
    white = True
    while pos < width:
        run = _read_run(br, white)
        if run == 0 and not (pos == 0 and white):
            # only the leading white run may be zero-length (a row that
            # starts black); elsewhere a zero run would stall the stream
            raise FaxError("zero-length fax run mid-line")
        if pos + run > width:
            raise FaxError("G3 run overruns row")
        pos += run
        white = not white
        if pos < width:
            ch.append(pos)
    return ch


def g3_1d_decode(data: bytes, width: int, height: int) -> np.ndarray:
    """T.4 1-D with EOL codes before each line (fill bits tolerated)."""
    br = _Bits(data)
    img = np.zeros((height, width), np.uint8)
    for y in range(height):
        _skip_eol(br)
        _paint(img, y, _decode_1d_row(br, width), width)
    return img


# ---- Group 3 2-D (T.4 §4.2.1, TIFF Compression=3 + T4Options bit 0) ------

def g3_2d_decode(data: bytes, width: int, height: int) -> np.ndarray:
    """T.4 2-D: every line is preceded by EOL plus a tag bit — 1 means
    the line is 1-D coded, 0 means 2-D coded against the previous line
    (using T.6's vertical/horizontal/pass modes).  The first line of a
    strip is 1-D by construction (its tag must be 1)."""
    br = _Bits(data)
    img = np.zeros((height, width), np.uint8)
    ref: list[int] = []
    for y in range(height):
        _skip_eol(br)
        tag = br.read1()
        if tag:
            cur: list[int] | None = _decode_1d_row(br, width)
        else:
            if y == 0:
                raise FaxError("G3 2-D strip must start with a 1-D line")
            cur = _decode_2d_row(br, ref, width)
            if cur is None:
                return img  # stream ended early (RTC / padding)
        _paint(img, y, cur, width)
        ref = [p for p in cur if p < width]
    return img


def _emit_1d_row(bits: list[str], ch: list[int], width: int) -> None:
    bounds = [0] + ch + [width]
    white = True
    for i in range(len(bounds) - 1):
        _emit_run(bits, bounds[i + 1] - bounds[i], white)
        white = not white


def g3_2d_encode(img: np.ndarray, k: int = 4) -> bytes:
    """T.4 2-D encoder: a 1-D line every k lines (the fax K factor),
    2-D lines in between.  No RTC — TIFF strips end at the row count."""
    img = np.asarray(img, np.uint8)
    height, width = img.shape
    bits: list[str] = []
    ref: list[int] = []
    for y in range(height):
        cur = _changes_of(img[y])
        if y % k == 0:
            bits.append(_EOL + "1")
            _emit_1d_row(bits, cur, width)
        else:
            bits.append(_EOL + "0")
            _encode_2d_row(bits, cur, ref, width)
        ref = cur
    return _pack_bits(bits)
