"""WebP lossless (VP8L) codec in pure Python/numpy.

Decode implements the complete VP8L bitstream: RIFF/VP8X container walk,
meta prefix (huffman) images, color cache, LZ77 backward references with
the 120-entry 2-D distance map, and all four transforms (predictor with
the full 14-mode set, color transform, subtract-green, color indexing
with pixel bundling).  Lossy ``VP8 `` chunks route to the intra-frame
decoder in ``vp8.py``, which is pinned pixel-exact against real libwebp
output (RFC 6386 tables in ``vp8_tables.py``, fancy chroma upsampling,
fixed-point YUV->RGB; tests/test_vp8_interop.py) — foreign
libwebp/libvpx streams decode for real since round 4.

The reference accepts WebP implicitly through cv2.imdecode
(/root/reference/src/img2table/document/image.py:25-32, libwebp under the
hood).  This is a from-spec reimplementation ("WebP Lossless Bitstream
Specification", Google, 2012/2023); structure follows the spec text, not
libwebp's code.

``encode_webp_lossless`` exists for tests and synthetic corpus rows: real
canonical-huffman literal coding with optional run-LZ77 (distance 1),
color cache, subtract-green / uniform-predictor / uniform-color-transform
/ color-indexing headers — enough to exercise every decoder path with
round-trips (encoder and decoder share only the spec, not code paths).

Per-pixel decode is a Python loop (entropy coding is inherently serial);
fine for the page sizes this engine sees per document — the batch-level
parallelism lives in Ray, not in the codec.
"""

from __future__ import annotations

import struct
from array import array

import numpy as np


class WebpError(ValueError):
    pass


# the 120-entry LZ77 distance map: (xoffset, yoffset) pairs covering
# x in [-7, 8], y in [0, 7] minus non-positive-x on y=0, ordered by
# squared distance, then larger y first, then positive x before negative
# (WebP lossless spec §4.2.2's explicit table, reproduced generatively)
_DIST_MAP = sorted(
    [(x, y) for x in range(-7, 9) for y in range(0, 8) if y > 0 or x > 0],
    key=lambda p: (p[0] * p[0] + p[1] * p[1], -p[1], 0 if p[0] >= 0 else 1),
)
assert len(_DIST_MAP) == 120

_CLC_ORDER = [17, 18, 0, 1, 2, 3, 4, 5, 16, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]


class _BitReader:
    """LSB-first bit reader."""

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.d = data
        self.byte = pos
        self.acc = 0
        self.nbits = 0

    def read(self, n: int) -> int:
        while self.nbits < n:
            if self.byte >= len(self.d):
                raise WebpError("truncated VP8L bitstream")
            self.acc |= self.d[self.byte] << self.nbits
            self.byte += 1
            self.nbits += 8
        v = self.acc & ((1 << n) - 1)
        self.acc >>= n
        self.nbits -= n
        return v

    def peek(self, n: int) -> int:
        """Next n bits without consuming; zero-padded past stream end."""
        while self.nbits < n and self.byte < len(self.d):
            self.acc |= self.d[self.byte] << self.nbits
            self.byte += 1
            self.nbits += 8
        return self.acc & ((1 << n) - 1)

    def consume(self, n: int) -> None:
        if self.nbits < n:
            raise WebpError("truncated VP8L bitstream")
        self.acc >>= n
        self.nbits -= n


class _Huff:
    """Canonical prefix decoder: codes assigned deflate-style (per-length
    in symbol order), transmitted MSB-of-code-first on the LSB-first
    stream.  Decode is a single flat-table lookup on W peeked bits
    (zlib-style: each code fills table slots at its bit-reversed value,
    stride 2^len), packed as (symbol << 4) | length."""

    def __init__(self, lengths: list[int],
                 explicit: list[tuple[int, int, int]] | None = None) -> None:
        # explicit: list of (symbol, length, code) — used by simple codes
        # where code 0 belongs to the first LISTED symbol, not the smaller
        if explicit is None:
            nz = [(s, l) for s, l in enumerate(lengths) if l > 0]
            if not nz:
                raise WebpError("empty prefix code")
            if len(nz) == 1:
                self.single: int | None = nz[0][0]
                # unified fast-path view: 0-bit lookup, symbol<<4 | len 0
                self.tbl = [nz[0][0] << 4]
                self.mask = 0
                return
            max_len = max(l for _, l in nz)
            bl_count = [0] * (max_len + 1)
            for _, l in nz:
                bl_count[l] += 1
            # Kraft: an over-subscribed code is corrupt
            if sum(bl_count[l] << (max_len - l)
                   for l in range(1, max_len + 1)) > (1 << max_len):
                raise WebpError("over-subscribed prefix code")
            code = 0
            next_code = [0] * (max_len + 1)
            for l in range(1, max_len + 1):
                code = (code + bl_count[l - 1]) << 1
                next_code[l] = code
            entries = []
            for s, l in nz:
                entries.append((s, l, next_code[l]))
                next_code[l] += 1
        else:
            entries = explicit
            max_len = max(l for _, l, _ in entries)
        self.single = None
        self.W = max_len
        table = np.full(1 << max_len, -1, np.int32)
        for s, l, c in entries:
            rev = 0
            for i in range(l):
                rev |= ((c >> i) & 1) << (l - 1 - i)
            table[rev :: 1 << l] = (s << 4) | l
        self.table = table
        # fast-path view for the pixel loop: plain Python list (numpy
        # scalar indexing costs ~3x a list index in the hot loop)
        self.tbl = table.tolist()
        self.mask = (1 << max_len) - 1

    def read(self, br: _BitReader) -> int:
        if self.single is not None:
            return self.single
        v = int(self.table[br.peek(self.W)])
        if v < 0:
            raise WebpError("invalid prefix code in stream")
        br.consume(v & 0xF)
        return v >> 4


def _read_prefix_code(br: _BitReader, alphabet_size: int) -> _Huff:
    if br.read(1):  # simple code: 1 or 2 symbols
        num_symbols = br.read(1) + 1
        first_8bit = br.read(1)
        s0 = br.read(8 if first_8bit else 1)
        lengths = [0] * alphabet_size
        if num_symbols == 1:
            if s0 >= alphabet_size:
                raise WebpError("simple-code symbol out of range")
            lengths[s0] = 1  # single-symbol: 0 bits consumed on read
            h = _Huff(lengths)
            return h
        s1 = br.read(8)
        if s0 >= alphabet_size or s1 >= alphabet_size or s0 == s1:
            raise WebpError("simple-code symbols invalid")
        # code 0 belongs to the FIRST listed symbol, not the smaller one
        return _Huff([], explicit=[(s0, 1, 0), (s1, 1, 1)])

    num_clc = 4 + br.read(4)
    cl_lengths = [0] * 19
    for i in range(num_clc):
        cl_lengths[_CLC_ORDER[i]] = br.read(3)
    cl = _Huff(cl_lengths)

    if br.read(1):  # limited number of coded symbols
        length_nbits = 2 + 2 * br.read(3)
        max_symbol = 2 + br.read(length_nbits)
        if max_symbol > alphabet_size:
            raise WebpError("coded symbol count exceeds alphabet")
    else:
        max_symbol = alphabet_size
    lengths = [0] * alphabet_size
    prev = 8  # default code length
    symbol = 0
    while symbol < alphabet_size:
        if max_symbol == 0:
            break
        max_symbol -= 1
        clen = cl.read(br)
        if clen < 16:
            lengths[symbol] = clen
            symbol += 1
            if clen:
                prev = clen
        else:
            if clen == 16:
                rep, fill = 3 + br.read(2), prev
            elif clen == 17:
                rep, fill = 3 + br.read(3), 0
            else:
                rep, fill = 11 + br.read(7), 0
            if symbol + rep > alphabet_size:
                raise WebpError("code-length repeat overruns alphabet")
            for _ in range(rep):
                lengths[symbol] = fill
                symbol += 1
    return _Huff(lengths)


class _Group:
    __slots__ = ("green", "red", "blue", "alpha", "dist")

    def __init__(self, br: _BitReader, cache_size: int) -> None:
        self.green = _read_prefix_code(br, 256 + 24 + cache_size)
        self.red = _read_prefix_code(br, 256)
        self.blue = _read_prefix_code(br, 256)
        self.alpha = _read_prefix_code(br, 256)
        self.dist = _read_prefix_code(br, 40)


def _decode_image_stream(br: _BitReader, xsize: int, ysize: int,
                         level0: bool):
    """Returns (pixels uint32 array len xsize*ysize, transforms) — the
    transforms list is only populated at level 0.

    The zero pad after the stream covers small bit-cursor overruns, but a
    truncated stream can keep decoding zero bits as valid symbols and walk
    the cursor arbitrarily far past the pad, so ``words[p >> 5]`` in the
    hot loop raises IndexError before the post-loop ``p > max_bits`` check
    fires.  Catch it here (free in the happy path) to keep the documented
    WebpError contract for direct callers."""
    try:
        return _decode_image_stream_inner(br, xsize, ysize, level0)
    except IndexError:
        raise WebpError("truncated VP8L bitstream") from None


def _decode_image_stream_inner(br: _BitReader, xsize: int, ysize: int,
                               level0: bool):
    transforms = []
    seen_types = set()
    if level0:
        while br.read(1):
            ttype = br.read(2)
            if ttype in seen_types:
                raise WebpError("duplicate transform")
            seen_types.add(ttype)
            if ttype == 0:  # predictor
                size_bits = br.read(3) + 2
                bx = -(-xsize // (1 << size_bits))
                by = -(-ysize // (1 << size_bits))
                data, _ = _decode_image_stream(br, bx, by, False)
                transforms.append(("predictor", size_bits, bx, data, xsize))
            elif ttype == 1:  # color transform
                size_bits = br.read(3) + 2
                bx = -(-xsize // (1 << size_bits))
                by = -(-ysize // (1 << size_bits))
                data, _ = _decode_image_stream(br, bx, by, False)
                transforms.append(("color", size_bits, bx, data, xsize))
            elif ttype == 2:  # subtract green
                transforms.append(("subtract_green",))
            else:  # color indexing
                n_colors = br.read(8) + 1
                pal, _ = _decode_image_stream(br, n_colors, 1, False)
                pal = np.cumsum(
                    pal.view(np.uint8).reshape(-1, 4), axis=0,
                    dtype=np.uint8).reshape(-1).view(np.uint32)
                if n_colors <= 2:
                    width_bits = 3
                elif n_colors <= 4:
                    width_bits = 2
                elif n_colors <= 16:
                    width_bits = 1
                else:
                    width_bits = 0
                transforms.append(("indexing", n_colors, width_bits, pal,
                                   xsize))
                xsize = -(-xsize // (1 << width_bits))

    cache_bits = 0
    if br.read(1):
        cache_bits = br.read(4)
        if not 1 <= cache_bits <= 11:
            raise WebpError(f"bad color-cache bits {cache_bits}")
    cache_size = (1 << cache_bits) if cache_bits else 0

    huff_img = None
    huff_bits = 0
    huff_xsize = 0
    n_groups = 1
    if level0 and br.read(1):  # meta prefix codes
        huff_bits = br.read(3) + 2
        hx = -(-xsize // (1 << huff_bits))
        hy = -(-ysize // (1 << huff_bits))
        img, _ = _decode_image_stream(br, hx, hy, False)
        huff_img = ((img >> 8) & 0xFFFF).astype(np.int64)
        huff_xsize = hx
        n_groups = int(huff_img.max()) + 1

    groups = [_Group(br, cache_size) for _ in range(n_groups)]

    # ---- hot pixel loop: inlined bit reads over precomputed 64-bit
    # windows (words[i] = little-endian u64 at byte offset 4i, so any
    # <=33-bit peek is one list index + shift), flat-list prefix tables,
    # absolute bit cursor p synced back into the sequential reader at the
    # end (sub-streams / later headers continue from br)
    data = br.d
    max_bits = len(data) * 8
    padded = data if isinstance(data, bytes) else bytes(data)
    w32 = np.frombuffer(padded + b"\0" * (12 - len(padded) % 4), "<u4")
    words = (w32[:-1].astype(np.uint64) | (w32[1:].astype(np.uint64) << np.uint64(32))).tolist()
    p = br.byte * 8 - br.nbits

    gtabs = [(g.green.tbl, g.green.mask, g.red.tbl, g.red.mask,
              g.blue.tbl, g.blue.mask, g.alpha.tbl, g.alpha.mask,
              g.dist.tbl, g.dist.mask) for g in groups]
    huff_row = None
    if huff_img is not None:
        huff_list = huff_img.tolist()

    total = xsize * ysize
    # array("I") gives C-speed slice copies like a list, but the final
    # numpy conversion is a zero-copy frombuffer instead of a 45ns/elem
    # list walk
    out = array("I", bytes(4 * total))
    cache = [0] * cache_size
    gt, gm, rt, rm, bt, bm, at, am, dt, dm = gtabs[0]
    # distances resolved per xsize once, not per reference
    dmap = [max(1, y * xsize + x) for x, y in _DIST_MAP]
    pos = 0
    x = 0
    y = 0
    cur_gx = -1
    cur_hy = -1
    while pos < total:
        if huff_img is not None:
            hy = y >> huff_bits
            if hy != cur_hy:
                base = hy * huff_xsize
                huff_row = huff_list[base : base + huff_xsize]
                cur_hy = hy
                cur_gx = -1
            gx = x >> huff_bits
            if gx != cur_gx:
                cur_gx = gx
                gt, gm, rt, rm, bt, bm, at, am, dt, dm = gtabs[huff_row[gx]]
        v = gt[(words[p >> 5] >> (p & 31)) & gm]
        if v < 0:
            raise WebpError("invalid prefix code in stream")
        p += v & 15
        s = v >> 4
        if s < 256:
            v = rt[(words[p >> 5] >> (p & 31)) & rm]
            p += v & 15
            red = v >> 4
            v = bt[(words[p >> 5] >> (p & 31)) & bm]
            p += v & 15
            blue = v >> 4
            v = at[(words[p >> 5] >> (p & 31)) & am]
            p += v & 15
            if v < 0 or red < 0 or blue < 0:
                raise WebpError("invalid prefix code in stream")
            pix = ((v >> 4) << 24) | (red << 16) | (s << 8) | blue
            out[pos] = pix
            pos += 1
            x += 1
            if x == xsize:
                x = 0
                y += 1
                cur_gx = -1
            if cache_size:
                cache[(0x1E35A7BD * pix & 0xFFFFFFFF) >> (32 - cache_bits)] = pix
        elif s < 280:
            code = s - 256
            if code < 4:
                length = code + 1
            else:
                extra = (code - 2) >> 1
                eb = (words[p >> 5] >> (p & 31)) & ((1 << extra) - 1)
                p += extra
                length = ((2 + (code & 1)) << extra) + eb + 1
            v = dt[(words[p >> 5] >> (p & 31)) & dm]
            if v < 0:
                raise WebpError("invalid prefix code in stream")
            p += v & 15
            code = v >> 4
            if code < 4:
                dcode = code + 1
            else:
                extra = (code - 2) >> 1
                eb = (words[p >> 5] >> (p & 31)) & ((1 << extra) - 1)
                p += extra
                dcode = ((2 + (code & 1)) << extra) + eb + 1
            dist = dcode - 120 if dcode > 120 else dmap[dcode - 1]
            if dist > pos or pos + length > total:
                raise WebpError("backward reference out of range")
            if dist >= length:
                out[pos : pos + length] = out[pos - dist : pos - dist + length]
            else:
                # overlapping copy = periodic repeat of the last `dist`
                # pixels; list multiplication keeps it C-speed
                run = out[pos - dist : pos] * (length // dist + 1)
                out[pos : pos + length] = run[:length]
            pos += length
            if cache_size:
                for pix in out[pos - length : pos]:
                    cache[(0x1E35A7BD * pix & 0xFFFFFFFF)
                          >> (32 - cache_bits)] = pix
            x += length
            if x >= xsize:
                y += x // xsize
                x %= xsize
                cur_gx = -1
        else:
            idx = s - 280
            if idx >= cache_size:
                raise WebpError("color-cache index out of range")
            out[pos] = cache[idx]
            pos += 1
            x += 1
            if x == xsize:
                x = 0
                y += 1
                cur_gx = -1
    # truncation check once after the (pos-bounded, so terminating) loop:
    # zero-padded reads past the end either hit an invalid table slot or
    # land here with the cursor past the stream
    if p > max_bits:
        raise WebpError("truncated VP8L bitstream")

    # sync the sequential reader to the absolute cursor
    br.byte = (p + 7) >> 3
    br.nbits = br.byte * 8 - p
    br.acc = (data[br.byte - 1] >> (8 - br.nbits)) if br.nbits else 0
    return np.frombuffer(out, np.uint32).copy(), transforms


# ---- inverse transforms --------------------------------------------------

def _avg2(a: int, b: int) -> int:
    return ((((a ^ b) & 0xFEFEFEFE) >> 1) + (a & b)) & 0xFFFFFFFF


def _clamp_add_sub_full(a: int, b: int, c: int) -> int:
    r = 0
    for sh in (24, 16, 8, 0):
        v = ((a >> sh) & 0xFF) + ((b >> sh) & 0xFF) - ((c >> sh) & 0xFF)
        r |= max(0, min(255, v)) << sh
    return r


def _clamp_add_sub_half(ave: int, c: int) -> int:
    r = 0
    for sh in (24, 16, 8, 0):
        a = (ave >> sh) & 0xFF
        d = a - ((c >> sh) & 0xFF)
        # C-style truncation toward zero
        v = a + (abs(d) // 2 if d >= 0 else -(abs(d) // 2))
        r |= max(0, min(255, v)) << sh
    return r


def _select(t: int, l: int, tl: int) -> int:
    p_l = p_t = 0
    for sh in (24, 16, 8, 0):
        tc = (t >> sh) & 0xFF
        lc = (l >> sh) & 0xFF
        tlc = (tl >> sh) & 0xFF
        p_t += abs(lc - tlc)  # error if predicting with T
        p_l += abs(tc - tlc)  # error if predicting with L
    return t if p_t <= p_l else l


def _apply_predictor_inverse(res: np.ndarray, xsize: int, ysize: int,
                             size_bits: int, bxsize: int,
                             modes: np.ndarray) -> np.ndarray:
    out = res.astype(np.uint32).copy()
    mode_green = ((modes >> 8) & 0xFF).astype(np.int64)
    mask = 0xFFFFFFFF
    for pos in range(xsize * ysize):
        x = pos % xsize
        y = pos // xsize
        if pos == 0:
            pred = 0xFF000000
        elif y == 0:
            pred = int(out[pos - 1])  # L
        elif x == 0:
            pred = int(out[pos - xsize])  # T
        else:
            m = int(mode_green[(y >> size_bits) * bxsize + (x >> size_bits)])
            L = int(out[pos - 1])
            T = int(out[pos - xsize])
            TL = int(out[pos - xsize - 1])
            TR = int(out[pos - xsize + 1])  # x==xsize-1 wraps to row start
            if m == 0:
                pred = 0xFF000000
            elif m == 1:
                pred = L
            elif m == 2:
                pred = T
            elif m == 3:
                pred = TR
            elif m == 4:
                pred = TL
            elif m == 5:
                pred = _avg2(_avg2(L, TR), T)
            elif m == 6:
                pred = _avg2(L, TL)
            elif m == 7:
                pred = _avg2(L, T)
            elif m == 8:
                pred = _avg2(TL, T)
            elif m == 9:
                pred = _avg2(T, TR)
            elif m == 10:
                pred = _avg2(_avg2(L, TL), _avg2(T, TR))
            elif m == 11:
                pred = _select(T, L, TL)
            elif m == 12:
                pred = _clamp_add_sub_full(L, T, TL)
            elif m == 13:
                pred = _clamp_add_sub_half(_avg2(L, T), TL)
            else:
                raise WebpError(f"invalid predictor mode {m}")
        # per-channel add mod 256
        p = int(res[pos])
        s = (((p & 0x00FF00FF) + (pred & 0x00FF00FF)) & 0x00FF00FF) | \
            (((p & 0xFF00FF00) + (pred & 0xFF00FF00)) & 0xFF00FF00)
        out[pos] = s & mask
    return out


def _ct_delta(t: int, c: int) -> int:
    """(int8(t) * int8(c)) >> 5 with arithmetic shift."""
    ts = t - 256 if t >= 128 else t
    cs = c - 256 if c >= 128 else c
    return (ts * cs) >> 5


def _apply_color_inverse(pix: np.ndarray, xsize: int, ysize: int,
                         size_bits: int, bxsize: int,
                         elems: np.ndarray) -> np.ndarray:
    out = pix.copy()
    for pos in range(xsize * ysize):
        x = pos % xsize
        y = pos // xsize
        e = int(elems[(y >> size_bits) * bxsize + (x >> size_bits)])
        g2r = e & 0xFF            # stored in blue channel
        g2b = (e >> 8) & 0xFF     # stored in green channel
        r2b = (e >> 16) & 0xFF    # stored in red channel
        v = int(out[pos])
        a = (v >> 24) & 0xFF
        r = (v >> 16) & 0xFF
        gch = (v >> 8) & 0xFF
        b = v & 0xFF
        r = (r + _ct_delta(g2r, gch)) & 0xFF
        b = (b + _ct_delta(g2b, gch) + _ct_delta(r2b, r)) & 0xFF
        out[pos] = (a << 24) | (r << 16) | (gch << 8) | b
    return out


def _apply_inverse_transforms(pix: np.ndarray, xsize: int, ysize: int,
                              transforms: list) -> tuple[np.ndarray, int]:
    """Inverse transforms in reverse read order; returns (pixels, xsize)."""
    for t in reversed(transforms):
        kind = t[0]
        if kind == "subtract_green":
            b = pix.view(np.uint8).reshape(-1, 4)  # little-endian: b,g,r,a
            g = b[:, 1]
            b[:, 2] += g
            b[:, 0] += g
        elif kind == "predictor":
            _, size_bits, bx, data, full_x = t
            pix = _apply_predictor_inverse(pix, full_x, ysize, size_bits,
                                           bx, data)
            xsize = full_x
        elif kind == "color":
            _, size_bits, bx, data, full_x = t
            pix = _apply_color_inverse(pix, full_x, ysize, size_bits, bx,
                                       data)
            xsize = full_x
        elif kind == "indexing":
            _, n_colors, width_bits, pal, full_x = t
            if width_bits:
                bpp = 8 >> width_bits
                per = 1 << width_bits
                greens = ((pix >> 8) & 0xFF).astype(np.uint16)
                packed_x = pix.size // ysize
                rows = greens.reshape(ysize, packed_x)
                idx = np.zeros((ysize, packed_x * per), np.uint16)
                for k in range(per):
                    idx[:, k::per] = (rows >> (k * bpp)) & ((1 << bpp) - 1)
                idx = idx[:, :full_x]
            else:
                idx = ((pix >> 8) & 0xFF).astype(np.uint16).reshape(
                    ysize, full_x)
            if int(idx.max()) >= n_colors:
                raise WebpError("palette index out of range")
            pix = pal[idx].reshape(-1)
            xsize = full_x
    return pix, xsize


# ---- container + top level ----------------------------------------------

def decode_vp8l(data: bytes) -> np.ndarray:
    """VP8L chunk payload -> (H, W, 3) uint8 RGB."""
    if len(data) < 5 or data[0] != 0x2F:
        raise WebpError("bad VP8L signature")
    br = _BitReader(data, 1)
    xsize = br.read(14) + 1
    ysize = br.read(14) + 1
    br.read(1)  # alpha-used hint
    version = br.read(3)
    if version != 0:
        raise WebpError(f"unsupported VP8L version {version}")
    if xsize * ysize > 1 << 26:
        raise WebpError(f"unreasonable VP8L dimensions {xsize}x{ysize}")
    pix, transforms = _decode_image_stream(br, xsize, ysize, True)
    pix, xsize = _apply_inverse_transforms(pix, xsize, ysize, transforms)
    b = pix.view(np.uint8).reshape(ysize, xsize, 4)  # LE: b, g, r, a
    return np.ascontiguousarray(b[:, :, [2, 1, 0]])


def _riff_chunks(data: bytes):
    """Yield (tag, payload) for each chunk in a RIFF/WEBP container."""
    pos = 12
    while pos + 8 <= len(data):
        tag = data[pos : pos + 4]
        (size,) = struct.unpack("<I", data[pos + 4 : pos + 8])
        yield tag, data[pos + 8 : pos + 8 + size]
        pos += 8 + size + (size & 1)  # chunks are word-aligned


def decode_webp(data: bytes, allow_foreign_vp8: bool = True) -> np.ndarray:
    """RIFF container -> first VP8L (lossless) or VP8 (lossy keyframe)
    image as (H, W, 3) uint8 RGB.

    Lossy ``VP8 `` chunks decode through ``vp8.py``, which since round 4
    carries the real RFC 6386 default tables (``vp8_tables.py``) and is
    pinned pixel-exact against libwebp output on foreign streams
    (tests/test_vp8_interop.py), so the round-3 self-encoded-only gate is
    gone.  ``allow_foreign_vp8`` is kept for signature compatibility and
    ignored."""
    del allow_foreign_vp8
    if data[:4] != b"RIFF" or data[8:12] != b"WEBP":
        raise WebpError("not a WebP file")
    for tag, payload in _riff_chunks(data):
        if tag == b"VP8L":
            return decode_vp8l(payload)
        if tag == b"VP8 ":
            from img2table_ray.imgops.vp8 import Vp8Error, decode_vp8

            try:
                return decode_vp8(payload)
            except Vp8Error as exc:
                raise WebpError(f"lossy WebP: {exc}") from exc
    raise WebpError("no decodable image chunk in WebP container")


# ---- encoder (tests + synthetic corpus rows) -----------------------------

class _BitWriter:
    def __init__(self) -> None:
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, val: int, n: int) -> None:
        assert 0 <= val < (1 << n) or n == 0
        self.acc |= val << self.nbits
        self.nbits += n
        while self.nbits >= 8:
            self.out.append(self.acc & 0xFF)
            self.acc >>= 8
            self.nbits -= 8

    def getvalue(self) -> bytes:
        if self.nbits:
            return bytes(self.out + bytes((self.acc & 0xFF,)))
        return bytes(self.out)


def _huffman_lengths(freqs: list[int], max_len: int = 15) -> list[int]:
    """Code lengths from frequencies (heap Huffman, then the DEFLATE-style
    overflow adjustment to respect max_len)."""
    import heapq

    used = [(f, s) for s, f in enumerate(freqs) if f > 0]
    n = len(freqs)
    lengths = [0] * n
    if not used:
        return lengths
    if len(used) == 1:
        lengths[used[0][1]] = 1
        return lengths
    heap = [(f, s, None) for f, s in used]
    heapq.heapify(heap)
    cnt = 0
    nodes = {}
    while len(heap) > 1:
        f1, i1, c1 = heapq.heappop(heap)
        f2, i2, c2 = heapq.heappop(heap)
        cnt += 1
        key = n + cnt
        nodes[key] = ((i1, c1), (i2, c2))
        heapq.heappush(heap, (f1 + f2, key, key))
    # walk depths
    stack = [(heap[0][1], heap[0][2], 0)]
    while stack:
        idx, child, depth = stack.pop()
        if child is None:
            lengths[idx] = max(1, depth)
            continue
        (i1, c1), (i2, c2) = nodes[child]
        stack.append((i1, c1, depth + 1))
        stack.append((i2, c2, depth + 1))
    # clamp overlong codes: repeatedly shorten by moving leaves up
    while max(lengths) > max_len:
        # find a deepest leaf and a leaf with length < max_len - ? simple
        # deflate trick: take two deepest, one becomes internal sibling of
        # a shallower leaf
        deep = max(range(n), key=lambda s: lengths[s])
        shallow = min((s for s in range(n) if 0 < lengths[s] < max_len),
                      key=lambda s: lengths[s])
        lengths[deep] -= 1
        lengths[shallow] += 1
    # Kraft may now be under-full; that's valid for decoding
    return lengths


def _canonical_codes(lengths: list[int]) -> dict[int, tuple[int, int]]:
    max_len = max(lengths)
    bl_count = [0] * (max_len + 1)
    for l in lengths:
        if l:
            bl_count[l] += 1
    code = 0
    next_code = [0] * (max_len + 1)
    for l in range(1, max_len + 1):
        code = (code + bl_count[l - 1]) << 1
        next_code[l] = code
    out = {}
    for s, l in enumerate(lengths):
        if l:
            out[s] = (next_code[l], l)
            next_code[l] += 1
    return out


def _write_code_msb(bw: _BitWriter, code: int, length: int) -> None:
    for i in range(length - 1, -1, -1):
        bw.write((code >> i) & 1, 1)


def _write_prefix_code(bw: _BitWriter, lengths: list[int]) -> dict:
    """Writes a prefix-code header; returns sym -> (code, len) for payload
    emission (empty codes get a 1-symbol placeholder)."""
    nz = [s for s, l in enumerate(lengths) if l > 0]
    if not nz:
        # placeholder: simple code, single symbol 0
        bw.write(1, 1)  # simple
        bw.write(0, 1)  # num_symbols - 1 = 0
        bw.write(0, 1)  # 1-bit symbol
        bw.write(0, 1)  # symbol 0
        return {0: (0, 0)}
    if len(nz) == 1 and nz[0] < 256:
        s = nz[0]
        bw.write(1, 1)
        bw.write(0, 1)
        if s < 2:
            bw.write(0, 1)
            bw.write(s, 1)
        else:
            bw.write(1, 1)
            bw.write(s, 8)
        return {s: (0, 0)}
    if len(nz) == 2 and all(s < 256 for s in nz) and all(
            lengths[s] == 1 for s in nz):
        s0, s1 = nz
        bw.write(1, 1)
        bw.write(1, 1)  # two symbols
        if s0 < 2:
            bw.write(0, 1)
            bw.write(s0, 1)
        else:
            bw.write(1, 1)
            bw.write(s0, 8)
        bw.write(s1, 8)
        return {s0: (0, 1), s1: (1, 1)}

    # normal code.  If only one symbol is used but it's >= 256, grow to a
    # 2-symbol code so the canonical build is well-formed.
    lengths = list(lengths)
    if len(nz) == 1:
        lengths[nz[0]] = 1
        lengths[0] = 1
    bw.write(0, 1)  # not simple
    # code-length code over the length VALUES used
    cl_freq = [0] * 19
    for l in lengths:
        cl_freq[l] += 1
    cl_lengths = _huffman_lengths(cl_freq, max_len=7)
    bw.write(15, 4)  # num_code_lengths = 19
    for sym in _CLC_ORDER:
        bw.write(cl_lengths[sym], 3)
    bw.write(0, 1)  # no max-symbol shortcut
    cl_nz = [s for s, l in enumerate(cl_lengths) if l]
    if len(cl_nz) == 1:
        cl_codes = {cl_nz[0]: (0, 0)}  # single-symbol: zero bits
    else:
        cl_codes = _canonical_codes(cl_lengths)
    for l in lengths:
        c, ln = cl_codes[l]
        _write_code_msb(bw, c, ln)
    return _canonical_codes(lengths)


def _prefix_encode(value: int) -> tuple[int, int, int]:
    """value >= 1 -> (prefix_code, extra_bits, extra_value)."""
    if value <= 4:
        return value - 1, 0, 0
    for code in range(4, 40):
        extra = (code - 2) >> 1
        offset = (2 + (code & 1)) << extra
        if offset + 1 <= value <= offset + (1 << extra):
            return code, extra, value - offset - 1
    raise WebpError(f"prefix value {value} out of range")


_DIST1_PLANE = _DIST_MAP.index((1, 0)) + 1  # plane code for distance 1


def _tokenize(argb: list[int], cache_bits: int, run_lz77: bool):
    """Token stream + the 5 alphabets' frequency tables."""
    cache_size = (1 << cache_bits) if cache_bits else 0
    cache = [0] * cache_size
    f_green = [0] * (256 + 24 + cache_size)
    f_red = [0] * 256
    f_blue = [0] * 256
    f_alpha = [0] * 256
    f_dist = [0] * 40
    tokens = []
    n = len(argb)
    pos = 0
    while pos < n:
        pix = argb[pos]
        if run_lz77 and pos > 0 and pix == argb[pos - 1]:
            run = 1
            while pos + run < n and argb[pos + run] == pix and run < 4096:
                run += 1
            if run >= 4:
                lc, _, _ = _prefix_encode(run)
                dc, _, _ = _prefix_encode(_DIST1_PLANE)
                f_green[256 + lc] += 1
                f_dist[dc] += 1
                tokens.append(("copy", run, _DIST1_PLANE))
                if cache_size:
                    for k in range(run):
                        p = argb[pos + k]
                        cache[(0x1E35A7BD * p & 0xFFFFFFFF)
                              >> (32 - cache_bits)] = p
                pos += run
                continue
        if cache_size:
            idx = (0x1E35A7BD * pix & 0xFFFFFFFF) >> (32 - cache_bits)
            if cache[idx] == pix:
                f_green[280 + idx] += 1
                tokens.append(("cache", idx))
                pos += 1
                continue
            cache[idx] = pix
        f_green[(pix >> 8) & 0xFF] += 1
        f_red[(pix >> 16) & 0xFF] += 1
        f_blue[pix & 0xFF] += 1
        f_alpha[(pix >> 24) & 0xFF] += 1
        tokens.append(("lit", pix))
        pos += 1
    return tokens, (f_green, f_red, f_blue, f_alpha, f_dist)


def _encode_image_stream(bw: _BitWriter, argb: list[int], level0: bool,
                         cache_bits: int = 0, run_lz77: bool = False) -> None:
    if cache_bits:
        bw.write(1, 1)
        bw.write(cache_bits, 4)
    else:
        bw.write(0, 1)
    if level0:
        bw.write(0, 1)  # no meta prefix codes
    tokens, freqs = _tokenize(argb, cache_bits, run_lz77)
    codes = [
        _write_prefix_code(bw, _huffman_lengths(f)) for f in freqs
    ]
    green, red, blue, alpha, dist = codes
    for tok in tokens:
        if tok[0] == "lit":
            pix = tok[1]
            for table, sym in ((green, (pix >> 8) & 0xFF),
                               (red, (pix >> 16) & 0xFF),
                               (blue, pix & 0xFF),
                               (alpha, (pix >> 24) & 0xFF)):
                c, ln = table[sym]
                _write_code_msb(bw, c, ln)
        elif tok[0] == "copy":
            _, length, plane = tok
            lc, le, lv = _prefix_encode(length)
            c, ln = green[256 + lc]
            _write_code_msb(bw, c, ln)
            bw.write(lv, le)
            dc, de, dv = _prefix_encode(plane)
            c, ln = dist[dc]
            _write_code_msb(bw, c, ln)
            bw.write(dv, de)
        else:
            c, ln = green[280 + tok[1]]
            _write_code_msb(bw, c, ln)


def _delta_sub(a: int, b: int) -> int:
    """Per-channel (a - b) mod 256 on packed ARGB."""
    r = 0
    for sh in (24, 16, 8, 0):
        r |= ((((a >> sh) & 0xFF) - ((b >> sh) & 0xFF)) & 0xFF) << sh
    return r


def encode_webp_lossless(arr: np.ndarray, cache_bits: int = 0,
                         run_lz77: bool = True,
                         subtract_green: bool = False,
                         predictor_mode: int | None = None,
                         color_transform: tuple[int, int, int] | None = None,
                         palette: bool = False) -> bytes:
    """(H,W,3) RGB or (H,W) gray uint8 -> lossless WebP.

    The transform options emit spec-complete headers with uniform
    parameters (single block / uniform element) — enough to round-trip
    every inverse-transform path in the decoder."""
    if arr.ndim == 2:
        arr = np.repeat(arr[:, :, None], 3, axis=2)
    h, w, _ = arr.shape
    a = np.full((h, w), 255, np.uint8)
    argb = ((a.astype(np.uint32) << 24)
            | (arr[:, :, 0].astype(np.uint32) << 16)
            | (arr[:, :, 1].astype(np.uint32) << 8)
            | arr[:, :, 2].astype(np.uint32)).reshape(-1)
    pix = [int(v) for v in argb]

    bw = _BitWriter()
    bw.write(w - 1, 14)
    bw.write(h - 1, 14)
    bw.write(0, 1)  # no alpha
    bw.write(0, 3)  # version

    xsize = w
    if palette:
        uniq = sorted(set(pix))
        if len(uniq) > 256:
            raise WebpError(f"{len(uniq)} colors: not palettizable")
        lut = {p: i for i, p in enumerate(uniq)}
        n_col = len(uniq)
        bw.write(1, 1)
        bw.write(3, 2)  # color indexing
        bw.write(n_col - 1, 8)
        deltas = [uniq[0]] + [_delta_sub(uniq[i], uniq[i - 1])
                              for i in range(1, n_col)]
        _encode_image_stream(bw, deltas, level0=False)
        idx = [lut[p] for p in pix]
        if n_col <= 2:
            width_bits = 3
        elif n_col <= 4:
            width_bits = 2
        elif n_col <= 16:
            width_bits = 1
        else:
            width_bits = 0
        if width_bits:
            per = 1 << width_bits
            bpp = 8 >> width_bits
            packed_x = -(-w // per)
            pk = []
            for y in range(h):
                for bx in range(packed_x):
                    v = 0
                    for k in range(per):
                        x = bx * per + k
                        if x < w:
                            v |= idx[y * w + x] << (k * bpp)
                    pk.append(0xFF000000 | (v << 8))
            pix = pk
            xsize = packed_x
        else:
            pix = [0xFF000000 | (i << 8) for i in idx]
    else:
        if subtract_green:
            bw.write(1, 1)
            bw.write(2, 2)
            for i, p in enumerate(pix):
                g = (p >> 8) & 0xFF
                r = (((p >> 16) & 0xFF) - g) & 0xFF
                b = ((p & 0xFF) - g) & 0xFF
                pix[i] = (p & 0xFF00FF00) | (r << 16) | b
        if color_transform is not None:
            g2r, g2b, r2b = color_transform
            bw.write(1, 1)
            bw.write(1, 2)
            bw.write(7, 3)  # block 512: one block for test-size images
            if max(w, h) > 512:
                raise WebpError("uniform color transform limited to 512px")
            elem = 0xFF000000 | (r2b << 16) | (g2b << 8) | g2r
            _encode_image_stream(bw, [elem], level0=False)
            for i, p in enumerate(pix):
                g = (p >> 8) & 0xFF
                r_orig = (p >> 16) & 0xFF
                r = (r_orig - _ct_delta(g2r, g)) & 0xFF
                b = ((p & 0xFF) - _ct_delta(g2b, g)
                     - _ct_delta(r2b, r_orig)) & 0xFF
                pix[i] = (p & 0xFF00FF00) | (r << 16) | b
        if predictor_mode is not None:
            bw.write(1, 1)
            bw.write(0, 2)
            bw.write(7, 3)  # block 512
            if max(w, h) > 512:
                raise WebpError("uniform predictor limited to 512px")
            _encode_image_stream(
                bw, [0xFF000000 | (predictor_mode << 8)], level0=False)
            res = list(pix)
            for pos in range(len(pix) - 1, -1, -1):
                x = pos % w
                y = pos // w
                if pos == 0:
                    pred = 0xFF000000
                elif y == 0:
                    pred = pix[pos - 1]
                elif x == 0:
                    pred = pix[pos - w]
                else:
                    L, T = pix[pos - 1], pix[pos - w]
                    TL, TR = pix[pos - w - 1], pix[pos - w + 1]
                    m = predictor_mode
                    if m == 0:
                        pred = 0xFF000000
                    elif m == 1:
                        pred = L
                    elif m == 2:
                        pred = T
                    elif m == 3:
                        pred = TR
                    elif m == 4:
                        pred = TL
                    elif m == 5:
                        pred = _avg2(_avg2(L, TR), T)
                    elif m == 6:
                        pred = _avg2(L, TL)
                    elif m == 7:
                        pred = _avg2(L, T)
                    elif m == 8:
                        pred = _avg2(TL, T)
                    elif m == 9:
                        pred = _avg2(T, TR)
                    elif m == 10:
                        pred = _avg2(_avg2(L, TL), _avg2(T, TR))
                    elif m == 11:
                        pred = _select(T, L, TL)
                    elif m == 12:
                        pred = _clamp_add_sub_full(L, T, TL)
                    else:
                        pred = _clamp_add_sub_half(_avg2(L, T), TL)
                res[pos] = _delta_sub(pix[pos], pred)
            pix = res

    bw.write(0, 1)  # end of transform list
    _encode_image_stream(bw, pix, level0=True, cache_bits=cache_bits,
                         run_lz77=run_lz77)
    payload = b"\x2f" + bw.getvalue()
    chunk = b"VP8L" + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        chunk += b"\x00"
    riff = b"WEBP" + chunk
    return b"RIFF" + struct.pack("<I", len(riff)) + riff
