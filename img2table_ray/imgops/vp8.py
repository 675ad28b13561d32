"""VP8 (lossy WebP) intra-frame codec — RFC 6386 structure, pure numpy.

Decoder: keyframe bitstreams (the only kind a WebP ``VP8 `` chunk may
carry): boolean arithmetic decoder, uncompressed frame tag + keyframe
start code, the full compressed keyframe header (color space, clamping,
segmentation with per-segment quantizer / loop-filter data, loop-filter
type/level/sharpness + mode/ref deltas, token-partition count, quantizer
indices with the five per-plane deltas, refresh-entropy flag,
coefficient-probability updates, skip flag probability), per-macroblock
intra modes (16x16 DC/V/H/TM, B_PRED with all ten 4x4 sub-modes, 8x8
chroma), DCT/WHT coefficient tokens with the band/context schedule,
dequantization, the exact integer inverse WHT + inverse DCT, intra
prediction from reconstructed neighbours, and the in-loop deblocking
filter (both the "simple" and "normal" profiles).

Encoder: a deliberately small intra-only encoder — per-MB 16x16 mode
search by SAD (DC/V/H/TM) or all-B_PRED, flat quantization at a chosen
``qindex``, a single token partition — whose reconstruction runs through
the SAME inverse path the decoder uses, loop filter included.  Tests pin
``decode_vp8(encode_vp8(img)) == encoder reconstruction`` bit-for-bit
(this exercises every decoder stage) plus a PSNR floor against the
source.

Real-world interop (round 4): the RFC 6386 constant tables live in
``vp8_tables.py`` — token default probabilities (§13.5), update gates
(§13.4), contextual keyframe B-mode probabilities (§11.4), quantizer
lookups (§14.1) — and the decoder is pinned PIXEL-EXACT against real
libwebp output on libwebp-encoded streams (tests/test_vp8_interop.py:
YUV planes via WebPDecodeYUV and RGB via WebPDecodeRGB, many sizes and
qualities, loop filter on).  That includes libwebp's border prediction
conventions (virtual above row 127 / left column 129 and the corner
rule), the MB-top-right above-right quirk for right-column subblocks,
the per-MB raster loop-filter order, fancy chroma upsampling and the
14-bit fixed-point YUV->RGB of yuv.h.  The encoder's streams decode
bit-exactly in libwebp as well (both directions tested).
Reference behavior matched: cv2.imdecode accepts lossy WebP
(``/root/reference/src/img2table/document/image.py:25-32``) and cv2
wraps this same libwebp pipeline.
"""

from __future__ import annotations

import struct

import numpy as np

from img2table_ray.imgops.vp8_tables import (
    AC_QLOOKUP_T as _AC_Q_T,
    COEFF_UPDATE_PROBS_T as _UPDATE_PROBS_T,
    DC_QLOOKUP_T as _DC_Q_T,
    DEFAULT_COEFF_PROBS_T as _DEFAULT_COEFF_T,
    KF_BMODE_PROBS_T as _KF_BMODE_T,
)


class Vp8Error(ValueError):
    pass


# ---------------------------------------------------------------------------
# Boolean arithmetic coder (RFC 6386 §7 / appendix reference code)
# ---------------------------------------------------------------------------


class BoolDecoder:
    __slots__ = ("d", "pos", "value", "range", "bit_count")

    def __init__(self, data: bytes) -> None:
        if len(data) < 2:
            data = data + b"\0\0"
        self.d = data
        self.value = (data[0] << 8) | data[1]
        self.pos = 2
        self.range = 255
        self.bit_count = 0

    def bool(self, prob: int) -> int:
        split = 1 + (((self.range - 1) * prob) >> 8)
        big = split << 8
        if self.value >= big:
            ret = 1
            self.range -= split
            self.value -= big
        else:
            ret = 0
            self.range = split
        while self.range < 128:
            self.value <<= 1
            self.range <<= 1
            self.bit_count += 1
            if self.bit_count == 8:
                self.bit_count = 0
                nxt = self.d[self.pos] if self.pos < len(self.d) else 0
                self.value |= nxt
                self.pos += 1
        return ret

    def literal(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.bool(128)
        return v

    def signed(self, n: int) -> int:
        v = self.literal(n)
        return -v if self.bool(128) else v

    def tree(self, tree: tuple, probs) -> int:
        i = 0
        while True:
            i = tree[i + self.bool(probs[i >> 1])]
            if i <= 0:
                return -i


class BoolEncoder:
    __slots__ = ("out", "range", "bottom", "bit_count")

    def __init__(self) -> None:
        self.out = bytearray()
        self.range = 255
        self.bottom = 0
        self.bit_count = 24

    def _carry(self) -> None:
        i = len(self.out) - 1
        while self.out[i] == 255:
            self.out[i] = 0
            i -= 1
        self.out[i] += 1

    def bool(self, b: int, prob: int) -> None:
        split = 1 + (((self.range - 1) * prob) >> 8)
        if b:
            self.bottom += split
            self.range -= split
        else:
            self.range = split
        while self.range < 128:
            self.range <<= 1
            if self.bottom & (1 << 31):
                self._carry()
            self.bottom = (self.bottom << 1) & 0xFFFFFFFF
            self.bit_count -= 1
            if self.bit_count == 0:
                self.out.append((self.bottom >> 24) & 0xFF)
                self.bottom &= 0xFFFFFF
                self.bit_count = 8

    def literal(self, v: int, n: int) -> None:
        for i in range(n - 1, -1, -1):
            self.bool((v >> i) & 1, 128)

    def signed(self, v: int, n: int) -> None:
        self.literal(abs(v), n)
        self.bool(1 if v < 0 else 0, 128)

    def tree(self, tree: tuple, probs, value: int, counts=None) -> None:
        # walk the tree to the leaf, emitting branch bools
        path = _tree_path(tree, value)
        i = 0
        for b in path:
            self.bool(b, probs[i >> 1])
            if counts is not None:
                counts[i >> 1][b] += 1
            i = tree[i + b]

    def flush(self) -> bytes:
        c = self.bit_count
        v = self.bottom
        if v & (1 << (32 - c)):
            self._carry()
        v = (v << (c & 7)) & 0xFFFFFFFF
        c >>= 3
        while c > 0:
            v = (v << 8) & 0xFFFFFFFF
            c -= 1
        for _ in range(4):
            self.out.append((v >> 24) & 0xFF)
            v = (v << 8) & 0xFFFFFFFF
        return bytes(self.out)


def _tree_path(tree: tuple, value: int) -> list[int]:
    """Branch decisions from the root to leaf ``-value`` (memoized)."""
    key = (id(tree), value)
    hit = _TREE_PATHS.get(key)
    if hit is not None:
        return hit

    def walk(i: int, acc: list[int]):
        for b in (0, 1):
            j = tree[i + b]
            if j == -value and (j <= 0):
                return acc + [b]
            if j > 0:
                r = walk(j, acc + [b])
                if r is not None:
                    return r
        return None

    path = walk(0, [])
    if path is None:
        raise Vp8Error(f"value {value} not in tree")
    _TREE_PATHS[key] = path
    return path


_TREE_PATHS: dict = {}


# ---------------------------------------------------------------------------
# Trees and constant tables
# ---------------------------------------------------------------------------

# intra modes
DC_PRED, V_PRED, H_PRED, TM_PRED, B_PRED = 0, 1, 2, 3, 4
# 4x4 sub-modes — RFC 6386/libwebp numbering (the order matters: these
# values index KF_BMODE_PROBS, whose rows are laid out by this enum)
B_DC, B_TM, B_VE, B_HE, B_RD, B_VR, B_LD, B_VL, B_HD, B_HU = range(10)

KF_YMODE_TREE = (-B_PRED, 2, 4, 6, -DC_PRED, -V_PRED, -H_PRED, -TM_PRED)
KF_YMODE_PROBS = (145, 156, 163, 128)
UV_MODE_TREE = (-DC_PRED, 2, -V_PRED, 4, -H_PRED, -TM_PRED)
KF_UV_MODE_PROBS = (142, 114, 183)
BMODE_TREE = (
    -B_DC, 2,
    -B_TM, 4,
    -B_VE, 6,
    8, 12,
    -B_HE, 10,
    -B_RD, -B_VR,
    -B_LD, 14,
    -B_VL, 16,
    -B_HD, -B_HU,
)
# keyframe 4x4 sub-mode probabilities conditioned on the (above, left)
# neighbour sub-modes — RFC 6386 §11.4 (vp8_tables.py)
KF_BMODE_PROBS = tuple(
    tuple(_KF_BMODE_T[(a * 10 + l) * 9:(a * 10 + l) * 9 + 9]
          for l in range(10))
    for a in range(10))
# MB-level modes map onto sub-mode context when the neighbour MB is not
# B_PRED (DC->B_DC, V->B_VE, H->B_HE, TM->B_TM); out-of-frame = B_DC
MODE_TO_SUBMODE = {DC_PRED: B_DC, V_PRED: B_VE, H_PRED: B_HE, TM_PRED: B_TM}

# coefficient tokens
DCT_0, DCT_1, DCT_2, DCT_3, DCT_4 = 0, 1, 2, 3, 4
CAT1, CAT2, CAT3, CAT4, CAT5, CAT6, DCT_EOB = 5, 6, 7, 8, 9, 10, 11
TOKEN_TREE = (
    -DCT_EOB, 2,
    -DCT_0, 4,
    -DCT_1, 6,
    8, 12,
    -DCT_2, 10,
    -DCT_3, -DCT_4,
    14, 16,
    -CAT1, -CAT2,
    18, 20,
    -CAT3, -CAT4,
    -CAT5, -CAT6,
)
CAT_PROBS = (
    (159,),
    (165, 145),
    (173, 148, 140),
    (176, 155, 140, 135),
    (180, 157, 141, 134, 130),
    (254, 254, 243, 230, 196, 177, 153, 140, 133, 130, 129),
)
CAT_BASE = (5, 7, 11, 19, 35, 67)

COEFF_BANDS = (0, 1, 2, 3, 6, 4, 5, 6, 6, 6, 6, 6, 6, 6, 6, 7)
ZIGZAG = (0, 1, 4, 8, 5, 2, 3, 6, 9, 12, 13, 10, 7, 11, 14, 15)

# 4 block types x 8 bands x 3 contexts x 11 tree probs — the RFC 6386
# §13.5 default token probabilities (vp8_tables.py)
N_TYPES, N_BANDS, N_CTX, N_PROBS = 4, 8, 3, 11


def default_coeff_probs() -> np.ndarray:
    return np.array(_DEFAULT_COEFF_T, np.int32).reshape(
        N_TYPES, N_BANDS, N_CTX, N_PROBS)


# per-position update gates (RFC 6386 §13.4), same shape
COEFF_UPDATE_PROBS = np.array(_UPDATE_PROBS_T, np.int32).reshape(
    N_TYPES, N_BANDS, N_CTX, N_PROBS)

# Quantizer lookups (qindex 0..127) — RFC 6386 §14.1 (vp8_tables.py)
DC_QLOOKUP = np.array(_DC_Q_T, np.int32)
AC_QLOOKUP = np.array(_AC_Q_T, np.int32)


def _clamp_q(q: int) -> int:
    return min(127, max(0, q))


def dequant_factors(qindex: int, deltas: dict[str, int]) -> dict[str, int]:
    """Per-plane dequantization factors (RFC 6386 §14.1 rules)."""
    q = _clamp_q(qindex)
    y1dc = int(DC_QLOOKUP[_clamp_q(q + deltas.get("y1dc", 0))])
    y1ac = int(AC_QLOOKUP[q])
    y2dc = int(DC_QLOOKUP[_clamp_q(q + deltas.get("y2dc", 0))]) * 2
    # y2ac scale: libwebp/libvpx compute * 101581 >> 16 (= 155/100 in
    # Q16), clamped below at 8 — exact integer parity matters
    y2ac = (int(AC_QLOOKUP[_clamp_q(q + deltas.get("y2ac", 0))])
            * 101581) >> 16
    y2ac = max(8, y2ac)
    # uv dc index clamps at 117 (table value 132) per §14.1
    uvdc = min(132, int(DC_QLOOKUP[_clamp_q(q + deltas.get("uvdc", 0))]))
    uvac = int(AC_QLOOKUP[_clamp_q(q + deltas.get("uvac", 0))])
    return {"y1dc": y1dc, "y1ac": y1ac, "y2dc": y2dc, "y2ac": y2ac,
            "uvdc": uvdc, "uvac": uvac}


# ---------------------------------------------------------------------------
# Inverse transforms (RFC 6386 §14.3 — exact integer arithmetic)
# ---------------------------------------------------------------------------

_C1 = 20091  # (cos(pi/8) * sqrt(2) - 1) << 16
_C2 = 35468  # (sin(pi/8) * sqrt(2)) << 16


def idct4x4(block: np.ndarray) -> np.ndarray:
    """Integer inverse DCT on int32 (...,4,4) coefficient arrays;
    vectorized over leading axes."""
    b = block.astype(np.int64)
    # pass 1: columns
    i0, i1, i2, i3 = b[..., 0, :], b[..., 1, :], b[..., 2, :], b[..., 3, :]
    a1 = i0 + i2
    b1 = i0 - i2
    t1 = (i1 * _C2) >> 16
    t2 = i3 + ((i3 * _C1) >> 16)
    c1 = t1 - t2
    t1 = i1 + ((i1 * _C1) >> 16)
    t2 = (i3 * _C2) >> 16
    d1 = t1 + t2
    r0 = a1 + d1
    r3 = a1 - d1
    r1 = b1 + c1
    r2 = b1 - c1
    m = np.stack([r0, r1, r2, r3], axis=-2)
    # pass 2: rows, with the final (x + 4) >> 3
    i0, i1, i2, i3 = m[..., :, 0], m[..., :, 1], m[..., :, 2], m[..., :, 3]
    a1 = i0 + i2
    b1 = i0 - i2
    t1 = (i1 * _C2) >> 16
    t2 = i3 + ((i3 * _C1) >> 16)
    c1 = t1 - t2
    t1 = i1 + ((i1 * _C1) >> 16)
    t2 = (i3 * _C2) >> 16
    d1 = t1 + t2
    r0 = (a1 + d1 + 4) >> 3
    r3 = (a1 - d1 + 4) >> 3
    r1 = (b1 + c1 + 4) >> 3
    r2 = (b1 - c1 + 4) >> 3
    return np.stack([r0, r1, r2, r3], axis=-1).astype(np.int32)


def iwht4x4(block: np.ndarray) -> np.ndarray:
    """Integer inverse Walsh-Hadamard (Y2 DC plane), RFC 6386 §14.3."""
    b = block.astype(np.int64)
    i0, i1, i2, i3 = b[..., 0, :], b[..., 1, :], b[..., 2, :], b[..., 3, :]
    a1 = i0 + i3
    b1 = i1 + i2
    c1 = i1 - i2
    d1 = i0 - i3
    m = np.stack([a1 + b1, c1 + d1, a1 - b1, d1 - c1], axis=-2)
    i0, i1, i2, i3 = m[..., :, 0], m[..., :, 1], m[..., :, 2], m[..., :, 3]
    a1 = i0 + i3
    b1 = i1 + i2
    c1 = i1 - i2
    d1 = i0 - i3
    r0 = (a1 + b1 + 3) >> 3
    r1 = (c1 + d1 + 3) >> 3
    r2 = (a1 - b1 + 3) >> 3
    r3 = (d1 - c1 + 3) >> 3
    return np.stack([r0, r1, r2, r3], axis=-1).astype(np.int32)


def _linear_matrix(inv_fn) -> np.ndarray:
    """16x16 float linearization of an integer inverse transform (probing
    with large unit impulses to wash out the >>16 truncation), used to
    derive the encoder's forward transform numerically — no remembered
    fdct constants required."""
    m = np.zeros((16, 16), np.float64)
    scale = 1 << 12
    for i in range(16):
        e = np.zeros((4, 4), np.int64)
        e[i // 4, i % 4] = scale
        # bypass the final rounding shift by scaling: inv(x*s)/s ~ linear
        out = inv_fn(e[None])[0].astype(np.float64)
        m[:, i] = out.reshape(16) / scale
    return m


_FDCT_M = np.linalg.inv(_linear_matrix(idct4x4))
_FWHT_M = np.linalg.inv(_linear_matrix(iwht4x4))


def fdct4x4(res: np.ndarray) -> np.ndarray:
    """Forward transform: least-squares inverse of the integer IDCT's
    linearization; (..., 4, 4) int -> (..., 4, 4) int32 coefficients."""
    flat = res.reshape(*res.shape[:-2], 16).astype(np.float64)
    return np.rint(flat @ _FDCT_M.T).astype(np.int32).reshape(res.shape)


def fwht4x4(res: np.ndarray) -> np.ndarray:
    flat = res.reshape(*res.shape[:-2], 16).astype(np.float64)
    return np.rint(flat @ _FWHT_M.T).astype(np.int32).reshape(res.shape)


# ---------------------------------------------------------------------------
# Intra prediction (RFC 6386 §12)
# ---------------------------------------------------------------------------


def predict_block(plane: np.ndarray, y0: int, x0: int, size: int,
                  mode: int, have_above: bool, have_left: bool) -> np.ndarray:
    """DC/V/H/TM prediction for a size x size block of ``plane`` (a padded
    int32 reconstruction surface); neighbours read from the surface."""
    if mode == DC_PRED:
        total = 0
        count = 0
        if have_above:
            total += int(plane[y0 - 1, x0 : x0 + size].sum())
            count += size
        if have_left:
            total += int(plane[y0 : y0 + size, x0 - 1].sum())
            count += size
        dc = 128 if count == 0 else (total + (count >> 1)) // count
        return np.full((size, size), dc, np.int32)
    if mode == V_PRED:
        above = plane[y0 - 1, x0 : x0 + size] if have_above else np.full(size, 127, np.int32)
        return np.repeat(above[None, :], size, axis=0).astype(np.int32)
    if mode == H_PRED:
        left = plane[y0 : y0 + size, x0 - 1] if have_left else np.full(size, 129, np.int32)
        return np.repeat(left[:, None], size, axis=1).astype(np.int32)
    # TM_PRED — border convention matches libwebp/RFC: the virtual above
    # row is 127 (incl. its left extension), the virtual left column is
    # 129 (incl. its top extension), top row wins at the corner
    above = plane[y0 - 1, x0 : x0 + size] if have_above else np.full(size, 127, np.int32)
    left = plane[y0 : y0 + size, x0 - 1] if have_left else np.full(size, 129, np.int32)
    if have_above and have_left:
        tl = int(plane[y0 - 1, x0 - 1])
    elif have_above:
        tl = 129  # leftmost column, non-top row
    else:
        tl = 127  # top row (with or without left)
    p = left[:, None].astype(np.int32) + above[None, :].astype(np.int32) - tl
    return np.clip(p, 0, 255)


def predict_b(mode: int, above8: np.ndarray, left: np.ndarray,
              tl: int) -> np.ndarray:
    """All ten 4x4 B_PRED modes (RFC 6386 §12.3)."""
    a = above8
    l_ = left
    p = np.zeros((4, 4), np.int32)
    if mode == B_DC:
        dc = (int(a[:4].sum()) + int(l_.sum()) + 4) >> 3
        p[:] = dc
    elif mode == B_TM:
        p = np.clip(l_[:, None] + a[None, :4] - tl, 0, 255)
    elif mode == B_VE:
        # smoothed vertical: (x-1 + 2x + x+1 + 2) >> 2 over [tl, a0..a4]
        row = [(tl + 2 * a[0] + a[1] + 2) >> 2,
               (a[0] + 2 * a[1] + a[2] + 2) >> 2,
               (a[1] + 2 * a[2] + a[3] + 2) >> 2,
               (a[2] + 2 * a[3] + a[4] + 2) >> 2]
        p[:] = np.array(row, np.int32)[None, :]
    elif mode == B_HE:
        col = [(tl + 2 * l_[0] + l_[1] + 2) >> 2,
               (l_[0] + 2 * l_[1] + l_[2] + 2) >> 2,
               (l_[1] + 2 * l_[2] + l_[3] + 2) >> 2,
               (l_[2] + 2 * l_[3] + l_[3] + 2) >> 2]
        p[:] = np.array(col, np.int32)[:, None]
    elif mode == B_LD:
        e = [(a[0] + 2 * a[1] + a[2] + 2) >> 2,
             (a[1] + 2 * a[2] + a[3] + 2) >> 2,
             (a[2] + 2 * a[3] + a[4] + 2) >> 2,
             (a[3] + 2 * a[4] + a[5] + 2) >> 2,
             (a[4] + 2 * a[5] + a[6] + 2) >> 2,
             (a[5] + 2 * a[6] + a[7] + 2) >> 2,
             (a[6] + 2 * a[7] + a[7] + 2) >> 2]
        for r in range(4):
            for c in range(4):
                p[r, c] = e[r + c]
    elif mode == B_RD:
        e = [(l_[3] + 2 * l_[2] + l_[1] + 2) >> 2,
             (l_[2] + 2 * l_[1] + l_[0] + 2) >> 2,
             (l_[1] + 2 * l_[0] + tl + 2) >> 2,
             (l_[0] + 2 * tl + a[0] + 2) >> 2,
             (tl + 2 * a[0] + a[1] + 2) >> 2,
             (a[0] + 2 * a[1] + a[2] + 2) >> 2,
             (a[1] + 2 * a[2] + a[3] + 2) >> 2]
        for r in range(4):
            for c in range(4):
                p[r, c] = e[3 - r + c]
    elif mode == B_VR:
        e = {}
        e[(0, 0)] = (l_[0] + 2 * tl + a[0] + 2) >> 2
        v0 = (tl + a[0] + 1) >> 1
        v1 = (a[0] + a[1] + 1) >> 1
        v2 = (a[1] + a[2] + 1) >> 1
        v3 = (a[2] + a[3] + 1) >> 1
        s0 = (tl + 2 * a[0] + a[1] + 2) >> 2
        s1 = (a[0] + 2 * a[1] + a[2] + 2) >> 2
        s2 = (a[1] + 2 * a[2] + a[3] + 2) >> 2
        d0 = (l_[0] + 2 * tl + a[0] + 2) >> 2
        d1 = (tl + 2 * l_[0] + l_[1] + 2) >> 2
        d2 = (l_[0] + 2 * l_[1] + l_[2] + 2) >> 2
        grid = [
            [v0, v1, v2, v3],
            [d0, s0, s1, s2],
            [d1, v0, v1, v2],
            [d2, d0, s0, s1],
        ]
        p = np.array(grid, np.int32)
    elif mode == B_VL:
        v0 = (a[0] + a[1] + 1) >> 1
        v1 = (a[1] + a[2] + 1) >> 1
        v2 = (a[2] + a[3] + 1) >> 1
        v3 = (a[3] + a[4] + 1) >> 1
        s0 = (a[0] + 2 * a[1] + a[2] + 2) >> 2
        s1 = (a[1] + 2 * a[2] + a[3] + 2) >> 2
        s2 = (a[2] + 2 * a[3] + a[4] + 2) >> 2
        s3 = (a[3] + 2 * a[4] + a[5] + 2) >> 2
        s4 = (a[4] + 2 * a[5] + a[6] + 2) >> 2
        s5 = (a[5] + 2 * a[6] + a[7] + 2) >> 2
        grid = [
            [v0, v1, v2, v3],
            [s0, s1, s2, s3],
            [v1, v2, v3, s4],
            [s1, s2, s3, s5],
        ]
        p = np.array(grid, np.int32)
    elif mode == B_HD:
        h0 = (l_[0] + tl + 1) >> 1
        h1 = (l_[1] + l_[0] + 1) >> 1
        h2 = (l_[2] + l_[1] + 1) >> 1
        h3 = (l_[3] + l_[2] + 1) >> 1
        s0 = (l_[0] + 2 * tl + a[0] + 2) >> 2
        s1 = (tl + 2 * a[0] + a[1] + 2) >> 2
        s2 = (a[0] + 2 * a[1] + a[2] + 2) >> 2
        d0 = (tl + 2 * l_[0] + l_[1] + 2) >> 2
        d1 = (l_[0] + 2 * l_[1] + l_[2] + 2) >> 2
        d2 = (l_[1] + 2 * l_[2] + l_[3] + 2) >> 2
        grid = [
            [h0, s0, s1, s2],
            [h1, d0, h0, s0],
            [h2, d1, h1, d0],
            [h3, d2, h2, d1],
        ]
        p = np.array(grid, np.int32)
    elif mode == B_HU:
        h0 = (l_[0] + l_[1] + 1) >> 1
        h1 = (l_[1] + l_[2] + 1) >> 1
        h2 = (l_[2] + l_[3] + 1) >> 1
        s0 = (l_[0] + 2 * l_[1] + l_[2] + 2) >> 2
        s1 = (l_[1] + 2 * l_[2] + l_[3] + 2) >> 2
        s2 = (l_[2] + 3 * l_[3] + 2) >> 2
        last = int(l_[3])
        grid = [
            [h0, s0, h1, s1],
            [h1, s1, h2, s2],
            [h2, s2, last, last],
            [last, last, last, last],
        ]
        p = np.array(grid, np.int32)
    else:
        raise Vp8Error(f"bad B_PRED mode {mode}")
    return p

# ---------------------------------------------------------------------------
# Coefficient token coding (RFC 6386 §13)
# ---------------------------------------------------------------------------


def _decode_coeffs(bd: BoolDecoder, probs: list, btype: int,
                   first: int, ctx: int):
    """Decode one 4x4 block's quantized levels (zigzag order undone).
    Returns (levels[16] int32 raster order or None when all-zero,
    had_nonzero) — the all-zero fast path (immediate EOB, the common
    case in smooth regions) allocates nothing.

    ``probs`` is the frame's coeff-prob table as NESTED PYTHON LISTS
    (``hdr.coeff_probs.tolist()``): per-element numpy indexing plus the
    BoolDecoder method call dominated token decode (~35% of frame
    decode), so the §7 boolean decoder is inlined here over local ints
    and written back to ``bd`` on exit — identical state machine."""
    levels = None
    tprobs = probs[btype]
    c = first
    skip_eob = False
    # inlined BoolDecoder state (see BoolDecoder.bool)
    data = bd.d
    dlen = len(data)
    value = bd.value
    rng = bd.range
    bit_count = bd.bit_count
    pos = bd.pos
    while c < 16:
        p = tprobs[COEFF_BANDS[c]][ctx]
        i = 2 if skip_eob else 0
        while True:
            prob = p[i >> 1]
            split = 1 + (((rng - 1) * prob) >> 8)
            big = split << 8
            if value >= big:
                bit = 1
                rng -= split
                value -= big
            else:
                bit = 0
                rng = split
            while rng < 128:
                value <<= 1
                rng <<= 1
                bit_count += 1
                if bit_count == 8:
                    bit_count = 0
                    value |= data[pos] if pos < dlen else 0
                    pos += 1
            i = TOKEN_TREE[i + bit]
            if i <= 0:
                break
        token = -i
        if token == DCT_EOB:
            break
        if token == DCT_0:
            ctx = 0
            skip_eob = True
            c += 1
            continue
        if token <= DCT_4:
            val = token
        else:
            cat = token - CAT1
            extra = 0
            for prob in CAT_PROBS[cat]:
                split = 1 + (((rng - 1) * prob) >> 8)
                big = split << 8
                if value >= big:
                    extra = (extra << 1) | 1
                    rng -= split
                    value -= big
                else:
                    extra <<= 1
                    rng = split
                while rng < 128:
                    value <<= 1
                    rng <<= 1
                    bit_count += 1
                    if bit_count == 8:
                        bit_count = 0
                        value |= data[pos] if pos < dlen else 0
                        pos += 1
            val = CAT_BASE[cat] + extra
        # sign bit, prob 128
        split = 1 + (((rng - 1) << 7) >> 8)
        big = split << 8
        if value >= big:
            val = -val
            rng -= split
            value -= big
        else:
            rng = split
        while rng < 128:
            value <<= 1
            rng <<= 1
            bit_count += 1
            if bit_count == 8:
                bit_count = 0
                value |= data[pos] if pos < dlen else 0
                pos += 1
        if levels is None:
            levels = np.zeros(16, np.int32)
        levels[ZIGZAG[c]] = val
        ctx = 1 if token == DCT_1 else 2
        skip_eob = False
        c += 1
    bd.value = value
    bd.range = rng
    bd.bit_count = bit_count
    bd.pos = pos
    return levels, levels is not None


def _encode_coeffs(be: BoolEncoder, probs, counts, btype: int, first: int,
                   ctx: int, levels_zz: list[int]) -> bool:
    """Encode one block's quantized levels (zigzag order).  ``counts``
    accumulates per-node branch statistics (same shape as probs, last
    axis 2) when not None.  Returns had_nonzero."""
    eob = 0
    for idx, v in enumerate(levels_zz):
        if v:
            eob = idx + 1
    c = first
    skip_eob = False
    nonzero = False

    def emit(token: int, extra_val: int) -> None:
        nonlocal ctx, skip_eob
        p = probs[btype][COEFF_BANDS[c]][ctx]
        cnt = counts[btype][COEFF_BANDS[c]][ctx] if counts is not None else None
        start = 2 if skip_eob else 0
        i = start
        path = _tree_path_from(TOKEN_TREE, token, start)
        for b in path:
            be.bool(b, p[i >> 1])
            if cnt is not None:
                cnt[i >> 1][b] += 1
            i = TOKEN_TREE[i + b]
        if CAT1 <= token <= CAT6:
            cat = token - CAT1
            nbits = len(CAT_PROBS[cat])
            rem = extra_val - CAT_BASE[cat]
            for k, pr in enumerate(CAT_PROBS[cat]):
                be.bool((rem >> (nbits - 1 - k)) & 1, pr)

    while c < eob:
        v = int(levels_zz[c])
        a = abs(v)
        if a == 0:
            emit(DCT_0, 0)
            ctx = 0
            skip_eob = True
            c += 1
            continue
        if a <= 4:
            token = a
        elif a < CAT_BASE[1]:
            token = CAT1
        elif a < CAT_BASE[2]:
            token = CAT2
        elif a < CAT_BASE[3]:
            token = CAT3
        elif a < CAT_BASE[4]:
            token = CAT4
        elif a < CAT_BASE[5]:
            token = CAT5
        else:
            token = CAT6
        emit(token, a)
        be.bool(1 if v < 0 else 0, 128)
        ctx = 1 if token == DCT_1 else 2
        skip_eob = False
        nonzero = True
        c += 1
    if c < 16:
        # EOB is never legal right after a DCT_0 token; the tokenizer
        # guarantees eob lands past any zero run, so skip_eob is False here
        emit(DCT_EOB, 0)
    return nonzero


def _tree_path_from(tree: tuple, value: int, start: int) -> list[int]:
    key = (id(tree), value, start)
    hit = _TREE_PATHS.get(key)
    if hit is not None:
        return hit

    def walk(i: int, acc):
        for b in (0, 1):
            j = tree[i + b]
            if j == -value and j <= 0:
                return acc + [b]
            if j > 0:
                r = walk(j, acc + [b])
                if r is not None:
                    return r
        return None

    path = walk(start, [])
    if path is None:
        raise Vp8Error(f"token {value} unreachable from node {start}")
    _TREE_PATHS[key] = path
    return path


# ---------------------------------------------------------------------------
# In-loop deblocking filter (RFC 6386 §15)
# ---------------------------------------------------------------------------


def _s8(x: np.ndarray) -> np.ndarray:
    # direct ufuncs (np.clip's wrapper dominates at filter-edge sizes)
    return np.maximum(np.minimum(x, 127), -128)


def _filter_limits(level: int, sharpness: int) -> tuple[int, int, int, int]:
    interior = level
    if sharpness:
        interior >>= 2 if sharpness > 4 else 1
        interior = min(interior, 9 - sharpness)
    interior = max(1, interior)
    hev = 2 if level >= 40 else (1 if level >= 15 else 0)  # keyframe rule
    mb_edge = (level + 2) * 2 + interior
    sub_edge = level * 2 + interior
    return interior, hev, mb_edge, sub_edge


def _clip_u8(x: np.ndarray) -> np.ndarray:
    """In-place clip of an owned temp to [0, 255] via direct ufuncs
    (np.clip's fromnumeric wrapper costs ~4x per call at 16-elem sizes)."""
    np.maximum(x, 0, out=x)
    np.minimum(x, 255, out=x)
    return x


def _normal_filter_edge(px: list[np.ndarray], interior: int, hev_t: int,
                        edge_limit: int, mb_edge: bool,
                        ext_mask=None) -> None:
    """Normal loop filter across one edge.  ``px`` is [p3..p0, q0..q3],
    eight int32 arrays (mutated in place — views write through),
    vectorized along the edge; ``ext_mask`` restricts application (used
    by the batched whole-frame passes)."""
    p3, p2, p1, p0, q0, q1, q2, q3 = px
    d0 = p0 - q0
    d1 = p1 - q1
    # early-outs, load-bearing for throughput on document images: a
    # uniform edge (d0 == d1 == 0 everywhere) filters to itself (every
    # update term is a function of w = 3*d0' + d1'), and an edge whose
    # outer threshold fails everywhere never writes
    if not d0.any() and not d1.any():
        return
    np.abs(d0, out=d0)
    np.abs(d1, out=d1)
    d1 >>= 1
    d0 *= 2
    d0 += d1
    thresh = d0 <= edge_limit
    if ext_mask is not None:
        thresh &= ext_mask
    if not thresh.any():
        return
    ap1p0 = np.abs(p1 - p0)
    aq1q0 = np.abs(q1 - q0)
    mask = thresh
    mask &= np.abs(p3 - p2) <= interior
    mask &= np.abs(p2 - p1) <= interior
    mask &= ap1p0 <= interior
    mask &= aq1q0 <= interior
    mask &= np.abs(q2 - q1) <= interior
    mask &= np.abs(q3 - q2) <= interior
    hev = ap1p0 > hev_t
    hev |= aq1q0 > hev_t
    # signed-8-bit domain
    P1, P0, Q0, Q1 = p1 - 128, p0 - 128, q0 - 128, q1 - 128
    qp = Q0 - P0
    qp *= 3
    w = _s8(P1 - Q1)
    w += qp
    w = _s8(w)  # == both branches' w (identical expression, RFC §15.3)
    f1 = _s8(w + 4)
    f1 >>= 3
    f2 = _s8(w + 3)
    f2 >>= 3
    # the signed-domain round trip cancels exactly in the updates:
    # clip(Q0 - f + 128) == clip(q0 - f) etc. in int32 arithmetic
    use = mask & hev
    if use.any():
        q0[use] = _clip_u8(q0[use] - f1[use])
        p0[use] = _clip_u8(p0[use] + f2[use])
    use2 = mask
    use2 &= ~hev
    if not use2.any():
        return
    if mb_edge:
        a1 = 27 * w
        a1 += 63
        a1 >>= 7
        a2 = 18 * w
        a2 += 63
        a2 >>= 7
        a3 = 9 * w
        a3 += 63
        a3 >>= 7
        q0[use2] = _clip_u8(q0[use2] - a1[use2])
        p0[use2] = _clip_u8(p0[use2] + a1[use2])
        q1[use2] = _clip_u8(q1[use2] - a2[use2])
        p1[use2] = _clip_u8(p1[use2] + a2[use2])
        q2[use2] = _clip_u8(q2[use2] - a3[use2])
        p2[use2] = _clip_u8(p2[use2] + a3[use2])
    else:
        ws = _s8(qp)  # qp == 3*(Q0-P0), unshared since _s8 copies
        f1s = _s8(ws + 4)
        f1s >>= 3
        f2s = _s8(ws + 3)
        f2s >>= 3
        q0[use2] = _clip_u8(q0[use2] - f1s[use2])
        p0[use2] = _clip_u8(p0[use2] + f2s[use2])
        f1s += 1
        f1s >>= 1
        q1[use2] = _clip_u8(q1[use2] - f1s[use2])
        p1[use2] = _clip_u8(p1[use2] + f1s[use2])


def _simple_filter_edge(px: list[np.ndarray], edge_limit: int,
                        ext_mask=None) -> None:
    """Simple loop filter (Y only): adjusts p0/q0."""
    p1, p0, q0, q1 = px
    d0 = p0 - q0
    d1 = p1 - q1
    if not d0.any() and not d1.any():  # uniform edge: w == 0, no-op
        return
    np.abs(d0, out=d0)
    np.abs(d1, out=d1)
    d1 >>= 1
    d0 *= 2
    d0 += d1
    mask = d0 <= edge_limit
    if ext_mask is not None:
        mask &= ext_mask
    if not mask.any():
        return
    P1, P0, Q0, Q1 = p1 - 128, p0 - 128, q0 - 128, q1 - 128
    qp = Q0 - P0
    qp *= 3
    w = _s8(P1 - Q1)
    w += qp
    w = _s8(w)
    f1 = _s8(w + 4)
    f1 >>= 3
    f2 = _s8(w + 3)
    f2 >>= 3
    # ±128 signed-domain shift cancels exactly in int32 updates
    q0[mask] = _clip_u8(q0[mask] - f1[mask])
    p0[mask] = _clip_u8(p0[mask] + f2[mask])


def _filter_mb_normal(p: np.ndarray, y0: int, x0: int, size: int,
                      lims: tuple, fin: bool, left_edge: bool,
                      top_edge: bool) -> None:
    """Normal-profile filtering of one MB's edges in libwebp's DoFilter
    order: left MB edge, interior vertical edges, top MB edge, interior
    horizontal edges.  The per-MB raster schedule is load-bearing: a
    top edge writes into the MB above, whose pixels the NEXT column's
    left edge reads, so neither rows nor columns can be batched without
    changing results (a column-batched variant was tried and produced
    real chroma diffs vs libwebp).  Throughput comes from the edge
    kernels' early-outs instead."""
    interior, hev_t, mb_lim, sub_lim = lims
    if left_edge:
        px = [p[y0 : y0 + size, x0 + k] for k in range(-4, 4)]
        _normal_filter_edge(px, interior, hev_t, mb_lim, True)
    if fin:
        for sx in range(4, size, 4):
            px = [p[y0 : y0 + size, x0 + sx + k] for k in range(-4, 4)]
            _normal_filter_edge(px, interior, hev_t, sub_lim, False)
    if top_edge:
        px = [p[y0 + k, x0 : x0 + size] for k in range(-4, 4)]
        _normal_filter_edge(px, interior, hev_t, mb_lim, True)
    if fin:
        for sy in range(4, size, 4):
            px = [p[y0 + sy + k, x0 : x0 + size] for k in range(-4, 4)]
            _normal_filter_edge(px, interior, hev_t, sub_lim, False)


def _filter_mb_simple(p: np.ndarray, y0: int, x0: int, lims: tuple,
                      fin: bool, left_edge: bool, top_edge: bool) -> None:
    """Simple-profile filtering (Y plane only), same per-MB edge order."""
    _, _, mb_lim, sub_lim = lims
    if left_edge:
        px = [p[y0 : y0 + 16, x0 + k] for k in range(-2, 2)]
        _simple_filter_edge(px, mb_lim)
    if fin:
        for sx in range(4, 16, 4):
            px = [p[y0 : y0 + 16, x0 + sx + k] for k in range(-2, 2)]
            _simple_filter_edge(px, sub_lim)
    if top_edge:
        px = [p[y0 + k, x0 : x0 + 16] for k in range(-2, 2)]
        _simple_filter_edge(px, mb_lim)
    if fin:
        for sy in range(4, 16, 4):
            px = [p[y0 + sy + k, x0 : x0 + 16] for k in range(-2, 2)]
            _simple_filter_edge(px, sub_lim)


# ---------------------------------------------------------------------------
# YUV 4:2:0 <-> RGB (fixed-point BT.601 limited range, WebP's convention)
# ---------------------------------------------------------------------------


def rgb_to_yuv420(img: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H, W, 3) uint8 RGB -> (Y, U, V) int32 planes; U/V are 2x2-mean
    subsampled (H and W must be even — pad first)."""
    r = img[..., 0].astype(np.int64)
    g = img[..., 1].astype(np.int64)
    b = img[..., 2].astype(np.int64)
    y = ((16839 * r + 33059 * g + 6420 * b + 32768) >> 16) + 16
    u = ((-9719 * r - 19081 * g + 28800 * b + 32768) >> 16) + 128
    v = ((28800 * r - 24116 * g - 4684 * b + 32768) >> 16) + 128

    def sub(p):
        return (p[0::2, 0::2] + p[0::2, 1::2] + p[1::2, 0::2]
                + p[1::2, 1::2] + 2) >> 2

    return (np.clip(y, 0, 255).astype(np.int32),
            np.clip(sub(u), 0, 255).astype(np.int32),
            np.clip(sub(v), 0, 255).astype(np.int32))


def _fancy_upsample_plane(c: np.ndarray, h: int, w: int) -> np.ndarray:
    """libwebp's "fancy" 4:2:0 chroma upsampler (upsampling.c), exact
    integer arithmetic: half-phase bilinear built from the per-pair
    diagonal averages, borders mirrored.  ``c`` is the (ceil(h/2),
    ceil(w/2)) chroma plane; returns the (h, w) upsampled plane."""
    c = c.astype(np.int32)
    ch, cw = c.shape
    out = np.empty((h, w), np.int32)

    def row_pair(tr: np.ndarray, cr: np.ndarray):
        """One chroma row pair -> (top_row, bottom_row) of length w."""
        tl, t = tr[:-1], tr[1:]
        l_, cu = cr[:-1], cr[1:]
        avg = tl + t + l_ + cu + 8
        diag12 = (avg + 2 * (t + l_)) >> 3
        diag03 = (avg + 2 * (tl + cu)) >> 3
        top = np.empty(w, np.int32)
        bot = np.empty(w, np.int32)
        top[0] = (3 * tr[0] + cr[0] + 2) >> 2
        bot[0] = (3 * cr[0] + tr[0] + 2) >> 2
        n = len(tl)  # pairs
        top[1 : 2 * n : 2] = (diag12 + tl) >> 1
        top[2 : 2 * n + 1 : 2] = (diag03 + t) >> 1
        bot[1 : 2 * n : 2] = (diag03 + l_) >> 1
        bot[2 : 2 * n + 1 : 2] = (diag12 + cu) >> 1
        if w % 2 == 0:
            top[w - 1] = (3 * tr[-1] + cr[-1] + 2) >> 2
            bot[w - 1] = (3 * cr[-1] + tr[-1] + 2) >> 2
        return top, bot

    # first output row mirrors chroma row 0 against itself
    out[0], _ = row_pair(c[0], c[0])
    for k in range(1, ch):
        top, bot = row_pair(c[k - 1], c[k])
        if 2 * k - 1 < h:
            out[2 * k - 1] = top
        if 2 * k < h:
            out[2 * k] = bot
    if h % 2 == 0 and h >= 2:
        out[h - 1], _ = row_pair(c[ch - 1], c[ch - 1])
    return out


def yuv420_to_rgb(y: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """YUV 4:2:0 -> (H, W, 3) uint8 RGB, matching libwebp's default
    output pixel-exactly (the reference's cv2.imdecode goes through
    libwebp): fancy chroma upsampling + the 14-bit fixed-point BT.601
    conversion of yuv.h (R = clip((19077 y * + 26149 v*) - 14234 >> 6)
    etc., where x* = (x * coeff) >> 8)."""
    h, w = y.shape
    yy = y.astype(np.int32)
    uu = _fancy_upsample_plane(u, h, w)
    vv = _fancy_upsample_plane(v, h, w)
    ys = (yy * 19077) >> 8
    r = ys + ((vv * 26149) >> 8) - 14234
    g = ys - ((uu * 6419) >> 8) - ((vv * 13320) >> 8) + 8708
    b = ys + ((uu * 33050) >> 8) - 17685
    rgb = np.stack([r, g, b], -1)
    return np.clip(rgb >> 6, 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# Frame header (RFC 6386 §9)
# ---------------------------------------------------------------------------


class _Header:
    """Parsed keyframe header fields (attribute bag)."""
    __slots__ = (
        "width", "height", "simple_filter", "filter_level", "sharpness",
        "lf_delta_enabled", "ref_deltas", "mode_deltas", "nparts",
        "qindex", "qdeltas", "coeff_probs", "skip_enabled", "prob_skip",
        "seg_enabled", "seg_update_map", "seg_abs", "seg_q", "seg_lf",
        "seg_tree_probs",
    )


def _parse_keyframe_header(bd: BoolDecoder) -> _Header:
    h = _Header()
    bd.literal(1)  # color space (0 = YCbCr as defined)
    bd.literal(1)  # clamping type
    h.seg_enabled = bool(bd.bool(128))
    h.seg_update_map = False
    h.seg_abs = False
    h.seg_q = [0, 0, 0, 0]
    h.seg_lf = [0, 0, 0, 0]
    h.seg_tree_probs = [255, 255, 255]
    if h.seg_enabled:
        h.seg_update_map = bool(bd.bool(128))
        update_data = bd.bool(128)
        if update_data:
            h.seg_abs = bool(bd.bool(128))
            for i in range(4):
                if bd.bool(128):
                    h.seg_q[i] = bd.signed(7)
            for i in range(4):
                if bd.bool(128):
                    h.seg_lf[i] = bd.signed(6)
        if h.seg_update_map:
            for i in range(3):
                if bd.bool(128):
                    h.seg_tree_probs[i] = bd.literal(8)
    h.simple_filter = bool(bd.bool(128))
    h.filter_level = bd.literal(6)
    h.sharpness = bd.literal(3)
    h.lf_delta_enabled = bool(bd.bool(128))
    h.ref_deltas = [0, 0, 0, 0]
    h.mode_deltas = [0, 0, 0, 0]
    if h.lf_delta_enabled:
        if bd.bool(128):  # delta update flag
            for i in range(4):
                if bd.bool(128):
                    h.ref_deltas[i] = bd.signed(6)
            for i in range(4):
                if bd.bool(128):
                    h.mode_deltas[i] = bd.signed(6)
    h.nparts = 1 << bd.literal(2)
    h.qindex = bd.literal(7)
    h.qdeltas = {}
    for name in ("y1dc", "y2dc", "y2ac", "uvdc", "uvac"):
        if bd.bool(128):
            h.qdeltas[name] = bd.signed(4)
    bd.bool(128)  # refresh entropy probs (keyframe: state not kept here)
    probs = default_coeff_probs()
    upd = COEFF_UPDATE_PROBS
    for t in range(N_TYPES):
        for b in range(N_BANDS):
            for c in range(N_CTX):
                for p in range(N_PROBS):
                    if bd.bool(int(upd[t, b, c, p])):
                        probs[t, b, c, p] = bd.literal(8)
    h.coeff_probs = probs
    h.skip_enabled = bool(bd.bool(128))
    h.prob_skip = bd.literal(8) if h.skip_enabled else 0
    return h


def _mb_filter_level(h: _Header, seg_id: int, ymode: int) -> int:
    level = h.filter_level
    if h.seg_enabled:
        level = h.seg_lf[seg_id] if h.seg_abs else level + h.seg_lf[seg_id]
    if h.lf_delta_enabled:
        level += h.ref_deltas[0]  # keyframes are always INTRA_FRAME
        if ymode == B_PRED:
            level += h.mode_deltas[0]
    return max(0, min(63, level))


def _seg_quant(h: _Header, seg_id: int) -> int:
    if not h.seg_enabled:
        return h.qindex
    return h.seg_q[seg_id] if h.seg_abs else h.qindex + h.seg_q[seg_id]


SEG_TREE = (2, 4, -0, -1, -2, -3)


# ---------------------------------------------------------------------------
# Shared reconstruction core (decoder and encoder-recon run this path)
# ---------------------------------------------------------------------------


def _dq_vectors(dq: dict) -> dict:
    """Per-coefficient dequant factor vectors (length 16, raster order)."""
    y1 = np.full(16, dq["y1ac"], np.int32)
    y1[0] = dq["y1dc"]
    y2 = np.full(16, dq["y2ac"], np.int32)
    y2[0] = dq["y2dc"]
    uv = np.full(16, dq["uvac"], np.int32)
    uv[0] = dq["uvdc"]
    return {"y1": y1, "y2": y2, "uv": uv}


def _mb_coefficients(levels_y, levels_y2, levels_u, levels_v, dqv,
                     has_y2: bool):
    """Quantized levels (raster order) -> dequantized coefficient arrays;
    when ``has_y2``, runs the inverse WHT and plants the Y DCs."""
    ycoef = levels_y * dqv["y1"]
    if has_y2:
        y2 = (levels_y2 * dqv["y2"]).reshape(4, 4)
        dcs = iwht4x4(y2[None])[0]
        ycoef[:, 0] = dcs.reshape(16)
    ucoef = levels_u * dqv["uv"]
    vcoef = levels_v * dqv["uv"]
    return ycoef, ucoef, vcoef


class _Recon:
    """Padded int32 reconstruction surfaces; pixel (r, c) at [r+1, c+1]."""

    def __init__(self, mb_w: int, mb_h: int) -> None:
        self.mb_w = mb_w
        self.mb_h = mb_h
        self.y = np.zeros((mb_h * 16 + 1, mb_w * 16 + 1), np.int32)
        self.u = np.zeros((mb_h * 8 + 1, mb_w * 8 + 1), np.int32)
        self.v = np.zeros((mb_h * 8 + 1, mb_w * 8 + 1), np.int32)

    def _mb_top_right(self, mby: int, mbx: int) -> np.ndarray:
        """The MB-level top-right 4 pixels (libwebp ``top_right``): row
        above the MB, columns 16..19.  127 off the top edge; the above
        MB's last pixel replicated off the right edge.  libwebp
        replicates this SAME vector for every subblock row, so
        right-column subblocks below the top row do NOT read the
        current row's neighbours (the famous VP8 above-right quirk)."""
        plane = self.y
        if mby == 0:
            return np.full(4, 127, np.int32)
        row = mby * 16  # surface row of the above MB's bottom pixel row
        if mbx == self.mb_w - 1:
            return np.full(4, int(plane[row, mbx * 16 + 16]), np.int32)
        return plane[row, 1 + mbx * 16 + 16 : 1 + mbx * 16 + 20].astype(
            np.int32)

    def _bpred_ctx(self, mby: int, mbx: int, r: int, c: int):
        """(above8, left4, topleft) for Y subblock (r, c) of MB (mby, mbx),
        with libwebp's exact border conventions: virtual above row = 127
        (its corner extension included), virtual left column = 129, the
        top row's 127 winning at the frame corner; right-column
        subblocks take ``_mb_top_right`` as their above-right for every
        row."""
        plane = self.y
        y0 = 1 + mby * 16 + 4 * r
        x0 = 1 + mbx * 16 + 4 * c
        have_above = mby > 0 or r > 0
        have_left = mbx > 0 or c > 0
        if have_above:
            above = plane[y0 - 1, x0 : x0 + 4].astype(np.int32)
            ar = (self._mb_top_right(mby, mbx) if c == 3
                  else plane[y0 - 1, x0 + 4 : x0 + 8].astype(np.int32))
            above8 = np.concatenate([above, ar])
        else:
            above8 = np.full(8, 127, np.int32)
        left = (plane[y0 : y0 + 4, x0 - 1].astype(np.int32)
                if have_left else np.full(4, 129, np.int32))
        if have_above and have_left:
            tl = int(plane[y0 - 1, x0 - 1])
        elif have_above:
            tl = 129
        else:
            tl = 127
        return above8, left, tl

    def recon_mb(self, mby: int, mbx: int, ymode: int, bmodes, uvmode: int,
                 ycoef=None, ucoef=None, vcoef=None,
                 res_y=None, res_u=None, res_v=None) -> None:
        """Rebuild one MB.  Residuals may be passed precomputed
        (``res_y`` (16,4,4), ``res_u``/``res_v`` (4,4,4)) — the decoder
        batches every block's IDCT into one vectorized call per frame;
        the math is identical either way (idct4x4 is elementwise over
        leading axes), so encoder recon and decoder output stay
        bit-exact."""
        py, px = 1 + mby * 16, 1 + mbx * 16
        Y = self.y
        if res_y is None:
            res_y = idct4x4(ycoef.reshape(16, 4, 4))
        if ymode == B_PRED:
            for i in range(16):
                r, c = divmod(i, 4)
                above8, left, tl = self._bpred_ctx(mby, mbx, r, c)
                pred = predict_b(bmodes[i], above8, left, tl)
                yy, xx = py + 4 * r, px + 4 * c
                Y[yy : yy + 4, xx : xx + 4] = np.clip(pred + res_y[i],
                                                      0, 255)
        else:
            pred = predict_block(Y, py, px, 16, ymode, mby > 0, mbx > 0)
            res16 = res_y.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(
                16, 16)
            Y[py : py + 16, px : px + 16] = np.clip(pred + res16, 0, 255)
        pcy, pcx = 1 + mby * 8, 1 + mbx * 8
        if res_u is None:
            res_u = idct4x4(ucoef.reshape(4, 4, 4))
        if res_v is None:
            res_v = idct4x4(vcoef.reshape(4, 4, 4))
        for plane, res in ((self.u, res_u), (self.v, res_v)):
            pred = predict_block(plane, pcy, pcx, 8, uvmode, mby > 0, mbx > 0)
            res8 = res.reshape(2, 2, 4, 4).transpose(0, 2, 1, 3).reshape(8, 8)
            plane[pcy : pcy + 8, pcx : pcx + 8] = np.clip(pred + res8, 0, 255)

    def loop_filter(self, mb_levels: np.ndarray, sharpness: int,
                    simple: bool, inner: np.ndarray) -> None:
        """Apply the in-loop filter in the RFC/libwebp MB raster order:
        for each MB — left edge, interior vertical edges, top edge,
        interior horizontal edges.  The order is load-bearing for
        bit-exactness (edges share pixels with their neighbours), so no
        whole-frame batching here; each edge op is still vectorized
        along its 16/8-pixel extent."""
        mb_h, mb_w = mb_levels.shape
        y = self.y[1:, 1:]
        u = self.u[1:, 1:]
        v = self.v[1:, 1:]
        limit_cache: dict[int, tuple] = {}
        for mby in range(mb_h):
            for mbx in range(mb_w):
                level = int(mb_levels[mby, mbx])
                if level <= 0:
                    continue
                lims = limit_cache.get(level)
                if lims is None:
                    lims = limit_cache[level] = _filter_limits(level,
                                                               sharpness)
                fin = bool(inner[mby, mbx])
                if simple:
                    _filter_mb_simple(y, mby * 16, mbx * 16, lims,
                                      fin, mbx > 0, mby > 0)
                else:
                    _filter_mb_normal(y, mby * 16, mbx * 16, 16, lims,
                                      fin, mbx > 0, mby > 0)
                    _filter_mb_normal(u, mby * 8, mbx * 8, 8, lims,
                                      fin, mbx > 0, mby > 0)
                    _filter_mb_normal(v, mby * 8, mbx * 8, 8, lims,
                                      fin, mbx > 0, mby > 0)


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------


def _parse_frame(data: bytes):
    if len(data) < 10:
        raise Vp8Error("truncated VP8 frame")
    tmp = data[0] | (data[1] << 8) | (data[2] << 16)
    if tmp & 1:
        raise Vp8Error("VP8 chunk must carry a keyframe")
    first_size = tmp >> 5
    if data[3:6] != b"\x9d\x01\x2a":
        raise Vp8Error("bad VP8 keyframe start code")
    width = (data[6] | (data[7] << 8)) & 0x3FFF
    height = (data[8] | (data[9] << 8)) & 0x3FFF
    if width == 0 or height == 0:
        raise Vp8Error("zero VP8 dimensions")
    if 10 + first_size > len(data):
        raise Vp8Error("first partition overruns frame")
    bd0 = BoolDecoder(data[10 : 10 + first_size])
    hdr = _parse_keyframe_header(bd0)
    rest = data[10 + first_size :]
    sizes_len = (hdr.nparts - 1) * 3
    if len(rest) < sizes_len:
        raise Vp8Error("missing token partition size table")
    parts = []
    off = sizes_len
    for i in range(hdr.nparts - 1):
        sz = rest[3 * i] | (rest[3 * i + 1] << 8) | (rest[3 * i + 2] << 16)
        if off + sz > len(rest):
            raise Vp8Error("token partition overruns frame")
        parts.append(BoolDecoder(rest[off : off + sz]))
        off += sz
    parts.append(BoolDecoder(rest[off:]))
    return hdr, width, height, bd0, parts


class _NzCtx:
    """Above/left nonzero-coefficient contexts (the A[]/L[] trick: each
    block's flag overwrites both its column's 'above' slot and its row's
    'left' slot as decode proceeds)."""

    def __init__(self, mb_w: int) -> None:
        self.a_y = np.zeros((mb_w, 4), np.int32)
        self.a_u = np.zeros((mb_w, 2), np.int32)
        self.a_v = np.zeros((mb_w, 2), np.int32)
        self.a_y2 = np.zeros(mb_w, np.int32)

    def new_row(self) -> None:
        self.l_y = np.zeros(4, np.int32)
        self.l_u = np.zeros(2, np.int32)
        self.l_v = np.zeros(2, np.int32)
        self.l_y2 = 0

    def reset_mb(self, mbx: int, has_y2: bool) -> None:
        """Skipped MB: zero Y/U/V contexts; Y2 context only if present."""
        self.a_y[mbx] = 0
        self.a_u[mbx] = 0
        self.a_v[mbx] = 0
        self.l_y[:] = 0
        self.l_u[:] = 0
        self.l_v[:] = 0
        if has_y2:
            self.a_y2[mbx] = 0
            self.l_y2 = 0


def _decode_mb_levels(bd: BoolDecoder, probs, ctx: _NzCtx, mbx: int,
                      has_y2: bool, out_y, out_y2, out_u, out_v) -> bool:
    """Token-decode one MB's quantized levels into the caller's
    (pre-zeroed) raster-order arrays; all-zero blocks write nothing.
    Returns any_nonzero."""
    any_nz = False
    if has_y2:
        c = int(ctx.a_y2[mbx] + ctx.l_y2)
        blk, nz = _decode_coeffs(bd, probs, 1, 0, min(c, 2))
        if blk is not None:
            out_y2[:] = blk
        ctx.a_y2[mbx] = ctx.l_y2 = int(nz)
        any_nz |= nz
    btype, first = (0, 1) if has_y2 else (3, 0)
    a_y, l_y = ctx.a_y, ctx.l_y
    for r in range(4):
        for cc in range(4):
            cv = int(a_y[mbx, cc] + l_y[r])
            blk, nz = _decode_coeffs(bd, probs, btype, first, min(cv, 2))
            if blk is not None:
                out_y[r * 4 + cc] = blk
            a_y[mbx, cc] = l_y[r] = int(nz)
            any_nz |= nz
    for dst, a, l_ in ((out_u, ctx.a_u, ctx.l_u), (out_v, ctx.a_v, ctx.l_v)):
        for r in range(2):
            for cc in range(2):
                cv = int(a[mbx, cc] + l_[r])
                blk, nz = _decode_coeffs(bd, probs, 2, 0, min(cv, 2))
                if blk is not None:
                    dst[r * 2 + cc] = blk
                a[mbx, cc] = l_[r] = int(nz)
                any_nz |= nz
    return any_nz


def decode_vp8(data: bytes, yuv: bool = False) -> np.ndarray:
    """VP8 keyframe bitstream -> (H, W, 3) uint8 RGB (or the raw
    ``(y, u, v)`` 4:2:0 planes with ``yuv=True`` — the representation
    libwebp's WebPDecodeYUV exposes, used for plane-exact interop pins).

    Two passes: (1) sequential bitstream parse of every MB's modes and
    quantized levels, then ONE vectorized dequant + inverse-WHT + IDCT
    over all blocks of the frame; (2) sequential intra reconstruction
    (prediction depends on already-reconstructed neighbours) consuming
    the precomputed residuals.  Identical integer math to the per-MB
    path — idct4x4/iwht4x4 vectorize over leading axes."""
    hdr, width, height, bd0, parts = _parse_frame(data)
    mb_w = (width + 15) // 16
    mb_h = (height + 15) // 16
    n_mb = mb_w * mb_h
    rec = _Recon(mb_w, mb_h)
    # nested Python lists: per-element indexing in the token hot loop is
    # ~5x cheaper than numpy scalar indexing (see _decode_coeffs)
    probs = hdr.coeff_probs.tolist()
    ctx = _NzCtx(mb_w)
    inner = np.zeros((mb_h, mb_w), bool)
    mb_levels = np.zeros((mb_h, mb_w), np.int32)
    dqvs = [_dq_vectors(dequant_factors(_seg_quant(hdr, s), hdr.qdeltas))
            for s in range(4)]

    # pass 1: parse modes + levels for the whole frame
    ly = np.zeros((n_mb, 16, 16), np.int32)
    ly2 = np.zeros((n_mb, 16), np.int32)
    lu = np.zeros((n_mb, 4, 16), np.int32)
    lv = np.zeros((n_mb, 4, 16), np.int32)
    seg_ids = np.zeros(n_mb, np.int32)
    ymodes = np.zeros(n_mb, np.int32)
    uvmodes = np.zeros(n_mb, np.int32)
    all_bmodes: list = [None] * n_mb
    # b-mode coding context: bottom sub-mode row of the MB above (per MB
    # column) and right sub-mode column of the MB to the left; frame
    # borders act as B_DC (RFC 6386 §11.4)
    above_sub = [[B_DC] * 4 for _ in range(mb_w)]
    i = 0
    for mby in range(mb_h):
        ctx.new_row()
        left_sub = [B_DC] * 4
        bd_t = parts[mby % len(parts)]
        for mbx in range(mb_w):
            seg_id = 0
            if hdr.seg_enabled and hdr.seg_update_map:
                seg_id = bd0.tree(SEG_TREE, hdr.seg_tree_probs)
            skip = bool(bd0.bool(hdr.prob_skip)) if hdr.skip_enabled else False
            ymode = bd0.tree(KF_YMODE_TREE, KF_YMODE_PROBS)
            if ymode == B_PRED:
                modes = []
                asub = above_sub[mbx]
                for j in range(16):
                    r_, c_ = j >> 2, j & 3
                    a = modes[j - 4] if r_ else asub[c_]
                    lft = modes[j - 1] if c_ else left_sub[r_]
                    modes.append(bd0.tree(BMODE_TREE, KF_BMODE_PROBS[a][lft]))
                all_bmodes[i] = modes
                above_sub[mbx] = modes[12:16]
                left_sub = [modes[3], modes[7], modes[11], modes[15]]
            else:
                sub = MODE_TO_SUBMODE[ymode]
                above_sub[mbx] = [sub] * 4
                left_sub = [sub] * 4
            uvmode = bd0.tree(UV_MODE_TREE, KF_UV_MODE_PROBS)
            has_y2 = ymode != B_PRED
            if skip:
                ctx.reset_mb(mbx, has_y2)
                any_nz = False
            else:
                any_nz = _decode_mb_levels(bd_t, probs, ctx, mbx, has_y2,
                                           ly[i], ly2[i], lu[i], lv[i])
            seg_ids[i] = seg_id
            ymodes[i] = ymode
            uvmodes[i] = uvmode
            inner[mby, mbx] = any_nz or ymode == B_PRED
            mb_levels[mby, mbx] = _mb_filter_level(hdr, seg_id, ymode)
            i += 1

    # batched dequant + inverse transforms for the whole frame
    fac_y1 = np.stack([dqvs[s]["y1"] for s in seg_ids])  # (n, 16)
    fac_y2 = np.stack([dqvs[s]["y2"] for s in seg_ids])
    fac_uv = np.stack([dqvs[s]["uv"] for s in seg_ids])
    ycoef = ly * fac_y1[:, None, :]
    has_y2_mask = ymodes != B_PRED
    if has_y2_mask.any():
        idx = np.nonzero(has_y2_mask)[0]
        y2c = (ly2[idx] * fac_y2[idx]).reshape(-1, 4, 4)
        dcs = iwht4x4(y2c).reshape(len(idx), 16)
        ycoef[idx, :, 0] = dcs
    res_y = idct4x4(ycoef.reshape(-1, 4, 4)).reshape(n_mb, 16, 4, 4)
    res_u = idct4x4((lu * fac_uv[:, None, :]).reshape(-1, 4, 4)).reshape(
        n_mb, 4, 4, 4)
    res_v = idct4x4((lv * fac_uv[:, None, :]).reshape(-1, 4, 4)).reshape(
        n_mb, 4, 4, 4)

    # pass 2: sequential intra reconstruction
    i = 0
    for mby in range(mb_h):
        for mbx in range(mb_w):
            rec.recon_mb(mby, mbx, int(ymodes[i]), all_bmodes[i],
                         int(uvmodes[i]), res_y=res_y[i], res_u=res_u[i],
                         res_v=res_v[i])
            i += 1
    rec.loop_filter(mb_levels, hdr.sharpness, hdr.simple_filter, inner)
    y = rec.y[1 : 1 + height, 1 : 1 + width]
    u = rec.u[1 : 1 + (height + 1) // 2, 1 : 1 + (width + 1) // 2]
    v = rec.v[1 : 1 + (height + 1) // 2, 1 : 1 + (width + 1) // 2]
    if yuv:
        return y.astype(np.uint8), u.astype(np.uint8), v.astype(np.uint8)
    return yuv420_to_rgb(y, u, v)


# ---------------------------------------------------------------------------
# Encoder (intra-only, single token partition)
# ---------------------------------------------------------------------------

_LEVEL_MAX = 2114  # CAT6 ceiling: 67 + (2^11 - 1)


def _quantize(coefs: np.ndarray, facv: np.ndarray) -> np.ndarray:
    lv = np.rint(coefs.astype(np.float64) / facv).astype(np.int32)
    return np.clip(lv, -_LEVEL_MAX, _LEVEL_MAX)


def _sad(a: np.ndarray, b: np.ndarray) -> int:
    return int(np.abs(a.astype(np.int32) - b).sum())


def _encode_mb_choose(rec: _Recon, src_y, src_u, src_v, mby: int, mbx: int,
                      dqv: dict, use_bpred: bool) -> dict:
    """Mode-select + quantize one MB against the evolving reconstruction.
    Writes the MB's reconstruction into ``rec`` (shared path) and returns
    the mode/level record for the bitstream passes."""
    py, px = 1 + mby * 16, 1 + mbx * 16
    sy = src_y[mby * 16 : mby * 16 + 16, mbx * 16 : mbx * 16 + 16]
    info: dict = {}
    if use_bpred:
        ymode = B_PRED
        bmodes = []
        levels_y = np.zeros((16, 16), np.int32)
        for i in range(16):
            r, c = divmod(i, 4)
            above8, left, tl = rec._bpred_ctx(mby, mbx, r, c)
            sblk = sy[4 * r : 4 * r + 4, 4 * c : 4 * c + 4].astype(np.int32)
            best, best_sad, best_pred = 0, 1 << 60, None
            for m in range(10):
                pred = predict_b(m, above8, left, tl)
                s = _sad(pred, sblk)
                if s < best_sad:
                    best, best_sad, best_pred = m, s, pred
            bmodes.append(best)
            dct = fdct4x4((sblk - best_pred)[None])[0]
            lvl = _quantize(dct.reshape(16), dqv["y1"])
            levels_y[i] = lvl
            resid = idct4x4((lvl * dqv["y1"]).reshape(1, 4, 4))[0]
            yy, xx = py + 4 * r, px + 4 * c
            rec.y[yy : yy + 4, xx : xx + 4] = np.clip(best_pred + resid,
                                                      0, 255)
        info.update(ymode=ymode, bmodes=bmodes, levels_y=levels_y,
                    levels_y2=None)
        y_written = True
    else:
        best, best_sad = DC_PRED, 1 << 60
        for m in (DC_PRED, V_PRED, H_PRED, TM_PRED):
            pred = predict_block(rec.y, py, px, 16, m, mby > 0, mbx > 0)
            s = _sad(pred, sy)
            if s < best_sad:
                best, best_sad = m, s
        pred = predict_block(rec.y, py, px, 16, best, mby > 0, mbx > 0)
        res = (sy.astype(np.int32) - pred)
        blocks = res.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 4, 4)
        dct = fdct4x4(blocks).reshape(16, 16)
        dcs = dct[:, 0].reshape(4, 4)
        y2 = fwht4x4(dcs[None])[0].reshape(16)
        levels_y2 = _quantize(y2, dqv["y2"])
        levels_y = _quantize(dct, dqv["y1"])
        levels_y[:, 0] = 0  # DC rides in Y2
        info.update(ymode=best, bmodes=None, levels_y=levels_y,
                    levels_y2=levels_y2)
        y_written = False
    # chroma: one mode shared by U and V
    pcy, pcx = 1 + mby * 8, 1 + mbx * 8
    su = src_u[mby * 8 : mby * 8 + 8, mbx * 8 : mbx * 8 + 8]
    sv = src_v[mby * 8 : mby * 8 + 8, mbx * 8 : mbx * 8 + 8]
    bestuv, best_sad = DC_PRED, 1 << 60
    for m in (DC_PRED, V_PRED, H_PRED, TM_PRED):
        pu = predict_block(rec.u, pcy, pcx, 8, m, mby > 0, mbx > 0)
        pv = predict_block(rec.v, pcy, pcx, 8, m, mby > 0, mbx > 0)
        s = _sad(pu, su) + _sad(pv, sv)
        if s < best_sad:
            bestuv, best_sad = m, s
    levels_u = np.zeros((4, 16), np.int32)
    levels_v = np.zeros((4, 16), np.int32)
    for plane, srcp, out in ((rec.u, su, levels_u), (rec.v, sv, levels_v)):
        pred = predict_block(plane, pcy, pcx, 8, bestuv, mby > 0, mbx > 0)
        res = srcp.astype(np.int32) - pred
        blocks = res.reshape(2, 4, 2, 4).transpose(0, 2, 1, 3).reshape(4, 4, 4)
        out[:] = _quantize(fdct4x4(blocks).reshape(4, 16), dqv["uv"])
    info.update(uvmode=bestuv, levels_u=levels_u, levels_v=levels_v)
    has_y2 = info["ymode"] != B_PRED
    any_nz = (levels_u.any() or levels_v.any() or info["levels_y"].any()
              or (has_y2 and info["levels_y2"].any()))
    info["skip"] = not any_nz
    info["any_nz"] = bool(any_nz)
    # reconstruct through the shared path (B_PRED Y already written; the
    # recon_mb rewrite below recomputes identical values for it)
    ly2 = info["levels_y2"] if has_y2 else np.zeros(16, np.int32)
    ycoef, ucoef, vcoef = _mb_coefficients(
        info["levels_y"], ly2, levels_u, levels_v, dqv, has_y2)
    if y_written:
        # chroma only; Y surface already holds the identical values
        for plane, coef in ((rec.u, ucoef), (rec.v, vcoef)):
            pred = predict_block(plane, pcy, pcx, 8, bestuv, mby > 0, mbx > 0)
            resid = idct4x4(coef.reshape(4, 4, 4))
            res8 = resid.reshape(2, 2, 4, 4).transpose(0, 2, 1, 3).reshape(8, 8)
            plane[pcy : pcy + 8, pcx : pcx + 8] = np.clip(pred + res8, 0, 255)
    else:
        rec.recon_mb(mby, mbx, info["ymode"], info["bmodes"], bestuv,
                     ycoef, ucoef, vcoef)
    return info


def _write_mb_tokens(be: BoolEncoder, probs, counts, ctx: _NzCtx, mbx: int,
                     info: dict) -> None:
    has_y2 = info["ymode"] != B_PRED
    if info["skip"]:
        ctx.reset_mb(mbx, has_y2)
        return
    if has_y2:
        zz = [int(info["levels_y2"][ZIGZAG[i]]) for i in range(16)]
        c = int(ctx.a_y2[mbx] + ctx.l_y2)
        nz = _encode_coeffs(be, probs, counts, 1, 0, min(c, 2), zz)
        ctx.a_y2[mbx] = ctx.l_y2 = int(nz)
    btype, first = (0, 1) if has_y2 else (3, 0)
    ly = info["levels_y"]
    for r in range(4):
        for cc in range(4):
            blk = ly[r * 4 + cc]
            zz = [int(blk[ZIGZAG[i]]) for i in range(16)]
            cv = int(ctx.a_y[mbx, cc] + ctx.l_y[r])
            nz = _encode_coeffs(be, probs, counts, btype, first,
                                min(cv, 2), zz)
            ctx.a_y[mbx, cc] = ctx.l_y[r] = int(nz)
    for lvls, a, l_ in ((info["levels_u"], ctx.a_u, ctx.l_u),
                        (info["levels_v"], ctx.a_v, ctx.l_v)):
        for r in range(2):
            for cc in range(2):
                blk = lvls[r * 2 + cc]
                zz = [int(blk[ZIGZAG[i]]) for i in range(16)]
                cv = int(a[mbx, cc] + l_[r])
                nz = _encode_coeffs(be, probs, counts, 2, 0, min(cv, 2), zz)
                a[mbx, cc] = l_[r] = int(nz)


def _optimize_probs(counts: np.ndarray) -> np.ndarray:
    """Per-node optimal probabilities where the update pays for itself
    (update cost ~14 bits: a 252-gate 'yes' + 8-bit literal)."""
    import math

    probs = default_coeff_probs()
    n0 = counts[..., 0].astype(np.float64)
    n1 = counts[..., 1].astype(np.float64)
    tot = n0 + n1
    with np.errstate(divide="ignore", invalid="ignore"):
        newp = np.clip((256.0 * n0 / np.maximum(tot, 1)).astype(np.int64),
                       1, 255)
        new_cost = -(n0 * np.log2(newp / 256.0)
                     + n1 * np.log2((256.0 - newp) / 256.0))
    worth = (tot > 0) & ((tot - new_cost) > 14.0)
    probs[worth] = newp[worth]
    del math
    return probs


def encode_vp8(img: np.ndarray, qindex: int = 40, use_bpred: bool = False,
               filter_level: int | None = None, sharpness: int = 0
               ) -> tuple[bytes, np.ndarray]:
    """Encode an RGB (or grayscale) image as a VP8 keyframe bitstream.

    Returns ``(bitstream, reconstruction)`` where ``reconstruction`` is
    the encoder's own loop-filtered decode — tests pin
    ``decode_vp8(bitstream) == reconstruction`` bit-exactly."""
    if img.ndim == 2:
        img = np.stack([img] * 3, -1)
    if img.dtype != np.uint8:
        raise Vp8Error("encode_vp8 expects uint8")
    h, w = img.shape[:2]
    if not (0 < w <= 0x3FFF and 0 < h <= 0x3FFF):
        raise Vp8Error(f"unencodable dimensions {w}x{h}")
    qindex = _clamp_q(qindex)
    if filter_level is None:
        filter_level = min(63, max(0, qindex // 2))
    mb_w = (w + 15) // 16
    mb_h = (h + 15) // 16
    pad = np.pad(img, ((0, mb_h * 16 - h), (0, mb_w * 16 - w), (0, 0)),
                 mode="edge")
    src_y, src_u, src_v = rgb_to_yuv420(pad)
    dq = dequant_factors(qindex, {})
    dqv = _dq_vectors(dq)

    # pass 1: mode choice + quantization + reconstruction (pre-filter)
    rec = _Recon(mb_w, mb_h)
    infos = []
    inner = np.zeros((mb_h, mb_w), bool)
    n_skip = 0
    for mby in range(mb_h):
        row = []
        for mbx in range(mb_w):
            info = _encode_mb_choose(rec, src_y, src_u, src_v, mby, mbx,
                                     dqv, use_bpred)
            inner[mby, mbx] = info["any_nz"] or info["ymode"] == B_PRED
            n_skip += info["skip"]
            row.append(info)
        infos.append(row)

    # token statistics with a throwaway encoder, then optimized probs
    counts = np.zeros((N_TYPES, N_BANDS, N_CTX, N_PROBS, 2), np.int64)
    scratch = BoolEncoder()
    flat = default_coeff_probs()
    ctx = _NzCtx(mb_w)
    for mby in range(mb_h):
        ctx.new_row()
        for mbx in range(mb_w):
            _write_mb_tokens(scratch, flat, counts, ctx, mbx, infos[mby][mbx])
    probs = _optimize_probs(counts)

    n_mb = mb_w * mb_h
    prob_skip = min(255, max(1, (256 * (n_mb - n_skip)) // n_mb))

    # pass 2a: first partition = header bits + per-MB mode info
    be = BoolEncoder()
    be.literal(0, 1)  # color space
    be.literal(0, 1)  # clamping
    be.bool(0, 128)  # segmentation disabled
    be.bool(0, 128)  # normal loop filter
    be.literal(filter_level, 6)
    be.literal(sharpness, 3)
    be.bool(0, 128)  # lf deltas disabled
    be.literal(0, 2)  # single token partition
    be.literal(qindex, 7)
    for _ in range(5):
        be.bool(0, 128)  # no quantizer deltas
    be.bool(1, 128)  # refresh entropy probs
    dflt = default_coeff_probs()
    for t in range(N_TYPES):
        for b in range(N_BANDS):
            for c in range(N_CTX):
                for p in range(N_PROBS):
                    gate = int(COEFF_UPDATE_PROBS[t, b, c, p])
                    if probs[t, b, c, p] != dflt[t, b, c, p]:
                        be.bool(1, gate)
                        be.literal(int(probs[t, b, c, p]), 8)
                    else:
                        be.bool(0, gate)
    be.bool(1, 128)  # mb_no_coeff_skip
    be.literal(prob_skip, 8)
    above_sub = [[B_DC] * 4 for _ in range(mb_w)]
    for mby in range(mb_h):
        left_sub = [B_DC] * 4
        for mbx in range(mb_w):
            info = infos[mby][mbx]
            be.bool(1 if info["skip"] else 0, prob_skip)
            be.tree(KF_YMODE_TREE, KF_YMODE_PROBS, info["ymode"])
            if info["ymode"] == B_PRED:
                modes = info["bmodes"]
                asub = above_sub[mbx]
                for j, m in enumerate(modes):
                    r_, c_ = j >> 2, j & 3
                    a = modes[j - 4] if r_ else asub[c_]
                    lft = modes[j - 1] if c_ else left_sub[r_]
                    be.tree(BMODE_TREE, KF_BMODE_PROBS[a][lft], m)
                above_sub[mbx] = list(modes[12:16])
                left_sub = [modes[3], modes[7], modes[11], modes[15]]
            else:
                sub = MODE_TO_SUBMODE[info["ymode"]]
                above_sub[mbx] = [sub] * 4
                left_sub = [sub] * 4
            be.tree(UV_MODE_TREE, KF_UV_MODE_PROBS, info["uvmode"])
    first_part = be.flush()

    # pass 2b: token partition with the optimized probabilities
    bt = BoolEncoder()
    ctx = _NzCtx(mb_w)
    for mby in range(mb_h):
        ctx.new_row()
        for mbx in range(mb_w):
            _write_mb_tokens(bt, probs, None, ctx, mbx, infos[mby][mbx])
    tokens = bt.flush()

    tag = (len(first_part) << 5) | (1 << 4)  # keyframe, version 0, shown
    head = bytes((tag & 0xFF, (tag >> 8) & 0xFF, (tag >> 16) & 0xFF))
    head += b"\x9d\x01\x2a"
    head += struct.pack("<HH", w, h)
    stream = head + first_part + tokens

    # encoder-side reconstruction == decoder output (shared filter path)
    mb_levels = np.full((mb_h, mb_w), filter_level, np.int32)
    rec.loop_filter(mb_levels, sharpness, False, inner)
    ry = rec.y[1 : 1 + h, 1 : 1 + w]
    ru = rec.u[1 : 1 + (h + 1) // 2, 1 : 1 + (w + 1) // 2]
    rv = rec.v[1 : 1 + (h + 1) // 2, 1 : 1 + (w + 1) // 2]
    return stream, yuv420_to_rgb(ry, ru, rv)


# Provenance marker stamped into self-encoded lossy WebPs.  It used to
# GATE decoding (round 3, when the default tables were placeholders);
# since the RFC tables landed and foreign decode is libwebp-pinned the
# marker is informational only — kept so corpora identify their producer
# (standard RIFF readers skip unknown chunks, so files stay valid WebPs).
SELF_ENCODED_CHUNK = b"I2TR" + struct.pack("<I", 4) + b"self"


def encode_webp_vp8(img: np.ndarray, qindex: int = 40, **kw
                    ) -> tuple[bytes, np.ndarray]:
    """Encode ``img`` as a lossy WebP (RIFF-wrapped VP8 keyframe)."""
    payload, recon = encode_vp8(img, qindex=qindex, **kw)
    chunk = b"VP8 " + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        chunk += b"\x00"
    riff = b"WEBP" + chunk + SELF_ENCODED_CHUNK
    return b"RIFF" + struct.pack("<I", len(riff)) + riff, recon
