"""Pure-numpy baseline-JPEG (JFIF/DCT) decoder — no image libraries in the
execution containers, and the reference accepts any cv2-decodable format
(src/img2table/document/image.py:25-32), of which web-crawl images are
overwhelmingly JPEG.

Decode semantics replicate libjpeg(-turbo)'s DEFAULT decompression path —
the one cv2.imdecode uses — at the integer-arithmetic level so pixels come
out bit-identical for baseline images:

* entropy decode per ITU-T.81 §F2 (restart markers supported),
* dequantize + `jpeg_idct_islow` (Loeffler 13-bit fixed-point butterfly,
  CONST_BITS=13 / PASS1_BITS=2, DESCALE = add-half then arithmetic shift),
* `h2v2/h2v1/h1v2_fancy_upsample` triangle filters for the standard
  chroma ratios (replicate upsample otherwise),
* `ycc_rgb_convert` 16-bit fixed-point tables (SCALEBITS=16); 3-component
  RGB JPEGs (Adobe APP14 transform=0 or R,G,B component ids) skip the
  conversion like jdcolor.c does.

Progressive (SOF2) streams are decoded too: spectral-selection and
successive-approximation scans per ITU T.81 §G.2, with the AC-refinement
control flow mirroring libjpeg's jdphuff.c; verified by transcoding a
baseline image's quantized coefficients into multi-scan progressive
streams (including refinement scans) and requiring bit-identical pixels
(the transcoder lives in tests/test_jpeg.py).
4-component Adobe JPEGs (CMYK, and YCCK via APP14 transform=2) composite
to RGB with cv2's CMYK2BGR formula.  Arithmetic-coded streams (SOF9
sequential / SOF10 progressive) decode via the QM coder in
``imgops/jpega.py``, libjpeg-interop pinned in tests/test_jpeg_arith.py.
Unsupported (explicit errors, not wrong pixels): lossless/hierarchical
SOF variants, 12-bit precision.

The encoder is a plain baseline writer (standard Annex-K tables scaled by
quality, 4:2:0; ``arithmetic=True`` swaps in the SOF9 QM entropy layer)
used by tests for roundtrip checks and by pipelines that need a JPEG
sink; the arithmetic entropy stream is byte-identical to libjpeg's for
the same coefficients (pinned), the rest makes no bit-parity claim.
"""

from __future__ import annotations

import struct

import numpy as np

from img2table_ray.imgops.limits import check_dims


class JpegError(ValueError):
    pass


# zig-zag order: index = zigzag position, value = raster position in 8x8
ZIGZAG = np.array([
     0,  1,  8, 16,  9,  2,  3, 10,
    17, 24, 32, 25, 18, 11,  4,  5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13,  6,  7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63], dtype=np.int32)


_LUT_CACHE: dict[bytes, "_HuffLUT"] = {}


class _HuffLUT:
    """16-bit-lookahead Huffman table: one peek resolves any code (JPEG
    codes are <= 16 bits).  Entries are packed (length << 8 | symbol) in a
    plain Python list — list indexing is the decode loop's hot op."""

    __slots__ = ("lut", "arr", "_xdc", "_xac")

    def __init__(self, bits: list[int], huffval: bytes) -> None:
        arr = np.zeros(1 << 16, dtype=np.int32)
        code = 0
        k = 0
        for ln in range(1, 17):
            for _ in range(bits[ln - 1]):
                lo = code << (16 - ln)
                hi = lo + (1 << (16 - ln))
                arr[lo:hi] = (ln << 8) | huffval[k]
                code += 1
                k += 1
            code <<= 1
        self.arr = arr  # numpy view for the vectorized decoder
        self.lut = arr.tolist()
        self._xdc = None
        self._xac = None

    def xdc(self) -> list:
        """Composite DC chase table: window -> total bit advance
        (code + value bits); 0 marks an invalid code."""
        if self._xdc is None:
            cl = self.arr >> 8
            s = self.arr & 0xFF
            self._xdc = np.where(self.arr == 0, 0, cl + s).tolist()
        return self._xdc

    def xac(self) -> list:
        """Composite AC chase table: window -> (advance << 8) | k_advance,
        k_advance = r+1 for a coefficient, 16 for ZRL, 64 for EOB, 255 for
        an invalid code."""
        if self._xac is None:
            cl = self.arr >> 8
            sym = self.arr & 0xFF
            s = sym & 15
            kadv = np.where(s > 0, (sym >> 4) + 1,
                            np.where(sym == 0xF0, 16, 64))
            bad = self.arr == 0
            kadv = np.where(bad, 255, kadv)
            adv = np.where(bad, 1, cl + s)
            self._xac = ((adv << 8) | kadv).tolist()
        return self._xac


class _Component:
    __slots__ = ("cid", "h", "v", "tq", "dc_tab", "ac_tab", "blocks_w",
                 "blocks_h", "coefs", "plane", "pcoef", "pred")

    def __init__(self, cid: int, h: int, v: int, tq: int) -> None:
        self.cid = cid
        self.h = h
        self.v = v
        self.tq = tq


def _decode_frame(data: bytes):
    """Walk all markers; entropy-decode every scan (baseline: one scan via
    the fast path; progressive SOF2: each spectral/approximation scan per
    ITU T.81 §G.2 / libjpeg jdphuff semantics).  Returns
    (width, height, comps-with-.coefs, qt)."""
    if data[:2] != b"\xff\xd8":
        raise JpegError("not a JPEG (no SOI)")
    qt: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], _HuffLUT] = {}
    comps: list[_Component] = []
    width = height = None
    progressive = False
    arith = False
    dc_cond: dict[int, tuple] = {}  # DAC: table id -> (L, U)
    ac_cond: dict[int, int] = {}  # DAC: table id -> Kx
    decoded = False
    adobe_transform = None
    restart_interval = 0
    i = 2
    n = len(data)
    while i < n - 1:
        if data[i] != 0xFF:
            raise JpegError(f"marker desync at {i}")
        if data[i + 1] == 0xFF:  # fill byte (T.81 B.1.1.2): skip padding
            i += 1
            continue
        m = data[i + 1]
        if m == 0xD8 or 0xD0 <= m <= 0xD7 or m == 0x01:
            i += 2
            continue
        if m == 0xD9:
            break
        L = struct.unpack(">H", data[i + 2:i + 4])[0]
        seg = data[i + 4:i + 2 + L]
        if m == 0xDB:  # DQT
            p = 0
            while p < len(seg):
                pq, tq = seg[p] >> 4, seg[p] & 15
                p += 1
                if pq == 0:
                    tab = np.frombuffer(seg[p:p + 64], dtype=np.uint8).astype(np.int32)
                    p += 64
                else:
                    tab = np.frombuffer(seg[p:p + 128], dtype=">u2").astype(np.int32)
                    p += 128
                q = np.zeros(64, dtype=np.int32)
                q[ZIGZAG] = tab
                qt[tq] = q
        elif m == 0xC4:  # DHT
            p = 0
            while p < len(seg):
                tc, th = seg[p] >> 4, seg[p] & 15
                bits = list(seg[p + 1:p + 17])
                nv = sum(bits)
                vals = seg[p + 17:p + 17 + nv]
                ck = seg[p:p + 17 + nv]
                lut = _LUT_CACHE.get(ck)
                if lut is None:
                    lut = _HuffLUT(bits, vals)
                    if len(_LUT_CACHE) < 32:  # web JPEGs reuse Annex-K tables
                        _LUT_CACHE[ck] = lut
                huff[(tc, th)] = lut
                p += 17 + nv
        elif m in (0xC0, 0xC1, 0xC2, 0xC9, 0xCA):
            # SOF0/1 baseline, SOF2 progressive Huffman;
            # SOF9/10 sequential/progressive arithmetic (imgops/jpega.py)
            prec = seg[0]
            if prec != 8:
                raise JpegError(f"unsupported precision {prec}")
            progressive = m in (0xC2, 0xCA)
            arith = m in (0xC9, 0xCA)
            height, width = struct.unpack(">HH", seg[1:5])
            check_dims(width, height, "JPEG")
            nc = seg[5]
            if nc not in (1, 3, 4):
                raise JpegError(f"unsupported component count {nc}")
            comps = []
            for c in range(nc):
                cid, hv, tq = seg[6 + 3 * c], seg[7 + 3 * c], seg[8 + 3 * c]
                comps.append(_Component(cid, hv >> 4, hv & 15, tq))
            hmax = max(c.h for c in comps)
            vmax = max(c.v for c in comps)
            mcus_x = -(-width // (8 * hmax))
            mcus_y = -(-height // (8 * vmax))
            for c in comps:
                c.blocks_w = mcus_x * c.h
                c.blocks_h = mcus_y * c.v
                if progressive:
                    # flat Python list: progressive scans revisit
                    # coefficients; scalar list ops beat numpy here
                    c.pcoef = [0] * (c.blocks_w * c.blocks_h * 64)
                    c.pred = 0
        elif m in (0xC3, 0xC5, 0xC6, 0xC7, 0xCB, 0xCD, 0xCE, 0xCF):
            raise JpegError(f"unsupported SOF marker 0x{m:02x}")
        elif m == 0xCC:  # DAC: arithmetic conditioning (T.81 B.2.4.3)
            p = 0
            while p + 1 < len(seg):
                tc, tb = seg[p] >> 4, seg[p] & 15
                cs = seg[p + 1]
                p += 2
                if tc == 0:
                    lo, up = cs & 15, cs >> 4
                    if lo > up:
                        raise JpegError("bad DAC DC conditioning")
                    dc_cond[tb] = (lo, up)
                else:
                    if not 1 <= cs <= 63:
                        raise JpegError("bad DAC AC conditioning")
                    ac_cond[tb] = cs
        elif m == 0xEE and seg[:5] == b"Adobe":  # APP14: color transform
            adobe_transform = seg[11] if len(seg) > 11 else None
        elif m == 0xDD:  # DRI
            restart_interval = struct.unpack(">H", seg[:2])[0]
        elif m == 0xDA:  # SOS
            if not comps:
                raise JpegError("SOS before SOF")
            ns = seg[0]
            scan_sel = []
            for c in range(ns):
                cs, tabs = seg[1 + 2 * c], seg[2 + 2 * c]
                scan_sel.append((cs, tabs >> 4, tabs & 15))
            ss, se = seg[1 + 2 * ns], seg[2 + 2 * ns]
            ahal = seg[3 + 2 * ns]
            ah, al = ahal >> 4, ahal & 15
            # validate every table/component id referenced by this scan so a
            # corrupt stream raises JpegError, not a bare KeyError (callers
            # filter on JpegError for error rows)
            frame_ids = {c.cid for c in comps}
            for cs, td, ta in scan_sel:
                if cs not in frame_ids:
                    raise JpegError(f"scan references undefined component {cs}")
                if arith:
                    continue  # arithmetic bins self-initialize; no DHT
                needs_dc = (not progressive) or (ss == 0 and ah == 0)
                needs_ac = (not progressive) or ss > 0
                if needs_dc and (0, td) not in huff:
                    raise JpegError(f"undefined DC Huffman table {td}")
                if needs_ac and (1, ta) not in huff:
                    raise JpegError(f"undefined AC Huffman table {ta}")
            segs, end = _entropy_segments(data, i + 2 + L)
            if arith:
                from img2table_ray.imgops import jpega

                if not progressive:
                    if len(scan_sel) != len(comps):
                        raise JpegError(
                            "non-interleaved arithmetic scan not supported")
                    sel = {cs: (td, ta) for cs, td, ta in scan_sel}
                    if set(sel) != frame_ids:
                        raise JpegError(
                            "arithmetic scan does not cover all components")
                    jpega.decode_sequential_arith(
                        width, height, comps, sel, dc_cond, ac_cond,
                        restart_interval, segs)
                    decoded = True
                    break
                jpega.progressive_scan_arith(
                    width, height, comps, scan_sel, ss, se, ah, al,
                    dc_cond, ac_cond, restart_interval, segs)
                decoded = True
                i = end
                continue
            if not progressive:
                if len(scan_sel) != len(comps):
                    # per-component baseline scans are legal but rare; the
                    # interleaved fast path would decode them WRONG
                    raise JpegError("non-interleaved baseline scan not supported")
                sel = {cs: (td, ta) for cs, td, ta in scan_sel}
                if set(sel) != frame_ids:  # duplicate scan component ids
                    raise JpegError("baseline scan does not cover all components")
                # vectorized path for real streams; the scalar decoder
                # stays for tiny ones (its per-symbol cost beats the
                # vector setup below ~2 KB) and as the parity reference
                if sum(len(s) for s in segs) >= 2048:
                    _decode_coefficients_vec(width, height, comps, huff,
                                             sel, restart_interval, segs)
                else:
                    _decode_coefficients(width, height, comps, huff, sel,
                                         restart_interval, segs)
                decoded = True
                break  # baseline: single interleaved scan
            _progressive_scan(width, height, comps, huff, scan_sel,
                              ss, se, ah, al, restart_interval, segs)
            decoded = True
            i = end
            continue
        i += 2 + L
    if not decoded:
        raise JpegError("no SOS marker")
    if progressive:
        for c in comps:
            c.coefs = np.array(c.pcoef, dtype=np.int32).reshape(-1, 64)
            del c.pcoef
    # color space (libjpeg jdcolor default_decompress_parms heuristics):
    # 3 comp: YCbCr unless Adobe APP14 transform=0 or the ids spell R,G,B;
    # 4 comp: CMYK without an Adobe marker or with transform=0, YCCK for
    # transform=2 (and, like libjpeg, for any other nonzero transform)
    if len(comps) == 1:
        mode = "gray"
    elif len(comps) == 3:
        cids = tuple(c.cid for c in comps)
        mode = ("rgb" if adobe_transform == 0 or cids == (0x52, 0x47, 0x42)
                else "ycc")
    else:
        mode = "ycck" if adobe_transform not in (None, 0) else "cmyk"
    return width, height, comps, qt, mode


def _progressive_scan(width, height, comps, huff, scan_sel, ss, se, ah, al,
                      restart_interval, segs):
    """One progressive scan (T.81 §G.2; control flow mirrors libjpeg's
    jdphuff.c decode_mcu_* routines, including the AC-refinement
    correction-bit walk)."""
    hmax = max(c.h for c in comps)
    vmax = max(c.v for c in comps)
    mcus_x = -(-width // (8 * hmax))
    mcus_y = -(-height // (8 * vmax))
    by_id = {c.cid: c for c in comps}
    zz = ZIGZAG.tolist()

    if ss == 0:  # DC scan (se must be 0)
        if se != 0:
            raise JpegError("bad progressive DC scan band")
        units = []  # (comp, block_index) in scan order per MCU
        interleaved = len(scan_sel) > 1
        if interleaved:
            n_units = mcus_x * mcus_y
        else:
            c = by_id[scan_sel[0][0]]
            w2 = -(-(-(-width * c.h // hmax)) // 8)
            h2 = -(-(-(-height * c.v // vmax)) // 8)
            n_units = w2 * h2
        dluts = {cs: huff[(0, td)].lut for cs, td, ta in scan_sel}

        unit = 0
        seg_idx = 0
        interval = restart_interval if restart_interval else n_units
        while unit < n_units:
            if seg_idx >= len(segs):
                raise JpegError("truncated progressive DC stream")
            data = segs[seg_idx]
            nd = len(data)
            pos = buf = cnt = 0
            seg_idx += 1
            if ah == 0:
                for c in comps:
                    c.pred = 0
            end = min(n_units, unit + interval)
            while unit < end:
                if interleaved:
                    my, mx = divmod(unit, mcus_x)
                    blocks = []
                    for cs, td, ta in scan_sel:
                        c = by_id[cs]
                        for by in range(c.v):
                            for bx in range(c.h):
                                blocks.append(
                                    (c, ((my * c.v + by) * c.blocks_w
                                         + mx * c.h + bx) * 64, dluts[cs]))
                else:
                    c = by_id[scan_sel[0][0]]
                    r_, c_ = divmod(unit, w2)
                    blocks = [(c, (r_ * c.blocks_w + c_) * 64,
                               dluts[scan_sel[0][0]])]
                for c, base, dlut in blocks:
                    if ah == 0:  # first DC scan
                        while cnt < 16:
                            buf = (buf << 8) | (data[pos] if pos < nd else 0xFF)
                            pos += 1
                            cnt += 8
                        e = dlut[(buf >> (cnt - 16)) & 0xFFFF]
                        if e == 0:
                            raise JpegError("bad progressive DC code")
                        cnt -= e >> 8
                        s = e & 0xFF
                        if s:
                            while cnt < s:
                                buf = (buf << 8) | (data[pos] if pos < nd else 0xFF)
                                pos += 1
                                cnt += 8
                            v = (buf >> (cnt - s)) & ((1 << s) - 1)
                            cnt -= s
                            if v < (1 << (s - 1)):
                                v -= (1 << s) - 1
                            c.pred += v
                        c.pcoef[base] = c.pred << al
                    else:  # DC refinement: one bit per block
                        if cnt < 1:
                            buf = (buf << 8) | (data[pos] if pos < nd else 0xFF)
                            pos += 1
                            cnt += 8
                        bit = (buf >> (cnt - 1)) & 1
                        cnt -= 1
                        if bit:
                            c.pcoef[base] |= 1 << al
                    buf &= (1 << cnt) - 1
                unit += 1
        return

    # AC scan: single component, non-interleaved
    if len(scan_sel) != 1:
        raise JpegError("progressive AC scan must be non-interleaved")
    cs, td, ta = scan_sel[0]
    c = by_id[cs]
    alut = huff[(1, ta)].lut
    w2 = -(-(-(-width * c.h // hmax)) // 8)
    h2 = -(-(-(-height * c.v // vmax)) // 8)
    n_units = w2 * h2
    pc = c.pcoef
    p1 = 1 << al
    m1 = -1 << al

    unit = 0
    seg_idx = 0
    interval = restart_interval if restart_interval else n_units
    while unit < n_units:
        if seg_idx >= len(segs):
            raise JpegError("truncated progressive AC stream")
        data = segs[seg_idx]
        nd = len(data)
        pos = buf = cnt = 0
        seg_idx += 1
        eobrun = 0
        end = min(n_units, unit + interval)
        while unit < end:
            r_, c_ = divmod(unit, w2)
            base = (r_ * c.blocks_w + c_) * 64

            if ah == 0:  # first AC scan
                if eobrun:
                    eobrun -= 1
                else:
                    k = ss
                    while k <= se:
                        while cnt < 16:
                            buf = (buf << 8) | (data[pos] if pos < nd else 0xFF)
                            pos += 1
                            cnt += 8
                        e = alut[(buf >> (cnt - 16)) & 0xFFFF]
                        if e == 0:
                            raise JpegError("bad progressive AC code")
                        cnt -= e >> 8
                        rs = e & 0xFF
                        r = rs >> 4
                        s = rs & 15
                        if s == 0:
                            if r != 15:
                                eobrun = (1 << r) - 1
                                if r:
                                    while cnt < r:
                                        buf = (buf << 8) | (data[pos] if pos < nd else 0xFF)
                                        pos += 1
                                        cnt += 8
                                    eobrun += (buf >> (cnt - r)) & ((1 << r) - 1)
                                    cnt -= r
                                break
                            k += 16
                            continue
                        k += r
                        if k > se:
                            raise JpegError("AC band overflow")
                        while cnt < s:
                            buf = (buf << 8) | (data[pos] if pos < nd else 0xFF)
                            pos += 1
                            cnt += 8
                        v = (buf >> (cnt - s)) & ((1 << s) - 1)
                        cnt -= s
                        if v < (1 << (s - 1)):
                            v -= (1 << s) - 1
                        pc[base + zz[k]] = v << al
                        k += 1
            else:  # AC refinement (jdphuff decode_mcu_AC_refine)
                k = ss
                if eobrun == 0:
                    while k <= se:
                        while cnt < 16:
                            buf = (buf << 8) | (data[pos] if pos < nd else 0xFF)
                            pos += 1
                            cnt += 8
                        e = alut[(buf >> (cnt - 16)) & 0xFFFF]
                        if e == 0:
                            raise JpegError("bad progressive AC refine code")
                        cnt -= e >> 8
                        rs = e & 0xFF
                        r = rs >> 4
                        s = rs & 15
                        newval = 0
                        if s:
                            if s != 1:
                                raise JpegError("bad refinement magnitude")
                            if cnt < 1:
                                buf = (buf << 8) | (data[pos] if pos < nd else 0xFF)
                                pos += 1
                                cnt += 8
                            bit = (buf >> (cnt - 1)) & 1
                            cnt -= 1
                            newval = p1 if bit else m1
                        else:
                            if r != 15:
                                eobrun = 1 << r
                                if r:
                                    while cnt < r:
                                        buf = (buf << 8) | (data[pos] if pos < nd else 0xFF)
                                        pos += 1
                                        cnt += 8
                                    eobrun += (buf >> (cnt - r)) & ((1 << r) - 1)
                                    cnt -= r
                                break
                        while k <= se:
                            idx = base + zz[k]
                            cv = pc[idx]
                            if cv != 0:
                                if cnt < 1:
                                    buf = (buf << 8) | (data[pos] if pos < nd else 0xFF)
                                    pos += 1
                                    cnt += 8
                                bit = (buf >> (cnt - 1)) & 1
                                cnt -= 1
                                if bit and (cv & p1) == 0:
                                    pc[idx] = cv + (p1 if cv >= 0 else m1)
                            else:
                                r -= 1
                                if r < 0:
                                    break
                            k += 1
                        if s and k <= se:
                            pc[base + zz[k]] = newval
                        k += 1
                if eobrun:
                    while k <= se:
                        idx = base + zz[k]
                        cv = pc[idx]
                        if cv != 0:
                            if cnt < 1:
                                buf = (buf << 8) | (data[pos] if pos < nd else 0xFF)
                                pos += 1
                                cnt += 8
                            bit = (buf >> (cnt - 1)) & 1
                            cnt -= 1
                            if bit and (cv & p1) == 0:
                                pc[idx] = cv + (p1 if cv >= 0 else m1)
                        k += 1
                    eobrun -= 1
            buf &= (1 << cnt) - 1
            unit += 1


def _entropy_segments(data: bytes, start: int) -> tuple[list[bytes], int]:
    """Split the entropy-coded stream at restart markers and destuff
    0xFF00 -> 0xFF.  Returns (one byte-string per restart interval,
    absolute offset of the marker that ended the scan)."""
    arr = np.frombuffer(data, dtype=np.uint8, count=len(data) - start,
                        offset=start)
    ff = np.nonzero(arr == 0xFF)[0]
    segs: list[bytes] = []
    seg_start = 0
    for p in ff:
        if p + 1 >= len(arr):
            break
        nxt = arr[p + 1]
        if nxt == 0x00:
            continue  # stuffed — handled below via delete
        if 0xD0 <= nxt <= 0xD7:  # restart marker
            segs.append(_destuff(arr[seg_start:p]))
            seg_start = p + 2
        else:  # any other marker ends the scan
            segs.append(_destuff(arr[seg_start:p]))
            return segs, start + int(p)
    segs.append(_destuff(arr[seg_start:]))
    return segs, len(data)


def _destuff(arr: np.ndarray) -> bytes:
    ff0 = np.nonzero((arr[:-1] == 0xFF) & (arr[1:] == 0x00))[0]
    if len(ff0) == 0:
        return arr.tobytes()
    return np.delete(arr, ff0 + 1).tobytes()


def _decode_coefficients_vec(width, height, comps, huff, sel,
                             restart_interval, segs):
    """Vectorized baseline entropy decode — same results as
    :func:`_decode_coefficients`, restructured as a numpy table-driven
    state machine.

    Per restart segment, THREE phases replace the per-symbol bit-buffer
    arithmetic of the scalar path:

    1. numpy precompute of the 16-bit lookahead window ``win[p]`` for
       every bit position p (8 strided slice-assigns over a 24-bit byte
       window, no gathers), plus cached per-TABLE composite chase LUTs
       (``_HuffLUT.xac``: window -> packed (bit advance incl. value bits,
       k advance); built once per Huffman table, reused across decodes).
    2. a minimal Python pointer chase that records each symbol's bit
       position — ~6 ops per symbol against the composite LUTs, the only
       sequential part (Huffman streams carry no parallel structure
       without restart markers; restart segments themselves are
       independent).  No per-position arrays are materialized: an
       earlier all-positions design (step table per bit offset) measured
       SLOWER here — its ~100 MB/decode of table traffic loses to the
       cache-resident window on a memory-bandwidth-starved host.
    3. vectorized extraction at the recorded positions: LUT gathers give
       size/run, window gathers give value bits, sign extension and the
       zigzag index come from per-block cumulative sums, and DC
       predictors are a per-component cumsum.

    Overreads past the segment end hit 0xFF padding exactly like the
    scalar path; a chase escaping the padded window raises
    ``JpegError('truncated entropy stream')``.
    """
    hmax = max(c.h for c in comps)
    vmax = max(c.v for c in comps)
    mcus_x = -(-width // (8 * hmax))
    mcus_y = -(-height // (8 * vmax))
    for c in comps:
        c.blocks_w = mcus_x * c.h
        c.blocks_h = mcus_y * c.v
        c.dc_tab, c.ac_tab = sel[c.cid]
    n_mcus = mcus_x * mcus_y

    # plan: one entry per block of an MCU, in scan order
    plan = []
    for ci, c in enumerate(comps):
        for by in range(c.v):
            for bx in range(c.h):
                plan.append((ci, c.v, c.h, by, bx, c.blocks_w))
    L = len(plan)
    p_ci = np.array([e[0] for e in plan], dtype=np.int64)
    p_cv = np.array([e[1] for e in plan], dtype=np.int64)
    p_ch = np.array([e[2] for e in plan], dtype=np.int64)
    p_by = np.array([e[3] for e in plan], dtype=np.int64)
    p_bx = np.array([e[4] for e in plan], dtype=np.int64)
    p_bw = np.array([e[5] for e in plan], dtype=np.int64)

    ac_tabs = sorted({c.ac_tab for c in comps})
    dc_tabs = sorted({c.dc_tab for c in comps})
    aclut2d = np.stack([huff[(1, t)].arr for t in ac_tabs])
    dclut2d = np.stack([huff[(0, t)].arr for t in dc_tabs])
    p_atab = np.array([ac_tabs.index(comps[e[0]].ac_tab) for e in plan],
                      dtype=np.int64)
    p_dtab = np.array([dc_tabs.index(comps[e[0]].dc_tab) for e in plan],
                      dtype=np.int64)

    # per-component scatter accumulators
    idx_out: list[list[np.ndarray]] = [[] for _ in comps]
    val_out: list[list[np.ndarray]] = [[] for _ in comps]

    interval = restart_interval if restart_interval else n_mcus
    mcu = 0
    seg_idx = 0
    while mcu < n_mcus:
        if seg_idx >= len(segs):
            raise JpegError("truncated entropy stream")
        data = segs[seg_idx]
        seg_idx += 1
        mcu_hi = min(n_mcus, mcu + interval)

        # ---- phase 1: lookahead windows (the only per-position array) ----
        a = np.frombuffer(data, dtype=np.uint8).astype(np.uint32)
        a = np.concatenate([a, np.full(20, 0xFF, dtype=np.uint32)])
        w24 = (a[:-2] << 16) | (a[1:-1] << 8) | a[2:]
        npos = 8 * len(w24)
        win = np.empty(npos, dtype=np.int32)
        for sh in range(8):
            win[sh::8] = (((w24 << sh) >> 8) & 0xFFFF).astype(np.int32)
        win_mv = memoryview(win)

        # ---- phase 2: pointer chase (sequential) --------------------------
        dc_pos: list[int] = []
        ac_pos: list[int] = []
        counts: list[int] = []
        app_a = ac_pos.append
        app_c = counts.append
        plan_rt = [
            (huff[(0, comps[e[0]].dc_tab)].xdc(),
             huff[(1, comps[e[0]].ac_tab)].xac())
            for e in plan
        ]
        p = 0
        try:
            for _m in range(mcu, mcu_hi):
                for xdc, xac in plan_rt:
                    adv = xdc[win_mv[p]]
                    if adv == 0:
                        raise JpegError("bad DC Huffman code")
                    dc_pos.append(p)
                    p += adv
                    k = 1
                    c0 = len(ac_pos)
                    while k < 64:
                        t = xac[win_mv[p]]
                        ka = t & 0xFF
                        if ka >= 64:
                            if ka == 64:
                                p += t >> 8
                                break  # EOB
                            raise JpegError("bad AC Huffman code")
                        app_a(p)
                        k += ka
                        p += t >> 8
                    if k > 64:
                        raise JpegError("AC index overflow")
                    app_c(len(ac_pos) - c0)
        except IndexError:
            raise JpegError("truncated entropy stream") from None

        # ---- phase 3: vectorized extraction -------------------------------
        nb = len(dc_pos)
        bidx = np.arange(nb, dtype=np.int64)
        mcu_abs = mcu + bidx // L
        slot = bidx % L
        my, mx = np.divmod(mcu_abs, mcus_x)
        base = ((my * p_cv[slot] + p_by[slot]) * p_bw[slot]
                + (mx * p_ch[slot] + p_bx[slot])) * 64
        ci_blk = p_ci[slot]

        # DC: size, raw bits, sign-extend, per-component predictor cumsum
        dcp = np.array(dc_pos, dtype=np.int64)
        e = dclut2d[p_dtab[slot], win[dcp]]
        s_ = e & 0xFF
        raw = (win[dcp + (e >> 8)] >> (16 - s_)) & ((1 << s_) - 1)
        half = 1 << np.maximum(s_, 1) - 1
        dv = raw - np.where(raw < half, (1 << s_) - 1, 0)
        for ci in range(len(comps)):
            m_ = ci_blk == ci
            if m_.any():
                idx_out[ci].append(base[m_])
                val_out[ci].append(np.cumsum(dv[m_]))

        # AC: per-coefficient table gathers + per-block cumulative k
        if ac_pos:
            counts_np = np.array(counts, dtype=np.int64)
            block_of = np.repeat(bidx, counts_np)
            acp = np.array(ac_pos, dtype=np.int64)
            e = aclut2d[p_atab[slot[block_of]], win[acp]]
            sym = e & 0xFF
            s_ = sym & 15
            raw = (win[acp + (e >> 8)] >> (16 - s_)) & ((1 << s_) - 1)
            half = 1 << np.maximum(s_, 1) - 1
            av = raw - np.where(raw < half, (1 << s_) - 1, 0)
            kadv = np.where(s_ > 0, (sym >> 4) + 1, 16)
            cs = np.cumsum(kadv)
            starts = np.cumsum(counts_np) - counts_np
            nz = counts_np > 0
            before = np.repeat((cs - kadv)[starts[nz]], counts_np[nz])
            kzz = cs - before  # 1-based zigzag emission index
            m_ = s_ > 0  # ZRL rows advance k but emit nothing
            flat = base[block_of[m_]] + ZIGZAG[kzz[m_]]
            civ = ci_blk[block_of[m_]]
            for ci in range(len(comps)):
                cm = civ == ci
                if cm.any():
                    idx_out[ci].append(flat[cm])
                    val_out[ci].append(av[m_][cm])

        mcu = mcu_hi

    for ci, c in enumerate(comps):
        flat = np.zeros(c.blocks_h * c.blocks_w * 64, dtype=np.int32)
        if idx_out[ci]:
            flat[np.concatenate(idx_out[ci])] = np.concatenate(
                val_out[ci]).astype(np.int32)
        c.coefs = flat.reshape(-1, 64)
    return comps


def _decode_coefficients(width, height, comps, huff, sel, restart_interval,
                         segs):
    """Sequential entropy decode.  The bit reader is inlined as local ints
    and coefficients accumulate into flat Python lists with ONE numpy
    scatter per component at the end — the loop runs ~2 list lookups per
    Huffman symbol."""
    hmax = max(c.h for c in comps)
    vmax = max(c.v for c in comps)
    mcus_x = -(-width // (8 * hmax))
    mcus_y = -(-height // (8 * vmax))
    for c in comps:
        c.blocks_w = mcus_x * c.h
        c.blocks_h = mcus_y * c.v
        c.dc_tab, c.ac_tab = sel[c.cid]

    n_mcus = mcus_x * mcus_y
    zz = ZIGZAG.tolist()
    # per-component (flat coefficient index, value) accumulators
    idx_acc: list[list[int]] = [[] for _ in comps]
    val_acc: list[list[int]] = [[] for _ in comps]
    # flattened per-MCU block plan: (ci, dlut, alut, row_base_fn inputs)
    plan = []
    for ci, c in enumerate(comps):
        dlut = huff[(0, c.dc_tab)].lut
        alut = huff[(1, c.ac_tab)].lut
        for by in range(c.v):
            for bx in range(c.h):
                plan.append((ci, dlut, alut, c.v, c.h, by, bx, c.blocks_w))

    mcu = 0
    seg_idx = 0
    interval = restart_interval if restart_interval else n_mcus
    while mcu < n_mcus:
        if seg_idx >= len(segs):
            raise JpegError("truncated entropy stream")
        data = segs[seg_idx]
        nd = len(data)
        pos = 0
        buf = 0
        cnt = 0
        seg_idx += 1
        preds = [0] * len(comps)
        end = min(n_mcus, mcu + interval)
        while mcu < end:
            my, mx = divmod(mcu, mcus_x)
            for ci, dlut, alut, cv, ch, by, bx, bw in plan:
                base = ((my * cv + by) * bw + (mx * ch + bx)) * 64
                iacc = idx_acc[ci]
                vacc = val_acc[ci]
                # DC
                while cnt < 16:
                    buf = (buf << 8) | (data[pos] if pos < nd else 0xFF)
                    pos += 1
                    cnt += 8
                e = dlut[(buf >> (cnt - 16)) & 0xFFFF]
                if e == 0:
                    raise JpegError("bad DC Huffman code")
                cnt -= e >> 8
                s = e & 0xFF
                if s:
                    while cnt < s:
                        buf = (buf << 8) | (data[pos] if pos < nd else 0xFF)
                        pos += 1
                        cnt += 8
                    v = (buf >> (cnt - s)) & ((1 << s) - 1)
                    cnt -= s
                    if v < (1 << (s - 1)):
                        v -= (1 << s) - 1
                    preds[ci] += v
                iacc.append(base)
                vacc.append(preds[ci])
                # AC
                k = 1
                while k < 64:
                    while cnt < 16:
                        buf = (buf << 8) | (data[pos] if pos < nd else 0xFF)
                        pos += 1
                        cnt += 8
                    e = alut[(buf >> (cnt - 16)) & 0xFFFF]
                    if e == 0:
                        raise JpegError("bad AC Huffman code")
                    cnt -= e >> 8
                    rs = e & 0xFF
                    s = rs & 15
                    if s == 0:
                        if rs != 0xF0:
                            break  # EOB
                        k += 16
                        continue
                    k += rs >> 4
                    if k > 63:
                        raise JpegError("AC index overflow")
                    while cnt < s:
                        buf = (buf << 8) | (data[pos] if pos < nd else 0xFF)
                        pos += 1
                        cnt += 8
                    v = (buf >> (cnt - s)) & ((1 << s) - 1)
                    cnt -= s
                    if v < (1 << (s - 1)):
                        v -= (1 << s) - 1
                    iacc.append(base + zz[k])
                    vacc.append(v)
                    k += 1
                buf &= (1 << cnt) - 1
            mcu += 1

    for ci, c in enumerate(comps):
        flat = np.zeros(c.blocks_h * c.blocks_w * 64, dtype=np.int32)
        if idx_acc[ci]:
            flat[np.array(idx_acc[ci], dtype=np.int64)] = np.array(
                val_acc[ci], dtype=np.int32)
        c.coefs = flat.reshape(-1, 64)
    return comps


# ---- jpeg_idct_islow, vectorized over all blocks -----------------------

_C = 13  # CONST_BITS
_P = 2   # PASS1_BITS
_F_0_298631336 = 2446
_F_0_390180644 = 3196
_F_0_541196100 = 4433
_F_0_765366865 = 6270
_F_0_899976223 = 7373
_F_1_175875602 = 9633
_F_1_501321110 = 12299
_F_1_847759065 = 15137
_F_1_961570560 = 16069
_F_2_053119869 = 16819
_F_2_562915447 = 20995
_F_3_072711026 = 25172


def _descale(x: np.ndarray, n: int) -> np.ndarray:
    return (x + (1 << (n - 1))) >> n


def _idct_butterfly(c0, c1, c2, c3, c4, c5, c6, c7):
    """One 1-D islow pass over stacked lanes (int64 arrays)."""
    z2, z3 = c2, c6
    z1 = (z2 + z3) * _F_0_541196100
    tmp2 = z1 - z3 * _F_1_847759065
    tmp3 = z1 + z2 * _F_0_765366865
    tmp0 = (c0 + c4) << _C
    tmp1 = (c0 - c4) << _C
    t10, t13 = tmp0 + tmp3, tmp0 - tmp3
    t11, t12 = tmp1 + tmp2, tmp1 - tmp2
    t0, t1, t2, t3 = c7, c5, c3, c1
    z1 = t0 + t3
    z2 = t1 + t2
    z3 = t0 + t2
    z4 = t1 + t3
    z5 = (z3 + z4) * _F_1_175875602
    t0 = t0 * _F_0_298631336
    t1 = t1 * _F_2_053119869
    t2 = t2 * _F_3_072711026
    t3 = t3 * _F_1_501321110
    z1 = z1 * -_F_0_899976223
    z2 = z2 * -_F_2_562915447
    z3 = z3 * -_F_1_961570560 + z5
    z4 = z4 * -_F_0_390180644 + z5
    t0 += z1 + z3
    t1 += z2 + z4
    t2 += z2 + z3
    t3 += z1 + z4
    return t10, t11, t12, t13, t0, t1, t2, t3


def _idct_islow(coefs: np.ndarray, quant: np.ndarray) -> np.ndarray:
    """(N, 64) zig-zag-deraster coefficients + (64,) raster quant table ->
    (N, 8, 8) uint8 samples, bit-exact vs jidctint.c.

    Arithmetic is int32 like libjpeg's INT32 (wraparound-compatible), and
    blocks whose AC coefficients are all zero take jidctint's exact DC-only
    shortcut (all 64 samples = DESCALE(dc*q, 3)) — the dominant case in
    document images, whose backgrounds are flat."""
    n = len(coefs)
    dc_only = ~(coefs[:, 1:] != 0).any(axis=1)
    out8 = np.empty((n, 8, 8), dtype=np.uint8)
    if dc_only.any():
        dcval = (coefs[dc_only, 0].astype(np.int32) * np.int32(quant[0]) + 4) >> 3
        flat = np.clip(dcval + 128, 0, 255).astype(np.uint8)
        out8[dc_only] = flat[:, None, None]
        if dc_only.all():
            return out8
        coefs = coefs[~dc_only]
    blk = (coefs.astype(np.int32) * quant.astype(np.int32)).reshape(-1, 8, 8)
    # pass 1: columns
    c = [blk[:, r, :] for r in range(8)]
    t10, t11, t12, t13, t0, t1, t2, t3 = _idct_butterfly(*c)
    ws = np.empty_like(blk)
    ws[:, 0, :] = _descale(t10 + t3, _C - _P)
    ws[:, 7, :] = _descale(t10 - t3, _C - _P)
    ws[:, 1, :] = _descale(t11 + t2, _C - _P)
    ws[:, 6, :] = _descale(t11 - t2, _C - _P)
    ws[:, 2, :] = _descale(t12 + t1, _C - _P)
    ws[:, 5, :] = _descale(t12 - t1, _C - _P)
    ws[:, 3, :] = _descale(t13 + t0, _C - _P)
    ws[:, 4, :] = _descale(t13 - t0, _C - _P)
    # pass 2: rows
    c = [ws[:, :, r] for r in range(8)]
    t10, t11, t12, t13, t0, t1, t2, t3 = _idct_butterfly(*c)
    out = np.empty_like(blk)
    sh = _C + _P + 3
    out[:, :, 0] = _descale(t10 + t3, sh)
    out[:, :, 7] = _descale(t10 - t3, sh)
    out[:, :, 1] = _descale(t11 + t2, sh)
    out[:, :, 6] = _descale(t11 - t2, sh)
    out[:, :, 2] = _descale(t12 + t1, sh)
    out[:, :, 5] = _descale(t12 - t1, sh)
    out[:, :, 3] = _descale(t13 + t0, sh)
    out[:, :, 4] = _descale(t13 - t0, sh)
    out8[~dc_only] = np.clip(out + 128, 0, 255).astype(np.uint8)
    return out8


def _assemble_plane(c: _Component, samples: np.ndarray) -> np.ndarray:
    """(Nblocks, 8, 8) -> (blocks_h*8, blocks_w*8) plane."""
    return (samples.reshape(c.blocks_h, c.blocks_w, 8, 8)
            .transpose(0, 2, 1, 3)
            .reshape(c.blocks_h * 8, c.blocks_w * 8))


# ---- fancy upsampling (jdsample.c parity) ------------------------------

def _h2_fancy_row(cs: np.ndarray) -> np.ndarray:
    """Horizontal 2x triangle filter on per-row column sums (int32), biases
    +8 (left output of a pair, uses left neighbor) / +7 (right output, uses
    right neighbor); edges replicate.  Input (H, W) -> (H, 2W)."""
    h, w = cs.shape
    left = np.empty_like(cs)
    left[:, 0] = cs[:, 0]
    left[:, 1:] = cs[:, :-1]
    right = np.empty_like(cs)
    right[:, -1] = cs[:, -1]
    right[:, :-1] = cs[:, 1:]
    out = np.empty((h, 2 * w), dtype=cs.dtype)
    out[:, 0::2] = (cs * 3 + left + 8) >> 4
    out[:, 1::2] = (cs * 3 + right + 7) >> 4
    # first/last columns use the x4 form (exactly jdsample's special cases)
    out[:, 0] = (cs[:, 0] * 4 + 8) >> 4
    out[:, -1] = (cs[:, -1] * 4 + 7) >> 4
    return out


def _h2v2_fancy_upsample(p: np.ndarray) -> np.ndarray:
    """(h, w) -> (2h, 2w), bit-exact vs h2v2_fancy_upsample."""
    p32 = p.astype(np.int32)
    up = np.empty_like(p32)
    up[0] = p32[0]
    up[1:] = p32[:-1]
    down = np.empty_like(p32)
    down[-1] = p32[-1]
    down[:-1] = p32[1:]
    h, w = p.shape
    out = np.empty((2 * h, 2 * w), dtype=np.uint8)
    out[0::2] = _h2_fancy_row(p32 * 3 + up).astype(np.uint8)
    out[1::2] = _h2_fancy_row(p32 * 3 + down).astype(np.uint8)
    return out


def _h2v1_fancy_upsample(p: np.ndarray) -> np.ndarray:
    """(h, w) -> (h, 2w), bit-exact vs h2v1_fancy_upsample."""
    p32 = p.astype(np.int32)
    h, w = p.shape
    left = np.empty_like(p32)
    left[:, 0] = p32[:, 0]
    left[:, 1:] = p32[:, :-1]
    right = np.empty_like(p32)
    right[:, -1] = p32[:, -1]
    right[:, :-1] = p32[:, 1:]
    out = np.empty((h, 2 * w), dtype=np.int32)
    out[:, 0::2] = (p32 * 3 + left + 1) >> 2
    out[:, 1::2] = (p32 * 3 + right + 2) >> 2
    out[:, 0] = p32[:, 0]
    out[:, -1] = p32[:, -1]
    return out.astype(np.uint8)


def _upsample(plane: np.ndarray, hr: int, vr: int, width: int,
              height: int) -> np.ndarray:
    """Upsample a component plane by (hr, vr) and crop to (height, width)."""
    if hr == 1 and vr == 1:
        out = plane
    elif hr == 2 and vr == 2:
        out = _h2v2_fancy_upsample(plane)
    elif hr == 2 and vr == 1:
        out = _h2v1_fancy_upsample(plane)
    elif hr == 1 and vr == 2:
        # h1v2_fancy_upsample = the h2v1 triangle transposed
        out = np.ascontiguousarray(_h2v1_fancy_upsample(
            np.ascontiguousarray(plane.T)).T)
    else:  # jdsample.c int_upsample fallback: pixel replication
        out = np.repeat(np.repeat(plane, vr, axis=0), hr, axis=1)
    return out[:height, :width]


# ---- ycc_rgb_convert fixed-point tables (jdcolor.c) --------------------

_SCALE = 16
_HALF = 1 << (_SCALE - 1)
_X = np.arange(256, dtype=np.int32) - 128
_CR_R = (91881 * _X + _HALF) >> _SCALE     # FIX(1.40200)
_CB_B = (116130 * _X + _HALF) >> _SCALE    # FIX(1.77200)
_CR_G = -46802 * _X                        # -FIX(0.71414)
_CB_G = -22554 * _X + _HALF                # -FIX(0.34414), bias here


def _ycc_to_rgb(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> np.ndarray:
    y32 = y.astype(np.int32)
    r = y32 + _CR_R[cr]
    g = y32 + ((_CB_G[cb] + _CR_G[cr]) >> _SCALE)
    b = y32 + _CB_B[cb]
    return np.clip(np.stack([r, g, b], axis=2), 0, 255).astype(np.uint8)


def _cmyk_to_rgb(c: np.ndarray, m: np.ndarray, y: np.ndarray,
                 k: np.ndarray) -> np.ndarray:
    """cv2's CMYK composite (icvCvt_CMYK2BGR_8u_C4C3R, utils.cpp) on
    Adobe-inverted CMYK planes: ch = k - ((255 - ch) * k >> 8)."""
    k32 = k.astype(np.int32)
    out = [k32 - (((255 - p.astype(np.int32)) * k32) >> 8)
           for p in (c, m, y)]
    return np.stack(out, axis=2).astype(np.uint8)


def _ycck_to_cmyk(y: np.ndarray, cb: np.ndarray, cr: np.ndarray):
    """libjpeg jdcolor ycck_cmyk_convert: inverted YCbCr->RGB (K passes
    through unchanged by the caller)."""
    y32 = y.astype(np.int32)
    c = 255 - np.clip(y32 + _CR_R[cr], 0, 255)
    m = 255 - np.clip(y32 + ((_CB_G[cb] + _CR_G[cr]) >> _SCALE), 0, 255)
    yy = 255 - np.clip(y32 + _CB_B[cb], 0, 255)
    return c, m, yy


def decode_jpeg(data: bytes) -> np.ndarray:
    """Decode baseline or progressive JPEG bytes -> (H, W) gray or
    (H, W, 3) RGB uint8 array (a one-component JPEG is its one plane,
    where cv2 IMREAD_COLOR would copy it into three channels; CMYK/YCCK
    Adobe JPEGs composited per cv2's CMYK2BGR)."""
    width, height, comps, qt, mode = _decode_frame(data)
    hmax = max(c.h for c in comps)
    vmax = max(c.v for c in comps)
    planes = []
    for c in comps:
        if c.tq not in qt:
            raise JpegError(f"undefined quantization table {c.tq}")
        samples = _idct_islow(c.coefs, qt[c.tq])
        plane = _assemble_plane(c, samples)
        # crop to the component's true sample dims before upsampling
        cw = -(-width * c.h // hmax)
        ch = -(-height * c.v // vmax)
        plane = plane[:ch, :cw]
        planes.append(_upsample(plane, hmax // c.h, vmax // c.v, width, height))
    if len(planes) == 1:
        return np.ascontiguousarray(planes[0])
    if mode == "rgb":  # 3-component RGB JPEG: planes ARE the channels
        return np.stack(planes, axis=2)
    if mode == "ycck":
        c, m, yy = _ycck_to_cmyk(planes[0], planes[1], planes[2])
        return _cmyk_to_rgb(c, m, yy, planes[3])
    if mode == "cmyk":
        return _cmyk_to_rgb(planes[0], planes[1], planes[2], planes[3])
    return _ycc_to_rgb(planes[0], planes[1], planes[2])


# ---- minimal baseline encoder (tests / JPEG sink; no parity claim) -----

_STD_LUMA_Q = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], dtype=np.int32)
_STD_CHROMA_Q = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], dtype=np.int32)

# Annex K typical Huffman tables: (bits, values)
_DC_LUMA = ([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
            list(range(12)))
_DC_CHROMA = ([0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
              list(range(12)))
_AC_LUMA = (
    [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D],
    [0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
     0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
     0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72,
     0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
     0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
     0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
     0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75,
     0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
     0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
     0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
     0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
     0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
     0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4,
     0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])
_AC_CHROMA = (
    [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77],
    [0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41,
     0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
     0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1,
     0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
     0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44,
     0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
     0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74,
     0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
     0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A,
     0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
     0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
     0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
     0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2, 0xF3, 0xF4,
     0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA])


def _enc_codes(bits, vals):
    codes = {}
    code = 0
    k = 0
    for ln in range(1, 17):
        for _ in range(bits[ln - 1]):
            codes[vals[k]] = (code, ln)
            code += 1
            k += 1
        code <<= 1
    return codes


class _BitWriter:
    def __init__(self) -> None:
        self.out = bytearray()
        self.buf = 0
        self.cnt = 0

    def put(self, code: int, length: int) -> None:
        self.buf = (self.buf << length) | code
        self.cnt += length
        while self.cnt >= 8:
            b = (self.buf >> (self.cnt - 8)) & 0xFF
            self.out.append(b)
            if b == 0xFF:
                self.out.append(0x00)
            self.cnt -= 8
            self.buf &= (1 << self.cnt) - 1

    def flush(self) -> None:
        if self.cnt:  # pad the final byte with 1-bits
            self.put((1 << (8 - self.cnt)) - 1, 8 - self.cnt)


_DCT_M = np.array([[np.cos((2 * x + 1) * u * np.pi / 16) *
                    (np.sqrt(0.5) if u == 0 else 1.0) * 0.5
                    for x in range(8)] for u in range(8)])


def _fdct(blocks: np.ndarray) -> np.ndarray:
    """``_DCT_M @ blocks @ _DCT_M.T`` as two explicit 8-term sums in index
    order.  Elementwise numpy products and sums round the same on every
    CPU; a BLAS matmul picks its kernel (and so its summation order) by the
    CPU it runs on, which moved encoded bytes between hosts."""
    rows = sum(_DCT_M[None, :, x, None] * blocks[:, None, x, :]
               for x in range(8))
    return sum(rows[:, :, None, y] * _DCT_M[None, None, :, y]
               for y in range(8))


def _scale_q(q: np.ndarray, quality: int) -> np.ndarray:
    quality = min(100, max(1, quality))
    s = 5000 // quality if quality < 50 else 200 - quality * 2
    return np.clip((q * s + 50) // 100, 1, 255).astype(np.int32)


def _encode_plane_blocks(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    ph, pw = -(-h // 8) * 8, -(-w // 8) * 8
    padded = np.pad(plane, ((0, ph - h), (0, pw - w)), mode="edge")
    return (padded.reshape(ph // 8, 8, pw // 8, 8)
            .transpose(0, 2, 1, 3)
            .reshape(-1, 8, 8)
            .astype(np.float64) - 128.0), ph // 8, pw // 8


def encode_jpeg(img: np.ndarray, quality: int = 85,
                ycck: bool = False, arithmetic: bool = False) -> bytes:
    """Encode (H, W, 3) RGB or (H, W) gray uint8 -> baseline JFIF bytes
    (4:2:0 for color).  A (H, W, 4) input is treated as Adobe-inverted
    CMYK planes and written as a 4-component Adobe JPEG (APP14 transform
    0, or 2 with ``ycck=True`` — CMY stored as inverted YCbCr).
    ``arithmetic=True`` writes an SOF9 arithmetic-coded stream instead
    (imgops/jpega.py QM coder; byte-compatible with libjpeg).
    Test/sink utility — decode parity is the decoder's job, not this
    writer's."""
    gray = img.ndim == 2
    cmyk = img.ndim == 3 and img.shape[2] == 4
    h, w = img.shape[:2]
    ql = _scale_q(_STD_LUMA_Q, quality)
    qc = _scale_q(_STD_CHROMA_Q, quality)

    adobe_transform = None
    if gray:
        y = img.astype(np.float64)
        planes = [(y, ql, 1, 1)]
    elif cmyk:
        chans = [img[:, :, i].astype(np.float64) for i in range(4)]
        if ycck:
            adobe_transform = 2
            # libjpeg jccolor cmyk->ycck: YCbCr of the inverted CMY
            # planes (decoder inverts back: c = 255 - (Y + crr(Cr)))
            ir, ig, ib = (255.0 - chans[0], 255.0 - chans[1],
                          255.0 - chans[2])
            yy = 0.299 * ir + 0.587 * ig + 0.114 * ib
            cb = -0.168735892 * ir - 0.331264108 * ig + 0.5 * ib + 128.0
            cr = 0.5 * ir - 0.418687589 * ig - 0.081312411 * ib + 128.0
            stored = [yy, cb, cr, chans[3]]
        else:
            adobe_transform = 0
            stored = chans
        planes = [(p, ql if i == 0 else qc, 1, 1)
                  for i, p in enumerate(stored)]
    else:
        r = img[:, :, 0].astype(np.float64)
        g = img[:, :, 1].astype(np.float64)
        b = img[:, :, 2].astype(np.float64)
        y = 0.299 * r + 0.587 * g + 0.114 * b
        cb = -0.168735892 * r - 0.331264108 * g + 0.5 * b + 128.0
        cr = 0.5 * r - 0.418687589 * g - 0.081312411 * b + 128.0
        # 4:2:0 box downsample (pad to even first)
        cbp = np.pad(cb, ((0, h % 2), (0, w % 2)), mode="edge")
        crp = np.pad(cr, ((0, h % 2), (0, w % 2)), mode="edge")
        cb2 = cbp.reshape(cbp.shape[0] // 2, 2, cbp.shape[1] // 2, 2).mean(axis=(1, 3))
        cr2 = crp.reshape(crp.shape[0] // 2, 2, crp.shape[1] // 2, 2).mean(axis=(1, 3))
        planes = [(y, ql, 2, 2), (cb2, qc, 1, 1), (cr2, qc, 1, 1)]

    # quantized coefficient blocks per component
    comp_blocks = []
    for plane, q, _, _ in planes:
        blocks, bh, bw = _encode_plane_blocks(np.round(plane).clip(0, 255))
        coefs = _fdct(blocks)
        qmat = np.zeros((8, 8))
        qmat.flat[:] = q
        quant = np.round(coefs / qmat).astype(np.int32)
        comp_blocks.append((quant.reshape(-1, 64), bh, bw))

    ncomp = len(planes)
    if arithmetic:
        from img2table_ray.imgops.jpega import encode_sequential_arith

        entropy = encode_sequential_arith(
            w, h, [(p[2], p[3]) for p in planes],
            [(q[:, ZIGZAG], bh, bwid) for q, bh, bwid in comp_blocks])
        return _assemble_jpeg(w, h, planes, gray, adobe_transform, ql, qc,
                              ncomp, entropy, arithmetic=True)

    dc_codes = [_enc_codes(*_DC_LUMA), _enc_codes(*_DC_CHROMA)]
    ac_codes = [_enc_codes(*_AC_LUMA), _enc_codes(*_AC_CHROMA)]

    bw_ = _BitWriter()
    zz = ZIGZAG
    hmax = max(p[2] for p in planes)
    vmax = max(p[3] for p in planes)
    mcus_x = -(-w // (8 * hmax))
    mcus_y = -(-h // (8 * vmax))
    preds = [0] * ncomp

    def emit_block(block64, ci):
        t = 0 if ci == 0 else 1
        dc, ac = dc_codes[t], ac_codes[t]
        zzvals = block64[zz]
        nonlocal_pred = preds[ci]
        diff = int(zzvals[0]) - nonlocal_pred
        preds[ci] = int(zzvals[0])
        s = diff if diff >= 0 else -diff
        size = int(s).bit_length()
        code, ln = dc[size]
        bw_.put(code, ln)
        if size:
            v = diff if diff >= 0 else diff + (1 << size) - 1
            bw_.put(v & ((1 << size) - 1), size)
        run = 0
        for k in range(1, 64):
            v = int(zzvals[k])
            if v == 0:
                run += 1
                continue
            while run > 15:
                code, ln = ac[0xF0]
                bw_.put(code, ln)
                run -= 16
            s = v if v >= 0 else -v
            size = s.bit_length()
            code, ln = ac[(run << 4) | size]
            bw_.put(code, ln)
            ev = v if v >= 0 else v + (1 << size) - 1
            bw_.put(ev & ((1 << size) - 1), size)
            run = 0
        if run:
            code, ln = ac[0x00]
            bw_.put(code, ln)

    for my in range(mcus_y):
        for mx in range(mcus_x):
            for ci, (plane, q, ch, cv) in enumerate(planes):
                quant, bh, bwid = comp_blocks[ci]
                for by in range(cv):
                    for bx in range(ch):
                        row = min(my * cv + by, bh - 1)
                        col = min(mx * ch + bx, bwid - 1)
                        emit_block(quant[row * bwid + col], ci)
    bw_.flush()
    return _assemble_jpeg(w, h, planes, gray, adobe_transform, ql, qc,
                          ncomp, bytes(bw_.out), arithmetic=False)


def _assemble_jpeg(w, h, planes, gray, adobe_transform, ql, qc, ncomp,
                   entropy: bytes, arithmetic: bool) -> bytes:
    """Shared container writer: Huffman (SOF0 + DHT) or arithmetic
    (SOF9 + DAC default conditioning) around the entropy stream."""
    def seg(marker, payload):
        return bytes([0xFF, marker]) + struct.pack(">H", len(payload) + 2) + payload

    out = bytearray(b"\xff\xd8")
    out += seg(0xE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    if adobe_transform is not None:  # APP14: 'Adobe', ver, flags0/1, transform
        out += seg(0xEE, b"Adobe" + bytes([0, 100, 0, 0, 0, 0,
                                           adobe_transform]))
    zql = np.zeros(64, dtype=np.uint8)
    zql[:] = ql.reshape(-1)[ZIGZAG]
    out += seg(0xDB, b"\x00" + zql.tobytes())
    if not gray:
        zqc = np.zeros(64, dtype=np.uint8)
        zqc[:] = qc.reshape(-1)[ZIGZAG]
        out += seg(0xDB, b"\x01" + zqc.tobytes())
    sof = bytearray(struct.pack(">BHHB", 8, h, w, ncomp))
    for ci in range(ncomp):
        hv = (planes[ci][2] << 4) | planes[ci][3]
        sof += bytes([ci + 1, hv, 0 if ci == 0 else 1])
    out += seg(0xC9 if arithmetic else 0xC0, bytes(sof))
    if arithmetic:
        # DAC with the defaults (L=0, U=1, Kx=5), like libjpeg emits
        dac = bytearray()
        for t in range(1 if gray else 2):
            dac += bytes([t, 0x10])
            dac += bytes([0x10 | t, 5])
        out += seg(0xCC, bytes(dac))
    else:
        for tc, th, (bits, vals) in [(0, 0, _DC_LUMA), (1, 0, _AC_LUMA)] + (
                [] if gray else [(0, 1, _DC_CHROMA), (1, 1, _AC_CHROMA)]):
            out += seg(0xC4, bytes([(tc << 4) | th]) + bytes(bits) + bytes(vals))
    sos = bytearray([ncomp])
    for ci in range(ncomp):
        t = 0 if ci == 0 else 1
        sos += bytes([ci + 1, (t << 4) | t])
    sos += b"\x00\x3f\x00"
    out += seg(0xDA, bytes(sos))
    out += entropy
    out += b"\xff\xd9"
    return bytes(out)
