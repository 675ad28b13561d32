"""FLAC (Free Lossless Audio Codec) decode + fixture encode.

Implemented from the public FLAC format specification (xiph.org /
RFC 9639): STREAMINFO metadata, frame headers with CRC-8, subframes
(constant, verbatim, fixed predictors 0-4, LPC up to order 32, wasted
bits), partitioned Rice residuals (4- and 5-bit parameters, escape
partitions), stereo decorrelation (left/side, right/side, mid/side),
and the CRC-16 frame footer.  The reference repo has no audio support;
this feeds ``pipelines/multimodal.py:audio_features`` (the LLM-pipeline
multimodal brief) so FLAC payloads decode for real instead of counting
as ``unsupported``.

Scale shape: the decoder runs inside the audio stage, one
file per call.  Fixed-predictor reconstruction is vectorized (order-k
prediction is the k-th difference, so reconstruction is k cumulative
sums); Rice decoding walks codes with a byte-fed bit reader (a code,
not a bit, per Python step for the quotient via leading-zero scans).
LPC reconstruction is genuinely sequential (IIR) and stays a loop —
our fixture encoder emits fixed predictors, so the vectorized path is
the hot one.  Encoders exist to build deterministic corpus rows and
test vectors.
"""

from __future__ import annotations

import struct

import numpy as np

# --- CRCs per the FLAC spec ------------------------------------------------


def _crc_table(poly: int, width: int) -> np.ndarray:
    top = 1 << (width - 1)
    mask = (1 << width) - 1
    tab = np.zeros(256, np.uint32)
    for i in range(256):
        c = i << (width - 8)
        for _ in range(8):
            c = ((c << 1) ^ poly) if c & top else (c << 1)
        tab[i] = c & mask
    return tab


_CRC8_TAB = _crc_table(0x07, 8)
_CRC16_TAB = _crc_table(0x8005, 16)


def crc8(data: bytes) -> int:
    c = 0
    for b in data:
        c = int(_CRC8_TAB[c ^ b])
    return c


def crc16(data: bytes) -> int:
    c = 0
    for b in data:
        c = int(_CRC16_TAB[((c >> 8) ^ b) & 0xFF]) ^ ((c << 8) & 0xFFFF)
    return c


# --- bit reader -------------------------------------------------------------


class _Bits:
    """MSB-first bit reader with a 64-bit accumulator."""

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self.data = data
        self.pos = pos  # next byte to load
        self.acc = 0
        self.n = 0

    def _fill(self, need: int) -> None:
        while self.n < need:
            self.acc = (self.acc << 8) | self.data[self.pos]
            self.pos += 1
            self.n += 8

    def read(self, k: int) -> int:
        if k == 0:
            return 0
        self._fill(k)
        self.n -= k
        v = (self.acc >> self.n) & ((1 << k) - 1)
        self.acc &= (1 << self.n) - 1
        return v

    def read_signed(self, k: int) -> int:
        v = self.read(k)
        return v - (1 << k) if v >> (k - 1) else v

    def read_unary(self) -> int:
        """Count 0 bits until the terminating 1 bit."""
        q = 0
        while True:
            if self.n == 0:
                self._fill(8)
            if self.acc == 0:  # whole accumulator is zeros
                q += self.n
                self.n = 0
                continue
            top = self.acc.bit_length()
            zeros = self.n - top
            q += zeros
            # consume the zeros and the 1 bit
            self.n = top - 1
            self.acc &= (1 << self.n) - 1
            return q

    def align(self) -> None:
        self.acc = 0
        self.n = 0

    def byte_pos(self) -> int:
        return self.pos - self.n // 8


_BLOCKSIZE = [0, 192, 576, 1152, 2304, 4608, -1, -2,
              256, 512, 1024, 2048, 4096, 8192, 16384, 32768]
_RATES = [0, 88200, 176400, 192000, 8000, 16000, 22050, 24000,
          32000, 44100, 48000, 96000, -1, -2, -3, None]
_DEPTHS = [0, 8, 12, None, 16, 20, 24, 32]


def _read_utf8_number(br: _Bits) -> int:
    """The UTF-8-style variable-length frame/sample number."""
    b0 = br.read(8)
    if b0 < 0x80:
        return b0
    n_ext = 0
    mask = 0x40
    while b0 & mask:
        n_ext += 1
        mask >>= 1
    v = b0 & (mask - 1)
    for _ in range(n_ext):
        v = (v << 6) | (br.read(8) & 0x3F)
    return v


def _decode_residual(br: _Bits, blocksize: int, order: int) -> np.ndarray:
    method = br.read(2)
    if method > 1:
        raise ValueError("reserved residual coding method")
    pbits = 4 if method == 0 else 5
    escape = (1 << pbits) - 1
    part_order = br.read(4)
    n_parts = 1 << part_order
    if blocksize % n_parts:
        raise ValueError("partition order does not divide block size")
    out = np.empty(blocksize - order, np.int64)
    w = 0
    for p in range(n_parts):
        n = blocksize // n_parts - (order if p == 0 else 0)
        param = br.read(pbits)
        if param == escape:
            raw = br.read(5)
            for i in range(n):
                out[w + i] = br.read_signed(raw) if raw else 0
        else:
            for i in range(n):
                q = br.read_unary()
                u = (q << param) | br.read(param)
                out[w + i] = (u >> 1) ^ -(u & 1)
        w += n
    return out


def _restore_fixed_exact(warm: list[int], resid: np.ndarray,
                         order: int) -> np.ndarray:
    """Reference-form reconstruction, the test oracle of
    ``_restore_fixed_vec`` (tests/test_pipeline.py); no decode path
    calls it."""
    out = list(warm)
    if order == 0:
        return resid.astype(np.int64)
    for r in resid:
        if order == 1:
            out.append(r + out[-1])
        elif order == 2:
            out.append(r + 2 * out[-1] - out[-2])
        elif order == 3:
            out.append(r + 3 * out[-1] - 3 * out[-2] + out[-3])
        else:
            out.append(r + 4 * out[-1] - 6 * out[-2] + 4 * out[-3]
                       - out[-4])
    return np.asarray(out, np.int64)


def _restore_fixed_vec(warm: list[int], resid: np.ndarray,
                       order: int) -> np.ndarray:
    """Vectorized fixed-predictor reconstruction: order-k prediction
    makes the residual the k-th difference of the output, so the output
    is recovered by k cumsum passes, each seeded with the appropriate
    difference of the warmup samples."""
    if order == 0:
        return np.concatenate([np.asarray(warm, np.int64),
                               resid.astype(np.int64)])
    w = np.asarray(warm, np.int64)
    seq = resid.astype(np.int64)
    # diffs[k] = k-th difference sequence of warmup, last element
    for k in range(order, 0, -1):
        seed = np.diff(w, k - 1)[-1]
        seq = np.concatenate(([seed], seq)).cumsum()[1:]
    return np.concatenate([w, seq])


def _decode_subframe(br: _Bits, blocksize: int, depth: int) -> np.ndarray:
    if br.read(1):
        raise ValueError("subframe padding bit set")
    sftype = br.read(6)
    wasted = 0
    if br.read(1):
        wasted = br.read_unary() + 1
        depth -= wasted
    if sftype == 0:  # constant
        out = np.full(blocksize, br.read_signed(depth), np.int64)
    elif sftype == 1:  # verbatim
        out = np.fromiter((br.read_signed(depth) for _ in range(blocksize)),
                          np.int64, blocksize)
    elif 8 <= sftype <= 12:  # fixed predictor
        order = sftype & 7
        warm = [br.read_signed(depth) for _ in range(order)]
        resid = _decode_residual(br, blocksize, order)
        out = _restore_fixed_vec(warm, resid, order)
    elif sftype >= 32:  # LPC
        order = (sftype & 31) + 1
        warm = [br.read_signed(depth) for _ in range(order)]
        prec = br.read(4) + 1
        if prec == 16:
            raise ValueError("invalid LPC precision")
        shift = br.read_signed(5)
        if shift < 0:
            raise ValueError("negative LPC shift")
        coefs = [br.read_signed(prec) for _ in range(order)]
        resid = _decode_residual(br, blocksize, order)
        out = np.empty(blocksize, np.int64)
        out[:order] = warm
        o = out  # sequential IIR: genuinely not vectorizable
        for i in range(order, blocksize):
            acc = 0
            for j in range(order):
                acc += coefs[j] * o[i - 1 - j]
            o[i] = resid[i - order] + (acc >> shift)
    else:
        raise ValueError(f"reserved subframe type {sftype}")
    return out << wasted if wasted else out


def decode_flac(data: bytes):
    """Decode a FLAC stream -> (samples, rate, channels, bits) where
    ``samples`` is an interleaved int32 array of ``frames*channels``."""
    if data[:4] != b"fLaC":
        raise ValueError("not a FLAC stream")
    pos = 4
    rate = channels = bits = None
    total = 0
    # metadata blocks
    while pos + 4 <= len(data):
        hdr = data[pos]
        blen = int.from_bytes(data[pos + 1 : pos + 4], "big")
        body = data[pos + 4 : pos + 4 + blen]
        if hdr & 0x7F == 0:  # STREAMINFO
            if blen < 34:
                raise ValueError("short STREAMINFO")
            v = int.from_bytes(body[10:18], "big")
            rate = v >> 44
            channels = ((v >> 41) & 0x7) + 1
            bits = ((v >> 36) & 0x1F) + 1
            total = v & ((1 << 36) - 1)
        pos += 4 + blen
        if hdr & 0x80:  # last metadata block
            break
    if rate is None or not rate:
        raise ValueError("missing/invalid STREAMINFO")

    chans: list[list[np.ndarray]] = [[] for _ in range(channels)]
    got = 0
    while pos + 2 <= len(data) and (total == 0 or got < total):
        # frame sync
        if data[pos] != 0xFF or (data[pos + 1] & 0xFC) != 0xF8:
            raise ValueError("lost frame sync")
        hstart = pos
        br = _Bits(data, pos)
        br.read(14)  # sync
        br.read(1)  # reserved
        br.read(1)  # blocking strategy
        bs_code = br.read(4)
        sr_code = br.read(4)
        ch_code = br.read(4)
        depth_code = br.read(3)
        br.read(1)  # reserved
        _read_utf8_number(br)
        blocksize = _BLOCKSIZE[bs_code]
        if blocksize == -1:
            blocksize = br.read(8) + 1
        elif blocksize == -2:
            blocksize = br.read(16) + 1
        elif blocksize == 0:
            raise ValueError("reserved block size code")
        r = _RATES[sr_code]
        if r == -1:
            br.read(8)
        elif r == -2 or r == -3:
            br.read(16)
        elif r is None:
            raise ValueError("invalid sample rate code")
        hcrc = crc8(data[hstart : br.byte_pos()])
        if br.read(8) != hcrc:
            raise ValueError("frame header CRC-8 mismatch")
        depth = _DEPTHS[depth_code]
        if depth is None:
            raise ValueError("reserved sample depth code")
        depth = depth or bits

        if ch_code < 8:
            n_ch = ch_code + 1
            if n_ch != channels:
                raise ValueError("frame channel count != STREAMINFO")
            sub = [_decode_subframe(br, blocksize, depth)
                   for _ in range(n_ch)]
        elif ch_code == 8:  # left/side
            left = _decode_subframe(br, blocksize, depth)
            side = _decode_subframe(br, blocksize, depth + 1)
            sub = [left, left - side]
        elif ch_code == 9:  # right/side
            side = _decode_subframe(br, blocksize, depth + 1)
            right = _decode_subframe(br, blocksize, depth)
            sub = [side + right, right]
        elif ch_code == 10:  # mid/side
            mid = _decode_subframe(br, blocksize, depth)
            side = _decode_subframe(br, blocksize, depth + 1)
            m2 = (mid << 1) | (side & 1)
            sub = [(m2 + side) >> 1, (m2 - side) >> 1]
        else:
            raise ValueError("reserved channel assignment")
        br.align()
        fcrc = crc16(data[hstart : br.byte_pos()])
        stored = br.read(16)
        if stored != fcrc:
            raise ValueError("frame footer CRC-16 mismatch")
        pos = br.byte_pos()
        for c in range(channels):
            chans[c].append(sub[c])
        got += blocksize

    per = [np.concatenate(c) if c else np.zeros(0, np.int64) for c in chans]
    if total:
        per = [p[:total] for p in per]
    out = np.stack(per, axis=-1).reshape(-1).astype(np.int32)
    return out, rate, channels, bits


# --- encoder (fixture builder) ---------------------------------------------


class _BitWriter:
    def __init__(self) -> None:
        self.buf = bytearray()
        self.acc = 0
        self.n = 0

    def write(self, v: int, k: int) -> None:
        if k == 0:
            return
        self.acc = (self.acc << k) | (v & ((1 << k) - 1))
        self.n += k
        while self.n >= 8:
            self.n -= 8
            self.buf.append((self.acc >> self.n) & 0xFF)
        self.acc &= (1 << self.n) - 1

    def write_unary(self, q: int) -> None:
        while q >= 32:
            self.write(0, 32)
            q -= 32
        self.write(1, q + 1)

    def align(self) -> None:
        if self.n:
            self.write(0, 8 - self.n)

    def bytes(self) -> bytes:
        assert self.n == 0
        return bytes(self.buf)


def _utf8_number(n: int) -> bytes:
    if n < 0x80:
        return bytes([n])
    parts = []
    bits = n.bit_length()
    n_ext = 1
    while bits > 6 * n_ext + (6 - n_ext):
        n_ext += 1
    lead = (0xFF << (7 - n_ext)) & 0xFF
    shift = 6 * n_ext
    parts.append(lead | (n >> shift))
    for i in range(n_ext - 1, -1, -1):
        parts.append(0x80 | ((n >> (6 * i)) & 0x3F))
    return bytes(parts)


def _fixed_residual(x: np.ndarray, order: int) -> np.ndarray:
    return np.diff(x, order) if order else x.copy()


def _best_rice_param(resid: np.ndarray) -> int:
    if len(resid) == 0:
        return 0
    mean = float(np.abs(resid).mean())
    p = 0
    while (1 << p) < mean + 1 and p < 14:
        p += 1
    return p


def _write_residual(bw: _BitWriter, resid: np.ndarray, order: int,
                    partition_order: int = 0, escape: bool = False) -> None:
    bw.write(0, 2)  # method 0: 4-bit rice
    bw.write(partition_order, 4)
    n_parts = 1 << partition_order
    blocksize = len(resid) + order
    w = 0
    for p in range(n_parts):
        n = blocksize // n_parts - (order if p == 0 else 0)
        part = resid[w : w + n]
        w += n
        if escape:
            width = (max(2, int(np.abs(part).max()).bit_length() + 1)
                     if len(part) else 2)
            bw.write(0xF, 4)
            bw.write(width, 5)
            for v in part:
                bw.write(int(v) & ((1 << width) - 1), width)
            continue
        param = _best_rice_param(part)
        bw.write(param, 4)
        for v in part:
            u = (int(v) << 1) if v >= 0 else ((-int(v)) << 1) - 1
            bw.write_unary(u >> param)
            bw.write(u & ((1 << param) - 1), param)


def _write_subframe_fixed(bw: _BitWriter, x: np.ndarray, depth: int,
                          partition_order: int = 0,
                          escape: bool = False) -> None:
    """Pick the best fixed order 0-2 by residual magnitude; constant
    subframe when all samples are equal; wasted bits detected from the
    common trailing zeros (spec: samples stored right-shifted)."""
    orv = int(np.bitwise_or.reduce(np.abs(x.astype(np.int64)))) if len(x) else 0
    wasted = ((orv & -orv).bit_length() - 1) if orv else 0
    if wasted:
        x = x >> wasted
        depth -= wasted

    def _wasted_bits() -> None:
        if wasted:
            bw.write(1, 1)
            bw.write_unary(wasted - 1)
        else:
            bw.write(0, 1)

    if len(x) and (x == x[0]).all():
        bw.write(0, 1)
        bw.write(0, 6)  # constant
        _wasted_bits()
        bw.write(int(x[0]) & ((1 << depth) - 1), depth)
        return
    best_o, best_cost = 0, None
    for o in range(3):
        if o >= len(x):
            break
        cost = float(np.abs(_fixed_residual(x, o)).sum())
        if best_cost is None or cost < best_cost:
            best_o, best_cost = o, cost
    order = best_o
    resid = _fixed_residual(x, order)
    bw.write(0, 1)
    bw.write(8 + order, 6)  # fixed, order
    _wasted_bits()
    for v in x[:order]:
        bw.write(int(v) & ((1 << depth) - 1), depth)
    _write_residual(bw, resid, order, partition_order, escape)


def _write_subframe_lpc(bw: _BitWriter, x: np.ndarray, depth: int,
                        coefs: list[int], shift: int, prec: int) -> None:
    """LPC subframe with CALLER-CHOSEN quantized coefficients (test
    vector builder for the decoder's LPC path)."""
    order = len(coefs)
    bw.write(0, 1)
    bw.write(32 | (order - 1), 6)
    bw.write(0, 1)
    for v in x[:order]:
        bw.write(int(v) & ((1 << depth) - 1), depth)
    bw.write(prec - 1, 4)
    bw.write(shift & 0x1F, 5)
    for c in coefs:
        bw.write(int(c) & ((1 << prec) - 1), prec)
    xi = x.astype(np.int64)
    resid = np.empty(len(x) - order, np.int64)
    for i in range(order, len(x)):
        acc = 0
        for j in range(order):
            acc += coefs[j] * xi[i - 1 - j]
        resid[i - order] = xi[i] - (acc >> shift)
    _write_residual(bw, resid, order)


def encode_flac(x: np.ndarray, rate: int, blocksize: int = 4096,
                channel_mode: str = "indep", partition_order: int = 0,
                escape: bool = False,
                lpc: tuple[list[int], int, int] | None = None) -> bytes:
    """Encode int16 samples (frames,) or (frames, channels) into a valid
    FLAC stream (fixture builder).  ``channel_mode`` one of
    indep/ls/rs/ms (stereo decorrelation test vectors); ``lpc`` =
    (coefs, shift, precision) forces an LPC subframe on channel 0."""
    if x.ndim == 1:
        x = x[:, None]
    frames, channels = x.shape
    depth = 16
    if channel_mode != "indep" and channels != 2:
        raise ValueError("decorrelation modes need stereo input")

    out = bytearray(b"fLaC")
    # STREAMINFO (last-metadata flag set)
    info = struct.pack(">HH", blocksize, blocksize) + b"\x00" * 6
    v = (rate << 44) | ((channels - 1) << 41) | ((depth - 1) << 36) | frames
    info += v.to_bytes(8, "big") + b"\x00" * 16
    out += bytes([0x80]) + len(info).to_bytes(3, "big") + info

    ch_code = {"indep": channels - 1, "ls": 8, "rs": 9, "ms": 10}[channel_mode]
    frame_no = 0
    pos = 0
    while pos < frames:
        n = min(blocksize, frames - pos)
        chunk = x[pos : pos + n].astype(np.int64)
        bw = _BitWriter()
        bw.write(0x3FFE, 14)
        bw.write(0, 1)
        bw.write(0, 1)  # fixed blocking
        bw.write(7, 4)  # 16-bit blocksize-1 follows
        bw.write(0, 4)  # rate from STREAMINFO
        bw.write(ch_code, 4)
        bw.write(4, 3)  # 16-bit samples
        bw.write(0, 1)
        for b in _utf8_number(frame_no):
            bw.write(b, 8)
        bw.write(n - 1, 16)
        hdr = bw.buf  # header so far is byte-aligned
        assert bw.n == 0
        bw.write(crc8(bytes(hdr)), 8)

        if channel_mode == "indep":
            subs = [(chunk[:, c], depth) for c in range(channels)]
        elif channel_mode == "ls":
            subs = [(chunk[:, 0], depth),
                    (chunk[:, 0] - chunk[:, 1], depth + 1)]
        elif channel_mode == "rs":
            subs = [(chunk[:, 0] - chunk[:, 1], depth + 1),
                    (chunk[:, 1], depth)]
        else:  # ms
            subs = [((chunk[:, 0] + chunk[:, 1]) >> 1, depth),
                    (chunk[:, 0] - chunk[:, 1], depth + 1)]
        for c, (sig, d) in enumerate(subs):
            if lpc is not None and c == 0 and len(sig) > len(lpc[0]):
                _write_subframe_lpc(bw, sig, d, lpc[0], lpc[1], lpc[2])
            else:
                _write_subframe_fixed(bw, sig, d, partition_order, escape)
        bw.align()
        body = bytes(bw.buf)
        bw.write(crc16(body), 16)
        out += bw.bytes()
        pos += n
        frame_no += 1
    return bytes(out)
