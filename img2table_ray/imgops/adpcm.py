"""WAVE ADPCM codecs: IMA/DVI (format 0x11) and Microsoft (format 0x02).

The only compressed audio formats native to RIFF/WAVE, implemented from
the public specs (IMA "Recommended Practices for Enhancing Digital Audio
Compatibility" rev 3.00; the Microsoft WAVE format documentation's
ADPCM coefficient/adaptation tables).  The reference repo has no audio
support at all — this exists for the LLM-pipeline multimodal brief
(``pipelines/multimodal.py:audio_features``), closing the last
RIFF-native row in the stage's ``unsupported`` tally.

Scale shape: ADPCM blocks are INDEPENDENT (each block header restarts
the predictor), so the decoder runs the short per-block sample loop
vectorized ACROSS all blocks of a file — decode cost is
O(samples_per_block) numpy steps regardless of file length, the same
blocks-parallel trick as the rasterizer's scanline fills.  Encoders are
plain Python loops: they exist to build deterministic test/corpus
fixtures, never run in a pipeline hot path.
"""

from __future__ import annotations

import struct

import numpy as np

from img2table_ray.imgops.pcm import wave_file


# --- IMA / DVI ADPCM (wFormatTag 0x11) -----------------------------------

_IMA_STEPS = np.array([
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37,
    41, 45, 50, 55, 60, 66, 73, 80, 88, 97, 107, 118, 130, 143, 157, 173,
    190, 209, 230, 253, 279, 307, 337, 371, 408, 449, 494, 544, 598, 658,
    724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066,
    2272, 2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894,
    6484, 7132, 7845, 8630, 9493, 10442, 11487, 12635, 13899, 15289,
    16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767], np.int32)

_IMA_INDEX = np.array([-1, -1, -1, -1, 2, 4, 6, 8], np.int32)


def _i16le(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return ((lo.astype(np.uint16) | (hi.astype(np.uint16) << 8))
            .astype(np.int16).astype(np.int32))


def ima_adpcm_decode(raw: bytes, channels: int,
                     block_align: int) -> np.ndarray:
    """Decode an IMA ADPCM ``data`` chunk -> interleaved int16 samples.

    Block layout (per channel): 4-byte header (int16 predictor = the
    block's first output sample, uint8 step index, reserved), then the
    payload in 4-byte-per-channel groups, two low-nibble-first samples
    per byte.  Vectorized across blocks (see module docstring)."""
    hdr = 4 * channels
    if block_align <= hdr or block_align % 4:
        raise ValueError(f"bad IMA block_align {block_align}")
    n_blocks = len(raw) // block_align
    if n_blocks == 0:
        return np.zeros(0, np.int16)
    blk = np.frombuffer(raw[: n_blocks * block_align], np.uint8).reshape(
        n_blocks, block_align)
    n_groups = (block_align - hdr) // (4 * channels)
    groups = blk[:, hdr : hdr + n_groups * 4 * channels].reshape(
        n_blocks, n_groups, channels, 4)
    n_nib = n_groups * 8  # samples per block per channel, minus the header
    per_ch = []
    for ch in range(channels):
        pred = _i16le(blk[:, 4 * ch], blk[:, 4 * ch + 1])
        index = np.clip(blk[:, 4 * ch + 2].astype(np.int32), 0, 88)
        byts = groups[:, :, ch, :].reshape(n_blocks, n_groups * 4)
        nib = np.empty((n_blocks, n_nib), np.uint8)
        nib[:, 0::2] = byts & 0x0F
        nib[:, 1::2] = byts >> 4
        out = np.empty((n_blocks, n_nib + 1), np.int16)
        out[:, 0] = pred
        for t in range(n_nib):
            v = nib[:, t].astype(np.int32)
            step = _IMA_STEPS[index]
            diff = step >> 3
            diff += np.where(v & 1, step >> 2, 0)
            diff += np.where(v & 2, step >> 1, 0)
            diff += np.where(v & 4, step, 0)
            diff = np.where(v & 8, -diff, diff)
            pred = np.clip(pred + diff, -32768, 32767)
            out[:, t + 1] = pred
            index = np.clip(index + _IMA_INDEX[v & 7], 0, 88)
        per_ch.append(out)
    return np.stack(per_ch, axis=-1).reshape(-1).astype(np.int16)


def _ima_quantize(diff: int, step: int) -> tuple[int, int]:
    """Encoder-side nibble for one delta; returns (nibble, recon diff)."""
    nib = 0
    if diff < 0:
        nib = 8
        diff = -diff
    recon = step >> 3
    if diff >= step:
        nib |= 4
        diff -= step
        recon += step
    if diff >= step >> 1:
        nib |= 2
        diff -= step >> 1
        recon += step >> 1
    if diff >= step >> 2:
        nib |= 1
        recon += step >> 2
    return nib, (-recon if nib & 8 else recon)


def ima_adpcm_encode(x: np.ndarray, block_align: int = 256) -> bytes:
    """Encode int16 samples of shape (frames, channels) -> IMA data
    chunk bytes (fixture builder; plain Python by design)."""
    frames, channels = x.shape
    spb = (block_align - 4 * channels) * 2 // channels + 1
    out = bytearray()
    pos = 0
    pred = [0] * channels
    index = [0] * channels
    while pos < frames:
        chunk = x[pos : pos + spb]
        if len(chunk) < spb:  # pad the tail block by repeating the last frame
            pad = np.repeat(chunk[-1:], spb - len(chunk), axis=0)
            chunk = np.concatenate([chunk, pad], axis=0)
        nibs = [[] for _ in range(channels)]
        for ch in range(channels):
            pred[ch] = int(chunk[0, ch])
            out += struct.pack("<hBB", pred[ch], index[ch], 0)
            for t in range(1, spb):
                step = int(_IMA_STEPS[index[ch]])
                nib, recon = _ima_quantize(int(chunk[t, ch]) - pred[ch], step)
                pred[ch] = max(-32768, min(32767, pred[ch] + recon))
                index[ch] = max(0, min(88, index[ch] + int(_IMA_INDEX[nib & 7])))
                nibs[ch].append(nib)
        # payload: alternating 4-byte (8-nibble) groups per channel
        for g in range((spb - 1) // 8):
            for ch in range(channels):
                for k in range(4):
                    lo = nibs[ch][g * 8 + 2 * k]
                    hi = nibs[ch][g * 8 + 2 * k + 1]
                    out.append(lo | (hi << 4))
        pos += spb
    return bytes(out)


# --- Microsoft ADPCM (wFormatTag 0x02) ------------------------------------

_MS_ADAPT = np.array([230, 230, 230, 230, 307, 409, 512, 614,
                      768, 614, 512, 409, 307, 230, 230, 230], np.int32)
_MS_COEF1 = np.array([256, 512, 0, 192, 240, 460, 392], np.int32)
_MS_COEF2 = np.array([0, -256, 0, 64, 0, -208, -232], np.int32)


def ms_adpcm_decode(raw: bytes, channels: int,
                    block_align: int) -> np.ndarray:
    """Decode a Microsoft ADPCM ``data`` chunk -> interleaved int16.

    Block header per channel: coefficient-pair index (1 B), initial
    delta (int16), sample1, sample2; first two output frames are
    (sample2, sample1); payload nibbles are high-first, alternating
    channels when stereo.  Vectorized across blocks."""
    hdr = 7 * channels
    n_blocks = len(raw) // block_align
    if block_align <= hdr:
        raise ValueError(f"bad MS ADPCM block_align {block_align}")
    if n_blocks == 0:
        return np.zeros(0, np.int16)
    blk = np.frombuffer(raw[: n_blocks * block_align], np.uint8).reshape(
        n_blocks, block_align)
    ci = [np.clip(blk[:, ch].astype(np.int64), 0, 6) for ch in range(channels)]
    c1 = [_MS_COEF1[ci[ch]].astype(np.int64) for ch in range(channels)]
    c2 = [_MS_COEF2[ci[ch]].astype(np.int64) for ch in range(channels)]
    off = channels
    delta = [
        _i16le(blk[:, off + 2 * ch], blk[:, off + 2 * ch + 1]).astype(np.int64)
        for ch in range(channels)]
    off += 2 * channels
    s1 = [
        _i16le(blk[:, off + 2 * ch], blk[:, off + 2 * ch + 1]).astype(np.int64)
        for ch in range(channels)]
    off += 2 * channels
    s2 = [
        _i16le(blk[:, off + 2 * ch], blk[:, off + 2 * ch + 1]).astype(np.int64)
        for ch in range(channels)]
    data = blk[:, hdr:]
    n_nib = data.shape[1] * 2
    nib = np.empty((n_blocks, n_nib), np.uint8)
    nib[:, 0::2] = data >> 4
    nib[:, 1::2] = data & 0x0F
    frames = 2 + n_nib // channels
    out = np.empty((n_blocks, frames, channels), np.int16)
    for ch in range(channels):
        out[:, 0, ch] = s2[ch]
        out[:, 1, ch] = s1[ch]
    for t in range(n_nib):
        ch = t % channels
        v = nib[:, t].astype(np.int64)
        v = np.where(v >= 8, v - 16, v)
        predicted = (s1[ch] * c1[ch] + s2[ch] * c2[ch]) >> 8
        predicted = np.clip(predicted + v * delta[ch], -32768, 32767)
        out[:, 2 + t // channels, ch] = predicted
        s2[ch] = s1[ch]
        s1[ch] = predicted
        delta[ch] = np.maximum((_MS_ADAPT[nib[:, t]] * delta[ch]) >> 8, 16)
    return out.reshape(-1).astype(np.int16)


def ms_adpcm_encode(x: np.ndarray, block_align: int = 256) -> bytes:
    """Encode int16 samples (frames, channels) -> MS ADPCM data chunk,
    always with coefficient pair 0 (predictor = previous sample) — a
    valid, decode-exact stream; fixture builder only."""
    frames, channels = x.shape
    spb = (block_align - 7 * channels) * 2 // channels + 2
    out = bytearray()
    pos = 0
    while pos < frames:
        chunk = x[pos : pos + spb]
        if len(chunk) < spb:
            pad = np.repeat(chunk[-1:], spb - len(chunk), axis=0)
            chunk = np.concatenate([chunk, pad], axis=0)
        delta = [256] * channels
        s2 = [int(chunk[0, ch]) for ch in range(channels)]
        s1 = [int(chunk[1, ch]) for ch in range(channels)]
        out += bytes([0] * channels)  # coef pair 0 per channel
        for ch in range(channels):
            out += struct.pack("<h", delta[ch])
        for ch in range(channels):
            out += struct.pack("<h", s1[ch])
        for ch in range(channels):
            out += struct.pack("<h", s2[ch])
        nibbles = []
        for t in range(2, spb):
            for ch in range(channels):
                predicted = (s1[ch] * 256 + s2[ch] * 0) >> 8
                err = int(chunk[t, ch]) - predicted
                v = max(-8, min(7, int(round(err / delta[ch]))))
                recon = max(-32768, min(32767, predicted + v * delta[ch]))
                nibbles.append(v & 0x0F)
                s2[ch] = s1[ch]
                s1[ch] = recon
                delta[ch] = max((int(_MS_ADAPT[v & 0x0F]) * delta[ch]) >> 8, 16)
        for k in range(0, len(nibbles), 2):
            out.append((nibbles[k] << 4) | nibbles[k + 1])
        pos += spb
    return bytes(out)


def encode_wav_adpcm(x: np.ndarray, rate: int, kind: str = "ima",
                     block_align: int = 256) -> bytes:
    """Wrap int16 samples (frames, channels) into a complete RIFF/WAVE
    file with an ADPCM ``data`` chunk (deterministic fixture builder)."""
    if x.ndim == 1:
        x = x[:, None]
    channels = x.shape[1]
    if kind == "ima":
        code = 0x11
        payload = ima_adpcm_encode(x, block_align)
        spb = (block_align - 4 * channels) * 2 // channels + 1
        ext = struct.pack("<H", spb)
    elif kind == "ms":
        code = 0x02
        payload = ms_adpcm_encode(x, block_align)
        spb = (block_align - 7 * channels) * 2 // channels + 2
        # samples-per-block, coefficient count, the 7 standard pairs
        ext = struct.pack("<HH", spb, 7)
        for a, b in zip(_MS_COEF1.tolist(), _MS_COEF2.tolist()):
            ext += struct.pack("<hh", a, b)
    else:
        raise ValueError(kind)
    byte_rate = rate * block_align // spb
    fmt = struct.pack("<HHIIHH", code, channels, rate, byte_rate,
                      block_align, 4) + struct.pack("<H", len(ext)) + ext
    return wave_file(fmt, payload)


# --- Apple/QuickTime IMA4 (AIFF-C compression 'ima4') ----------------------
#
# Same IMA step/index tables as the WAVE variant, different packaging:
# fixed 34-byte packets per channel (2-byte big-endian preamble = the
# predictor's top 9 bits | 7-bit step index, then 32 payload bytes = 64
# low-nibble-first samples).  Unlike WAVE IMA the preamble is NOT an
# output sample -- all 64 samples decode from nibbles, and the coder
# state carries ACROSS packets (the preamble just re-seeds it, which is
# what makes packets independently decodable).

IMA4_PACKET = 34
IMA4_SAMPLES = 64


def ima4_decode(raw: bytes, channels: int) -> np.ndarray:
    """Decode AIFF-C 'ima4' SSND payload -> interleaved int16 samples.

    Vectorized across packets exactly like :func:`ima_adpcm_decode`:
    packets re-seed the coder state from their preamble, so every packet
    decodes independently and the 64-step loop runs across all packets
    of a channel at once."""
    if channels < 1:
        raise ValueError("bad channel count")
    n_pk = len(raw) // (IMA4_PACKET * channels) * channels
    if n_pk == 0:
        return np.zeros(0, np.int16)
    pk = np.frombuffer(raw[: n_pk * IMA4_PACKET], np.uint8).reshape(
        n_pk, IMA4_PACKET)
    preamble = (pk[:, 0].astype(np.uint16) << 8) | pk[:, 1]
    pred = (preamble & 0xFF80).astype(np.int16).astype(np.int32)
    index = np.clip((preamble & 0x7F).astype(np.int32), 0, 88)
    byts = pk[:, 2:]
    nib = np.empty((n_pk, IMA4_SAMPLES), np.uint8)
    nib[:, 0::2] = byts & 0x0F
    nib[:, 1::2] = byts >> 4
    out = np.empty((n_pk, IMA4_SAMPLES), np.int16)
    for t in range(IMA4_SAMPLES):
        v = nib[:, t].astype(np.int32)
        step = _IMA_STEPS[index]
        diff = step >> 3
        diff += np.where(v & 1, step >> 2, 0)
        diff += np.where(v & 2, step >> 1, 0)
        diff += np.where(v & 4, step, 0)
        diff = np.where(v & 8, -diff, diff)
        pred = np.clip(pred + diff, -32768, 32767)
        out[:, t] = pred
        index = np.clip(index + _IMA_INDEX[v & 7], 0, 88)
    # packets alternate channels: ch0 pk, ch1 pk, ... per 64-frame group
    grp = out.reshape(n_pk // channels, channels, IMA4_SAMPLES)
    return grp.transpose(0, 2, 1).reshape(-1)


def ima4_encode(x: np.ndarray) -> bytes:
    """int16 samples (frames,) or (frames, channels) -> 'ima4' payload
    bytes (fixture builder; plain Python by design).  The tail packet is
    padded by repeating the final frame."""
    if x.ndim == 1:
        x = x[:, None]
    frames, channels = x.shape
    out = bytearray()
    pred = [0] * channels
    index = [0] * channels
    pos = 0
    while pos < frames:
        chunk = x[pos : pos + IMA4_SAMPLES]
        if len(chunk) < IMA4_SAMPLES:
            pad = np.repeat(chunk[-1:], IMA4_SAMPLES - len(chunk), axis=0)
            chunk = np.concatenate([chunk, pad], axis=0)
        for ch in range(channels):
            # re-seed exactly what the preamble can carry so encoder and
            # decoder predictors stay bit-identical
            pred[ch] = ((pred[ch] & 0xFF80) ^ 0x8000) - 0x8000
            out += struct.pack(">H", (pred[ch] & 0xFF80) | index[ch])
            nibs = []
            for t in range(IMA4_SAMPLES):
                step = int(_IMA_STEPS[index[ch]])
                nib, recon = _ima_quantize(int(chunk[t, ch]) - pred[ch], step)
                pred[ch] = max(-32768, min(32767, pred[ch] + recon))
                index[ch] = max(0, min(88, index[ch] + int(_IMA_INDEX[nib & 7])))
                nibs.append(nib)
            for k in range(0, IMA4_SAMPLES, 2):
                out.append(nibs[k] | (nibs[k + 1] << 4))
        pos += IMA4_SAMPLES
    return bytes(out)
