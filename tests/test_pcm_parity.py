"""Exact PCM parity: every sample format each audio container accepts
decodes to ``(duration_s, sample_rate, rms)`` equal (``==``, not within a
tolerance) to a direct numpy reference built from the same sample values.

Containers are hand-packed here (WAV, AIFF/AIFF-C, AU, Matroska) or built
with the MOV box writer, so every width, byte order and float width is
covered, not only the 16-bit rows the corpus carries.  Multi-channel
cases end with one partial frame and, for multi-byte formats, one stray
byte, so the width and frame truncations are pinned too.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

RATE = 22050


def _g711_level(code: int, law: str) -> int:
    """ITU-T G.711 expansion of one codeword (scalar reference)."""
    if law == "ulaw":
        u = code ^ 0xFF
        mag = ((((u & 0x0F) << 3) + 0x84) << ((u >> 4) & 7)) - 0x84
        return -mag if u & 0x80 else mag
    a = code ^ 0x55
    e, m = (a >> 4) & 7, a & 0x0F
    mag = (m << 4) + 8 if e == 0 else ((m << 4) + 0x108) << (e - 1)
    return mag if a & 0x80 else -mag


def _samples(fmt: str, n: int, rng) -> tuple[bytes, np.ndarray]:
    """n random samples in numpy-style format ``fmt`` -> (bytes, float64)."""
    if fmt in ("ulaw", "alaw"):
        codes = rng.randint(0, 256, n)
        levels = np.array([_g711_level(int(c), fmt) for c in codes])
        return codes.astype(np.uint8).tobytes(), levels / 32768.0
    if fmt == "u1":
        v = rng.randint(0, 256, n).astype(np.uint8)
        return v.tobytes(), (v.astype(np.float64) - 128.0) / 128.0
    if fmt == "i1":
        v = rng.randint(-128, 128, n).astype(np.int8)
        return v.tobytes(), v.astype(np.float64) / 128.0
    order, kind, width = fmt[0], fmt[1], int(fmt[2])
    if kind == "f":
        v = rng.uniform(-1.0, 1.0, n).astype(f"<f{width}")
        return v.astype(fmt).tobytes(), v.astype(np.float64)
    bits = 8 * width
    v = rng.randint(-(1 << (bits - 1)), 1 << (bits - 1), n, dtype=np.int64)
    u = v & ((1 << bits) - 1)
    b = np.stack([(u >> (8 * k)) & 0xFF for k in range(width)], axis=1)
    if order == ">":
        b = b[:, ::-1]
    return b.astype(np.uint8).tobytes(), v.astype(np.float64) / float(
        1 << (bits - 1))


def _chunk(tag: bytes, body: bytes, order: str) -> bytes:
    return (tag + struct.pack(f"{order}I", len(body)) + body
            + b"\x00" * (len(body) & 1))


def _wav(code: int, bits: int, ch: int, raw: bytes,
         extensible: bool = False) -> bytes:
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else code, ch, RATE,
                      RATE * ch * bits // 8, ch * bits // 8, bits)
    if extensible:  # cbSize, valid bits, channel mask, sub-format GUID
        fmt += struct.pack("<HHIH", 22, bits, 0, code) + b"\x00" * 14
    body = b"WAVE" + _chunk(b"fmt ", fmt, "<") + _chunk(b"data", raw, "<")
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _aiff(comp: bytes, bits: int, ch: int, raw: bytes) -> bytes:
    from img2table_ray.imgops.aiff import _float_to_ext80

    comm = struct.pack(">hIh", ch, 0, bits) + _float_to_ext80(float(RATE))
    form = b"AIFF"
    if comp != b"NONE":
        comm += comp + b"\x00"
        form = b"AIFC"
    body = (form + _chunk(b"COMM", comm, ">")
            + _chunk(b"SSND", struct.pack(">II", 0, 0) + raw, ">"))
    return b"FORM" + struct.pack(">I", len(body)) + body


def _au(enc: int, ch: int, raw: bytes) -> bytes:
    return b".snd" + struct.pack(">IIIII", 24, len(raw), enc, RATE, ch) + raw


def _mov(codec: bytes, bits: int, ch: int, raw: bytes,
         rate: int = RATE) -> bytes:
    from img2table_ray.imgops.isobmff import _mov_audio_boxes

    bpf = max(1, bits // 8) * ch
    frames = len(raw) // bpf
    cut = (frames // 2) * bpf
    ftyp = (struct.pack(">I", 20) + b"ftyp" + b"qt  "
            + struct.pack(">I", 0) + b"qt  ")
    mdat = struct.pack(">I", len(raw) + 8) + b"mdat" + raw
    return ftyp + mdat + _mov_audio_boxes(
        codec, rate, ch, bits, frames, [raw[:cut], raw[cut:]], len(ftyp) + 8)


def _ebml(eid: int, body: bytes) -> bytes:
    # 8-byte size vint: marker 0x01, then the 7-byte length
    return (eid.to_bytes((eid.bit_length() + 7) // 8, "big")
            + (len(body) | (1 << 56)).to_bytes(8, "big") + body)


def _mkv(codec: str, bits: int, ch: int, raw: bytes) -> bytes:
    audio = (_ebml(0xB5, struct.pack(">d", float(RATE)))
             + _ebml(0x9F, bytes([ch])))
    if bits:
        audio += _ebml(0x6264, bytes([bits]))
    track = _ebml(0xAE, _ebml(0xD7, b"\x01") + _ebml(0x83, b"\x02")
                  + _ebml(0x86, codec.encode("ascii")) + _ebml(0xE1, audio))
    cut = len(raw) // 2
    cluster = _ebml(0x1F43B675, _ebml(0xE7, b"\x00") + b"".join(
        _ebml(0xA3, b"\x81\x00\x00\x80" + part)
        for part in (raw[:cut], raw[cut:])))
    return (_ebml(0x1A45DFA3, _ebml(0x4282, b"matroska"))
            + _ebml(0x18538067, _ebml(0x1654AE6B, track) + cluster))


# (container, header fields, sample format the container stores)
CASES = [
    ("wav", (1, 8), "u1"), ("wav", (1, 16), "<i2"), ("wav", (1, 24), "<i3"),
    ("wav", (1, 32), "<i4"), ("wav", (3, 32), "<f4"), ("wav", (3, 64), "<f8"),
    ("wav", (7, 8), "ulaw"), ("wav", (6, 8), "alaw"),
    ("wav-ext", (1, 24), "<i3"), ("wav-ext", (3, 32), "<f4"),
    ("aiff", (b"NONE", 8), "i1"), ("aiff", (b"NONE", 16), ">i2"),
    ("aiff", (b"NONE", 24), ">i3"), ("aiff", (b"NONE", 32), ">i4"),
    ("aiff", (b"sowt", 8), "i1"), ("aiff", (b"sowt", 16), "<i2"),
    ("aiff", (b"sowt", 24), "<i3"), ("aiff", (b"sowt", 32), "<i4"),
    ("aiff", (b"fl32", 32), ">f4"), ("aiff", (b"fl64", 64), ">f8"),
    ("aiff", (b"ulaw", 8), "ulaw"), ("aiff", (b"alaw", 8), "alaw"),
    ("au", 1, "ulaw"), ("au", 2, "i1"), ("au", 3, ">i2"), ("au", 4, ">i3"),
    ("au", 5, ">i4"), ("au", 6, ">f4"), ("au", 7, ">f8"), ("au", 27, "alaw"),
    ("mov", (b"twos", 16), ">i2"), ("mov", (b"twos", 8), "i1"),
    ("mov", (b"sowt", 16), "<i2"), ("mov", (b"sowt", 8), "i1"),
    ("mov", (b"raw ", 8), "u1"), ("mov", (b"ulaw", 8), "ulaw"),
    ("mov", (b"alaw", 8), "alaw"), ("mov", (b"fl32", 32), ">f4"),
    ("mov", (b"fl64", 64), ">f8"), ("mov", (b"in24", 24), ">i3"),
    ("mov", (b"in32", 32), ">i4"),
    ("mkv", ("A_PCM/INT/LIT", 16), "<i2"), ("mkv", ("A_PCM/INT/LIT", 0), "<i2"),
    ("mkv", ("A_PCM/INT/BIG", 16), ">i2"), ("mkv", ("A_PCM/INT/LIT", 8), "u1"),
    ("mkv", ("A_PCM/INT/BIG", 8), "u1"),
    ("mkv", ("A_PCM/FLOAT/IEEE", 32), "<f4"),
    ("mkv", ("A_PCM/FLOAT/IEEE", 64), "<f8"),
    # 24- and 32-bit integer PCM in MOV and Matroska
    ("mov", (b"twos", 24), ">i3"), ("mov", (b"twos", 32), ">i4"),
    ("mov", (b"sowt", 24), "<i3"), ("mov", (b"sowt", 32), "<i4"),
    ("mkv", ("A_PCM/INT/LIT", 24), "<i3"), ("mkv", ("A_PCM/INT/BIG", 24), ">i3"),
    ("mkv", ("A_PCM/INT/LIT", 32), "<i4"), ("mkv", ("A_PCM/INT/BIG", 32), ">i4"),
]


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("container,header,fmt", CASES,
                         ids=[f"{c}-{f}-{i}" for i, (c, _, f)
                              in enumerate(CASES)])
def test_pcm_decode_is_exact(container, header, fmt, channels):
    from img2table_ray.pipelines.multimodal import AudioFeatureStage

    rng = np.random.RandomState(len(CASES) * channels
                                + CASES.index((container, header, fmt)))
    frames = 1001
    # MOV sample tables address whole frames only; elsewhere a partial
    # frame (and a stray byte of a partial sample) trails the data
    partial = container != "mov" and channels > 1
    raw, ref = _samples(fmt, frames * channels + partial, rng)
    width = int(fmt[2]) if fmt[0] in "<>" else 1
    if partial and width > 1:
        raw += b"\x7f"
    if container in ("wav", "wav-ext"):
        blob = _wav(*header, channels, raw, extensible=container != "wav")
    elif container == "aiff":
        blob = _aiff(*header, channels, raw)
    elif container == "au":
        blob = _au(header, channels, raw)
    elif container == "mov":
        blob = _mov(*header, channels, raw)
    else:
        blob = _mkv(*header, channels, raw)

    x = ref[: frames * channels]
    want = (frames / RATE, RATE, float(np.sqrt(np.mean(x * x))))
    assert AudioFeatureStage()._decode(blob) == want


def test_mov_24bit_twos_reads_its_duration():
    # 0.5 s of a 440 Hz tone at 8 kHz, 24-bit big-endian 'twos'
    from img2table_ray.pipelines.multimodal import AudioFeatureStage

    t = np.arange(4000) / 8000.0
    v = np.round(np.sin(2 * np.pi * 440 * t) * 0.5 * (1 << 23)).astype(np.int64)
    raw = np.stack([(v >> 16) & 0xFF, (v >> 8) & 0xFF, v & 0xFF],
                   axis=1).astype(np.uint8).tobytes()
    dur, rate, rms = AudioFeatureStage()._decode(_mov(b"twos", 24, 1, raw,
                                                      rate=8000))
    assert (dur, rate) == (0.5, 8000)
    assert rms == pytest.approx(0.5 / np.sqrt(2), rel=1e-3)


@pytest.mark.parametrize("bits", [12, 20, 64])
def test_mov_twos_rejects_other_depths(bits):
    from img2table_ray.pipelines.multimodal import AudioFeatureStage

    with pytest.raises(ValueError, match="depth"):
        AudioFeatureStage()._decode(_mov(b"twos", bits, 1, b"\x00" * 96))


def test_g711_reference_matches_the_spec_tables():
    # the scalar reference above, checked against G.711's published
    # anchor codewords (mu-law 0x00 = -32124, 0x80 = 32124, 0xFF = 0;
    # A-law 0x55 = -8, 0xD5 = 8, 0x2A = -32256)
    assert [_g711_level(c, "ulaw") for c in (0x00, 0x80, 0xFF, 0x7F)] == [
        -32124, 32124, 0, 0]
    assert [_g711_level(c, "alaw") for c in (0x55, 0xD5, 0x2A, 0xAA)] == [
        -8, 8, -32256, 32256]
