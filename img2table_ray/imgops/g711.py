"""G.711 companded audio: mu-law (WAVE format 0x07) and A-law (0x06).

Implemented from the public ITU-T G.711 expansion rules — the classic
telephony 8-bit log-PCM codings that RIFF/WAVE carries natively.  The
reference repo has no audio support; this exists for the LLM-pipeline
multimodal brief (``pipelines/multimodal.py:audio_features``),
alongside the ADPCM codecs in ``imgops/adpcm.py``.

Scale shape: decode is a single 256-entry table gather per file — one
fancy-index numpy op, no per-sample Python.  Encode inverts the decode
table with midpoint thresholds (the optimal companding quantizer, the
same construction ffmpeg uses), so it is a single ``searchsorted`` and
``encode(decode(b)) == b`` holds for every codeword by construction.
Encoders are fixture builders (deterministic corpus rows and test
vectors), not pipeline hot paths, but are vectorized anyway.
"""

from __future__ import annotations

import struct

import numpy as np

from img2table_ray.imgops.pcm import wave_file


def _build_ulaw_table() -> np.ndarray:
    """Expansion per G.711 mu-law: the stored byte is bit-complemented;
    then sign(1)|exponent(3)|mantissa(4); linear = (((m<<3)+0x84)<<e)-0x84,
    negated when the sign bit (post-complement) is set."""
    u = np.arange(256, dtype=np.int32) ^ 0xFF
    sign = u & 0x80
    e = (u >> 4) & 0x07
    m = u & 0x0F
    mag = (((m << 3) + 0x84) << e) - 0x84
    return np.where(sign, -mag, mag).astype(np.int16)


def _build_alaw_table() -> np.ndarray:
    """Expansion per G.711 A-law: byte XOR 0x55; sign(1)|exp(3)|mant(4);
    exp 0 -> (m<<4)+8, else ((m<<4)+0x108)<<(e-1); the sign bit set
    means POSITIVE in A-law (opposite of mu-law)."""
    a = np.arange(256, dtype=np.int32) ^ 0x55
    sign = a & 0x80
    e = (a >> 4) & 0x07
    m = a & 0x0F
    mag = np.where(e == 0, (m << 4) + 8,
                   ((m << 4) + 0x108) << np.maximum(e - 1, 0))
    return np.where(sign, mag, -mag).astype(np.int16)


_ULAW_DECODE = _build_ulaw_table()
_ALAW_DECODE = _build_alaw_table()


def _build_encoder(decode: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(thresholds, codes): sort the 256 decode levels; the optimal
    quantizer maps x to the code of the nearest level, i.e. bins at
    midpoints between adjacent sorted levels."""
    order = np.argsort(decode.astype(np.int32), kind="stable")
    levels = decode.astype(np.int32)[order]
    thresholds = (levels[1:] + levels[:-1] + 1) // 2
    return thresholds, order.astype(np.uint8)


_ULAW_THR, _ULAW_CODE = _build_encoder(_ULAW_DECODE)
_ALAW_THR, _ALAW_CODE = _build_encoder(_ALAW_DECODE)


def ulaw_decode(raw: bytes) -> np.ndarray:
    """mu-law bytes -> int16 samples (single table gather)."""
    return _ULAW_DECODE[np.frombuffer(raw, np.uint8)]


def alaw_decode(raw: bytes) -> np.ndarray:
    """A-law bytes -> int16 samples (single table gather)."""
    return _ALAW_DECODE[np.frombuffer(raw, np.uint8)]


def ulaw_encode(x: np.ndarray) -> bytes:
    """int16 samples -> mu-law bytes (nearest-level quantizer)."""
    idx = np.searchsorted(_ULAW_THR, x.astype(np.int32), side="right")
    return _ULAW_CODE[idx].tobytes()


def alaw_encode(x: np.ndarray) -> bytes:
    """int16 samples -> A-law bytes (nearest-level quantizer)."""
    idx = np.searchsorted(_ALAW_THR, x.astype(np.int32), side="right")
    return _ALAW_CODE[idx].tobytes()


def encode_wav_g711(x: np.ndarray, rate: int, kind: str = "ulaw") -> bytes:
    """Wrap int16 samples (frames,) or (frames, channels) into a complete
    RIFF/WAVE file with a G.711 ``data`` chunk (fixture builder)."""
    if x.ndim == 1:
        x = x[:, None]
    channels = x.shape[1]
    if kind == "ulaw":
        code, payload = 0x07, ulaw_encode(x.reshape(-1))
    elif kind == "alaw":
        code, payload = 0x06, alaw_encode(x.reshape(-1))
    else:
        raise ValueError(kind)
    fmt = struct.pack("<HHIIHH", code, channels, rate, rate * channels,
                      channels, 8) + struct.pack("<H", 0)
    return wave_file(fmt, payload)
