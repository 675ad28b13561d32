"""PCM sample decoding shared by every audio container.

WAV, AIFF/AIFF-C, Sun AU, MOV and Matroska each map their header fields
(format code, bit depth, byte-order fourcc, codec id) to one numpy-style
format code and call ``pcm_samples``:

* ``u1`` unsigned 8-bit (WAV, MOV ``raw ``, Matroska 8-bit), ``i1``
  signed 8-bit (AIFF, AU, MOV ``twos``/``sowt``);
* ``<i2``/``>i2``, ``<i3``/``>i3``, ``<i4``/``>i4`` signed integers in
  either byte order (24-bit samples are 3-byte packed);
* ``<f4``/``>f4``, ``<f8``/``>f8`` IEEE floats, already in [-1, 1];
* ``ulaw``/``alaw`` G.711 codewords (``imgops/g711.py`` tables).

Integers scale by 2^(bits-1) (unsigned 8-bit re-centres on 128 first);
a trailing partial sample is dropped.  One ``np.frombuffer`` plus a dtype
view per file, no per-sample Python.

``wave_file`` is the one RIFF/WAVE writer of the PCM, G.711 and ADPCM
fixture builders.
"""

from __future__ import annotations

import struct

import numpy as np


def wave_file(fmt: bytes, data: bytes) -> bytes:
    """A RIFF/WAVE file of one ``fmt `` chunk (``fmt`` is its payload)
    and one ``data`` chunk (fixture builders)."""
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def pcm_samples(raw: bytes, fmt: str) -> np.ndarray:
    """Raw interleaved samples in format ``fmt`` -> float64 in [-1, 1]."""
    if fmt in ("ulaw", "alaw"):
        from img2table_ray.imgops.g711 import alaw_decode, ulaw_decode

        dec = ulaw_decode if fmt == "ulaw" else alaw_decode
        return dec(raw).astype(np.float64) / 32768.0
    if fmt == "u1":
        return (np.frombuffer(raw, np.uint8).astype(np.float64)
                - 128.0) / 128.0
    if fmt == "i1":
        return np.frombuffer(raw, np.int8).astype(np.float64) / 128.0
    width = int(fmt[2])
    raw = raw[: len(raw) - len(raw) % width]
    if fmt[1] == "f":
        return np.frombuffer(raw, fmt).astype(np.float64)
    if width == 3:  # no 3-byte dtype: assemble little-endian words
        b = np.frombuffer(raw, np.uint8).reshape(-1, 3).astype(np.int64)
        if fmt[0] == ">":
            b = b[:, ::-1]
        v = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        v = np.where(v >= 1 << 23, v - (1 << 24), v)
        return v.astype(np.float64) / float(1 << 23)
    return np.frombuffer(raw, fmt).astype(np.float64) / float(
        1 << (8 * width - 1))
