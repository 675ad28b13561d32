"""AIFF/AIFF-C and Sun AU audio containers — real PCM decode.

Implemented from the public specs (Apple AIFF-1.3 / AIFF-C 1989;
Sun/NeXT .snd header): AIFF ``COMM`` carries channels / frame count /
bit depth / an 80-bit extended-float sample rate, ``SSND`` the
big-endian PCM; AIFF-C adds a compression fourcc (``NONE``/``sowt``
byte order, ``fl32``/``fl64`` floats, ``ulaw``/``alaw`` G.711 via
``imgops/g711.py``'s tables, ``ima4`` QuickTime IMA ADPCM via
``imgops/adpcm.py``'s packet decoder).  AU is a 24-byte
big-endian header + PCM/G.711 payload.  The reference repo has no
audio support; this feeds ``pipelines/multimodal.py:
AudioFeatureStage`` with two more fully-decodable containers.

Each header maps to one ``imgops/pcm.py`` sample-format code, and
``pcm_samples`` does the decode: ``np.frombuffer`` + a dtype view or a
single 256-entry table gather — no per-sample Python.  Encoders are
fixture builders.
"""

from __future__ import annotations

import struct

import numpy as np

from img2table_ray.imgops.pcm import pcm_samples


def _ext80_to_float(b: bytes) -> float:
    """80-bit IEEE 754 extended float (big-endian) -> float."""
    if len(b) != 10:
        raise ValueError("bad extended float")
    se = struct.unpack(">H", b[:2])[0]
    mant = int.from_bytes(b[2:10], "big")
    sign = -1.0 if se & 0x8000 else 1.0
    exp = se & 0x7FFF
    if exp == 0 and mant == 0:
        return 0.0
    if exp == 0x7FFF:
        raise ValueError("inf/nan sample rate")
    return sign * mant * 2.0 ** (exp - 16383 - 63)


def _float_to_ext80(x: float) -> bytes:
    if x == 0:
        return b"\x00" * 10
    sign = 0x8000 if x < 0 else 0
    x = abs(x)
    exp = 16383 + 63
    while x >= 1 << 64:
        x /= 2
        exp += 1
    while x < 1 << 63:
        x *= 2
        exp -= 1
    return struct.pack(">H", sign | exp) + int(x).to_bytes(8, "big")


_AIFC_FORMATS = {b"fl32": ">f4", b"fl64": ">f8", b"ulaw": "ulaw",
                 b"alaw": "alaw"}


def decode_aiff(data: bytes) -> tuple[np.ndarray, int, int]:
    """AIFF/AIFF-C bytes -> (float64 interleaved samples in [-1, 1],
    rate, channels)."""
    if data[:4] != b"FORM" or data[8:12] not in (b"AIFF", b"AIFC"):
        raise ValueError("not an AIFF stream")
    comm = ssnd = None
    comp = b"NONE"
    pos = 12
    while pos + 8 <= len(data):
        tag = data[pos : pos + 4]
        n = struct.unpack(">I", data[pos + 4 : pos + 8])[0]
        body = data[pos + 8 : pos + 8 + n]
        if tag == b"COMM":
            comm = body
            if data[8:12] == b"AIFC" and len(body) >= 22:
                comp = body[18:22]
        elif tag == b"SSND":
            ssnd = body
        pos += 8 + n + (n & 1)
    if comm is None or ssnd is None or len(comm) < 18:
        raise ValueError("missing COMM/SSND chunk")
    channels = struct.unpack(">h", comm[0:2])[0]
    bits = struct.unpack(">h", comm[6:8])[0]
    rate = int(round(_ext80_to_float(comm[8:18])))
    if channels < 1 or rate < 1:
        raise ValueError("bad COMM chunk")
    off = struct.unpack(">I", ssnd[0:4])[0]
    raw = ssnd[8 + off :]
    comp_l = comp.lower()
    if comp_l == b"ima4":
        from img2table_ray.imgops.adpcm import ima4_decode

        x = ima4_decode(raw, channels).astype(np.float64) / 32768.0
    elif comp_l in (b"none", b"sowt"):
        if bits not in (8, 16, 24, 32):
            raise ValueError(f"unsupported AIFF depth {bits}")
        endian = "<" if comp_l == b"sowt" else ">"
        # AIFF 8-bit PCM is SIGNED
        x = pcm_samples(raw, "i1" if bits == 8 else f"{endian}i{bits // 8}")
    elif comp_l in _AIFC_FORMATS:
        x = pcm_samples(raw, _AIFC_FORMATS[comp_l])
    else:
        raise NotImplementedError(f"AIFF-C compression {comp!r}")
    return x, rate, channels


def encode_aiff(x: np.ndarray, rate: int, comp: bytes = b"NONE") -> bytes:
    """int16 samples (frames,) or (frames, channels) -> AIFF (NONE) or
    AIFF-C (sowt/ulaw/alaw) fixture bytes."""
    if x.ndim == 1:
        x = x[:, None]
    frames, channels = x.shape
    if comp == b"NONE":
        payload = x.reshape(-1).astype(">i2").tobytes()
        form, extra, bits = b"AIFF", b"", 16
    elif comp == b"sowt":
        payload = x.reshape(-1).astype("<i2").tobytes()
        form, extra, bits = b"AIFC", comp + b"\x00", 16
    elif comp in (b"ulaw", b"alaw"):
        from img2table_ray.imgops.g711 import alaw_encode, ulaw_encode

        enc = ulaw_encode if comp == b"ulaw" else alaw_encode
        payload = enc(x.reshape(-1))
        form, extra, bits = b"AIFC", comp + b"\x00", 8
    elif comp == b"ima4":
        from img2table_ray.imgops.adpcm import ima4_encode

        payload = ima4_encode(x)
        form, extra, bits = b"AIFC", comp + b"\x00", 16
    else:
        raise ValueError(comp)
    comm = (struct.pack(">hIh", channels, frames, bits)
            + _float_to_ext80(float(rate)) + extra)
    ssnd = struct.pack(">II", 0, 0) + payload

    def chunk(tag: bytes, body: bytes) -> bytes:
        return tag + struct.pack(">I", len(body)) + body \
            + (b"\x00" * (len(body) & 1))

    body = form + chunk(b"COMM", comm) + chunk(b"SSND", ssnd)
    return b"FORM" + struct.pack(">I", len(body)) + body


# --- Sun/NeXT AU ------------------------------------------------------------

_AU_FORMATS = {1: "ulaw", 2: "i1", 3: ">i2", 4: ">i3", 5: ">i4", 6: ">f4",
               7: ">f8", 27: "alaw"}


def decode_au(data: bytes) -> tuple[np.ndarray, int, int]:
    """Sun AU (.snd) bytes -> (float64 samples, rate, channels)."""
    if data[:4] != b".snd" or len(data) < 24:
        raise ValueError("not an AU stream")
    off, size, enc, rate, channels = struct.unpack(">IIIII", data[4:24])
    if enc not in _AU_FORMATS or channels < 1 or rate < 1:
        raise ValueError(f"unsupported AU encoding {enc}")
    raw = data[off : off + size] if size != 0xFFFFFFFF else data[off:]
    return pcm_samples(raw, _AU_FORMATS[enc]), rate, channels


def encode_au(x: np.ndarray, rate: int, enc: int = 3) -> bytes:
    """int16 samples -> AU fixture (enc 3 = 16-bit BE PCM, 1 = mu-law)."""
    if x.ndim == 1:
        x = x[:, None]
    channels = x.shape[1]
    if enc == 3:
        payload = x.reshape(-1).astype(">i2").tobytes()
    elif enc == 1:
        from img2table_ray.imgops.g711 import ulaw_encode

        payload = ulaw_encode(x.reshape(-1))
    else:
        raise ValueError(enc)
    hdr = b".snd" + struct.pack(">IIIII", 24, len(payload), enc, rate,
                                channels)
    return hdr + payload
