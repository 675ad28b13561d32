"""Minimal pure-numpy PNG codec (stdlib zlib only).

The execution containers ship no image libraries (no cv2/PIL), so page-image
bytes are decoded here inside the extraction UDFs.  Supports the formats the
corpus uses: 8-bit depth, color types 0 (gray), 2 (RGB), 3 (palette),
4 (gray+alpha), 6 (RGBA), non-interlaced.  Decode returns an (H, W) gray
plane or an (H, W, 3) RGB uint8 array, alpha dropped (the reference's
cv2.imdecode(..., IMREAD_COLOR) + BGR2RGB, src/img2table/document/image.py:
25-32, copies gray into three channels; the page layers take the plane).

Filter reconstruction follows the PNG spec (RFC 2083 §6): None/Sub/Up/
Average/Paeth, applied row-sequentially with numpy per-row vectorization
where possible.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from img2table_ray.imgops.limits import bounded_decompress, check_dims

_SIG = b"\x89PNG\r\n\x1a\n"

# samples per pixel of each supported colour type
_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}


class PngError(ValueError):
    pass


def _walk_chunks(data: bytes):
    """Yield (type, payload) for each chunk after the signature, up to and
    including IEND.  A chunk that does not fit in ``data``, its CRC
    included, raises PngError (libpng fails such a read too)."""
    pos = 8
    n = len(data)
    while pos < n:
        if n - pos < 12:
            raise PngError("truncated chunk")
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        if length > n - pos - 12:
            raise PngError("chunk overruns file")
        ctype = data[pos + 4 : pos + 8]
        yield ctype, data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if ctype == b"IEND":
            return


def _header(ihdr: bytes, what: str) -> tuple[int, int, int, int]:
    """IHDR payload -> (width, height, colour type, channels); only 8-bit,
    non-interlaced images of the colour types in ``_CHANNELS`` pass."""
    width, height, bit_depth, color_type, _, _, interlace = struct.unpack(
        ">IIBBBBB", ihdr)
    check_dims(width, height, what)
    if bit_depth != 8:
        raise PngError(f"unsupported bit depth {bit_depth}")
    if interlace != 0:
        raise PngError(f"interlaced {what} not supported")
    channels = _CHANNELS.get(color_type)
    if channels is None:
        raise PngError(f"unsupported color type {color_type}")
    return width, height, color_type, channels


def _chunk(ctype: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + ctype + payload
            + struct.pack(">I", zlib.crc32(ctype + payload) & 0xFFFFFFFF))


def _idat(img: np.ndarray) -> bytes:
    """(H, W, C) uint8 -> zlib stream of filter-0 scanlines."""
    h, w, c = img.shape
    raw = np.concatenate(
        [np.zeros((h, 1), dtype=np.uint8), img.reshape(h, w * c)], axis=1)
    return zlib.compress(raw.tobytes(), 6)


def unfilter_idat(compressed: bytes, width: int, height: int,
                  channels: int) -> np.ndarray:
    """Inflate + reconstruct filtered scanlines (PNG spec §6: None/Sub/Up/
    Average/Paeth) -> (H, W, channels) uint8.  Shared by whole-image
    decode and APNG frame-region decode (frame data is an independent
    filtered stream over the region's own dimensions)."""
    stride = width * channels
    expected = height * (stride + 1)
    raw = bounded_decompress(compressed, expected, "PNG IDAT")
    if len(raw) < expected:
        raise PngError("truncated image data")
    raw = np.frombuffer(raw[:expected], dtype=np.uint8).reshape(height, stride + 1)
    filters = raw[:, 0]
    scan = raw[:, 1:].astype(np.int32)

    bpp = channels  # bytes per pixel (8-bit depth)
    out = np.zeros((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int32)
    for y in range(height):
        f = filters[y]
        line = scan[y].copy()
        if f == 0:
            rec = line
        elif f == 1:  # Sub — per-lane modular cumsum (vectorized)
            lanes = line.astype(np.uint8).reshape(-1, bpp)
            rec = np.add.accumulate(lanes, axis=0, dtype=np.uint8).reshape(-1).astype(np.int32)
        elif f == 2:  # Up
            rec = (line + prev) & 0xFF
        elif f == 3:  # Average — sequential; plain-int list loop (fast path)
            r = line.tolist()
            pv = prev.tolist()
            for x in range(bpp):
                r[x] = (r[x] + (pv[x] >> 1)) & 0xFF
            for x in range(bpp, stride):
                r[x] = (r[x] + ((r[x - bpp] + pv[x]) >> 1)) & 0xFF
            rec = np.array(r, dtype=np.int32)
        elif f == 4:  # Paeth — sequential; plain-int list loop (fast path)
            r = line.tolist()
            pv = prev.tolist()
            for x in range(bpp):
                r[x] = (r[x] + pv[x]) & 0xFF
            for x in range(bpp, stride):
                a = r[x - bpp]
                b = pv[x]
                c = pv[x - bpp]
                p = a + b - c
                pa = p - a if p >= a else a - p
                pb = p - b if p >= b else b - p
                pc = p - c if p >= c else c - p
                if pa <= pb and pa <= pc:
                    pr = a
                elif pb <= pc:
                    pr = b
                else:
                    pr = c
                r[x] = (r[x] + pr) & 0xFF
            rec = np.array(r, dtype=np.int32)
        else:
            raise PngError(f"bad filter {f}")
        out[y] = rec
        prev = rec.astype(np.int32)

    return out.reshape(height, width, channels)


def decode_png(data: bytes) -> np.ndarray:
    """Decode PNG bytes -> (H, W) gray or (H, W, 3) RGB uint8 array."""
    if data[:8] != _SIG:
        raise PngError("not a PNG file")
    ihdr = None
    idat = []
    palette = None
    for ctype, chunk in _walk_chunks(data):
        if ctype == b"IHDR":
            ihdr = chunk
        elif ctype == b"PLTE":
            palette = np.frombuffer(chunk, dtype=np.uint8).reshape(-1, 3)
        elif ctype == b"IDAT":
            idat.append(chunk)
    if ihdr is None:
        raise PngError("missing IHDR")
    width, height, color_type, channels = _header(ihdr, "PNG")

    img = unfilter_idat(b"".join(idat), width, height, channels)
    if color_type == 0:
        return img[:, :, 0]
    if color_type == 2:
        return img.copy()
    if color_type == 3:
        if palette is None:
            raise PngError("palette image without PLTE")
        return palette[img[:, :, 0]]
    if color_type == 4:
        return img[:, :, 0].copy()  # gray + alpha -> drop alpha
    return img[:, :, :3].copy()  # RGBA -> drop alpha


def encode_png(img: np.ndarray) -> bytes:
    """Encode (H, W, 3) or (H, W) uint8 array -> PNG bytes (filter 0 rows)."""
    if img.ndim == 2:
        img = np.stack([img] * 3, axis=2)
    h, w, c = img.shape
    assert c == 3 and img.dtype == np.uint8
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", _idat(img))
            + _chunk(b"IEND", b""))


def decode_bmp(data: bytes) -> np.ndarray:
    """Minimal BMP decoder (24/32-bit uncompressed, bottom-up or top-down)
    -> (H, W, 3) uint8 RGB."""
    if data[:2] != b"BM":
        raise PngError("not a BMP file")
    offset = struct.unpack("<I", data[10:14])[0]
    width, height = struct.unpack("<ii", data[18:26])
    bpp = struct.unpack("<H", data[28:30])[0]
    comp = struct.unpack("<I", data[30:34])[0]
    if comp != 0 or bpp not in (24, 32):
        raise PngError(f"unsupported BMP (bpp={bpp}, comp={comp})")
    flip = height > 0
    height = abs(height)
    check_dims(width, height, "BMP")
    nch = bpp // 8
    stride = (width * nch + 3) // 4 * 4
    arr = np.frombuffer(data, dtype=np.uint8, count=height * stride, offset=offset)
    arr = arr.reshape(height, stride)[:, : width * nch].reshape(height, width, nch)
    if flip:
        arr = arr[::-1]
    # BMP stores BGR(A) -> RGB
    return arr[:, :, [2, 1, 0]].copy()


def decode_image(data: bytes) -> np.ndarray:
    """Sniff container and decode PNG, BMP, JPEG (baseline+progressive),
    TIFF, GIF or WebP -> (H, W) gray or (H, W, 3) RGB uint8 array."""
    if data[:8] == _SIG:
        return decode_png(data)
    if data[:2] == b"BM":
        return decode_bmp(data)
    if data[:3] == b"\xff\xd8\xff":
        from img2table_ray.imgops.jpeg import decode_jpeg

        return decode_jpeg(data)
    if data[:4] in (b"II*\x00", b"MM\x00*"):
        from img2table_ray.imgops.tiff import decode_tiff

        return decode_tiff(data)
    if data[:6] in (b"GIF87a", b"GIF89a"):
        from img2table_ray.imgops.gif import decode_gif

        return decode_gif(data)
    if data[:4] == b"RIFF" and data[8:12] == b"WEBP":
        from img2table_ray.imgops.webp import decode_webp

        # both lossless (VP8L) and lossy (VP8 keyframe) chunks decode
        return decode_webp(data)
    raise PngError("unsupported image container")
