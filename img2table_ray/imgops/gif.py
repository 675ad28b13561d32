"""GIF87a/89a decoder (pure stdlib/numpy): pages and animations.

One block walk (``_walk``) parses the header, global/local color tables,
the 89a graphic control extension (transparency, delay, disposal), the
LZW image data (LSB-first variant in imgops/lzw.py) and interlacing, and
lazily yields each image descriptor's palette indices.  Two compositors
sit on it:

* ``decode_gif`` — a document page: only the first image decodes
  ("a page is one image"), and a transparent index renders as white
  (documents composite on a white page; the reference's cv2.imdecode
  path returns None for GIF, so this is capability BEYOND reference
  parity, kept deterministic).  Output: (H, W, 3) uint8 RGB at the
  logical-screen size (an image smaller than the screen is placed at its
  (left, top) on a background-color canvas).
* ``gif_frames`` — animation for the video stage: every frame composed
  with the 89a disposal rules.

Spec: GIF89a (CompuServe/W3C, 1990).
"""

from __future__ import annotations

import struct
from itertools import islice
from typing import NamedTuple

import numpy as np

from img2table_ray.imgops.limits import check_dims, check_frames
from img2table_ray.imgops.lzw import LzwError, lzw_decode_gif


class GifError(ValueError):
    pass


class _Image(NamedTuple):
    """One image descriptor: its place on the logical screen, its
    de-interlaced palette indices and color table, and the fields of the
    graphic control extension that precedes it."""

    left: int
    top: int
    w: int
    h: int
    idx: np.ndarray
    ct: np.ndarray
    transparent: int | None
    delay_cs: int
    disposal: int


def _walk(data: bytes):
    """Parse the header -> (sw, sh, bg_idx, gct, images), where
    ``images`` lazily yields one ``_Image`` per image descriptor: a
    caller that stops early never parses (or LZW-decodes) the rest."""
    if data[:6] not in (b"GIF87a", b"GIF89a"):
        raise GifError("not a GIF file")
    if len(data) < 13:
        raise GifError("truncated GIF header")
    sw, sh, packed, bg_idx, _aspect = struct.unpack("<HHBBB", data[6:13])
    check_dims(sw, sh, "GIF screen")
    pos = 13
    gct = None
    if packed & 0x80:
        n = 2 << (packed & 0x07)
        gct = np.frombuffer(data[pos : pos + 3 * n], np.uint8)
        if len(gct) < 3 * n:
            raise GifError("truncated global color table")
        gct = gct.reshape(n, 3)
        pos += 3 * n
    return sw, sh, bg_idx, gct, _images(data, pos, sw, sh, gct)


def _images(data: bytes, pos: int, sw: int, sh: int, gct):
    transparent: int | None = None
    delay_cs = disposal = 0
    while pos < len(data):
        block = data[pos]
        pos += 1
        if block == 0x3B:  # trailer
            return
        if block == 0x21:  # extension: label + sub-blocks
            if pos >= len(data):
                raise GifError("truncated extension")
            label = data[pos]
            pos += 1
            subs = []
            while pos < len(data) and data[pos] != 0:
                ln = data[pos]
                subs.append(data[pos + 1 : pos + 1 + ln])
                pos += 1 + ln
            pos += 1  # block terminator
            if label == 0xF9 and subs and len(subs[0]) >= 4:
                gce = subs[0]  # graphic control
                disposal = (gce[0] >> 2) & 0x07
                transparent = gce[3] if gce[0] & 0x01 else None
                delay_cs = gce[1] | (gce[2] << 8)
            continue
        if block != 0x2C:
            raise GifError(f"unexpected GIF block 0x{block:02x}")

        # image descriptor
        left, top, w, h, ipacked = struct.unpack("<HHHHB", data[pos : pos + 9])
        check_dims(w, h, "GIF frame")
        pos += 9
        ct = gct
        if ipacked & 0x80:
            n = 2 << (ipacked & 0x07)
            ct = np.frombuffer(data[pos : pos + 3 * n], np.uint8)
            if len(ct) < 3 * n:
                raise GifError("truncated local color table")
            ct = ct.reshape(n, 3)
            pos += 3 * n
        if ct is None:
            raise GifError("GIF image without a color table")
        if left + w > sw or top + h > sh:
            raise GifError("GIF frame outside logical screen")

        if pos >= len(data):
            raise GifError("missing GIF image data")
        min_code_size = data[pos]
        pos += 1
        chunks = []
        while pos < len(data) and data[pos] != 0:
            ln = data[pos]
            chunks.append(data[pos + 1 : pos + 1 + ln])
            pos += 1 + ln
        pos += 1  # image-data block terminator
        try:
            raw = lzw_decode_gif(b"".join(chunks), min_code_size,
                                 max_out=w * h)
        except LzwError as err:
            raise GifError(f"bad GIF LZW stream: {err}") from err
        if len(raw) < w * h:
            raise GifError("short GIF pixel data")
        idx = np.frombuffer(raw[: w * h], np.uint8).reshape(h, w)
        if ipacked & 0x40:  # interlaced: 4 passes
            de = np.empty_like(idx)
            rows = np.concatenate([np.arange(0, h, 8), np.arange(4, h, 8),
                                   np.arange(2, h, 4), np.arange(1, h, 2)])
            de[rows] = idx
            idx = de
        if int(idx.max()) >= len(ct):
            raise GifError("GIF pixel index outside color table")
        yield _Image(left, top, w, h, idx, ct, transparent, delay_cs,
                     disposal)
        transparent = None
        delay_cs = disposal = 0


def decode_gif(data: bytes) -> np.ndarray:
    """First image as a page: transparent pixels show as white."""
    sw, sh, bg_idx, gct, images = _walk(data)
    im = next(images, None)
    if im is None:
        raise GifError("GIF contains no image data")
    rgb = im.ct[im.idx]
    if im.transparent is not None and im.transparent < len(im.ct):
        rgb = np.where((im.idx == im.transparent)[:, :, None],
                       np.uint8(255), rgb)

    # place on the logical screen (background color; white if the
    # background index is out of table or transparent)
    if (im.left, im.top, im.w, im.h) == (0, 0, sw, sh):
        return np.ascontiguousarray(rgb)
    canvas = np.empty((sh, sw, 3), np.uint8)
    if gct is not None and bg_idx < len(gct) and bg_idx != im.transparent:
        canvas[:] = gct[bg_idx]
    else:
        canvas[:] = 255
    canvas[im.top : im.top + im.h, im.left : im.left + im.w] = rgb
    return canvas


# ---- encode (tests + synthetic corpus rows) ------------------------------

def _lzw_encode_gif(indices: bytes, min_code_size: int) -> bytes:
    clear = 1 << min_code_size
    end = clear + 1
    out = bytearray()
    acc = 0
    nbits = 0

    def emit(code: int, width: int) -> None:
        nonlocal acc, nbits
        acc |= code << nbits
        nbits += width
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8

    def fresh() -> dict[bytes, int]:
        return {bytes((i,)): i for i in range(clear)}

    table = fresh()
    next_code = end + 1
    width = min_code_size + 1
    emit(clear, width)
    cur = b""
    for byte in indices:
        nxt = cur + bytes((byte,))
        if nxt in table:
            cur = nxt
            continue
        emit(table[cur], width)
        table[nxt] = next_code
        next_code += 1
        # decoder's table lags by one entry: it bumps at size 2^w, so the
        # encoder bumps at next_code == 2^w + 1 (no early change in GIF)
        if next_code == (1 << width) + 1 and width < 12:
            width += 1
        if next_code >= 4096:
            emit(clear, width)
            table = fresh()
            next_code = end + 1
            width = min_code_size + 1
        cur = bytes((byte,))
    if cur:
        emit(table[cur], width)
    emit(end, width)
    if nbits:
        out.append(acc & 0xFF)
    return bytes(out)


def encode_gif(arr: np.ndarray, interlace: bool = False) -> bytes:
    """(H,W) gray or (H,W,3) RGB uint8 with <=256 distinct colors -> GIF89a."""
    if arr.ndim == 2:
        arr = np.repeat(arr[:, :, None], 3, axis=2)
    h, w, _ = arr.shape
    flat = arr.reshape(-1, 3)
    colors, inverse = np.unique(flat, axis=0, return_inverse=True)
    if len(colors) > 256:
        raise GifError(f"{len(colors)} colors: quantize before GIF encode")
    depth = max(1, int(np.ceil(np.log2(max(2, len(colors))))))
    n = 1 << depth
    palette = np.zeros((n, 3), np.uint8)
    palette[: len(colors)] = colors
    idx = inverse.astype(np.uint8).reshape(h, w)
    if interlace:
        rows = np.concatenate([np.arange(0, h, 8), np.arange(4, h, 8),
                               np.arange(2, h, 4), np.arange(1, h, 2)])
        idx = idx[rows]

    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0x80 | (depth - 1), 0, 0)
    out += palette.tobytes()
    out += b"\x2c" + struct.pack("<HHHHB", 0, 0, w, h,
                                 0x40 if interlace else 0x00)
    mcs = max(2, depth)
    out.append(mcs)
    stream = _lzw_encode_gif(idx.tobytes(), mcs)
    for i in range(0, len(stream), 255):
        chunk = stream[i : i + 255]
        out.append(len(chunk))
        out += chunk
    out += b"\x00\x3b"
    return bytes(out)


# ---- animation (round 5: GIF-as-video for the multimodal stage) -----------

def gif_frames(data: bytes, max_frames: int = 1024):
    """Decode EVERY frame of an (animated) GIF with the 89a compositing
    rules -> (frames, delays_cs): frames are composed (H, W, 3) RGB
    canvases, delays the per-frame GCE delay in centiseconds (0 when
    absent).  Disposal methods per the spec: 0/1 leave the canvas, 2
    restores the frame's region to background, 3 restores the previous
    canvas; a transparent pixel keeps the canvas under it.  The frames
    and the working canvas together may hold at most ``MAX_PIXELS``
    pixels.  This walk exists for ``VideoFrameSampleStage`` (animated GIF
    is the most common web "video" that needs no external codec)."""
    sw, sh, bg_idx, gct, images = _walk(data)
    background = gct[bg_idx] if gct is not None and bg_idx < len(gct) else 255
    canvas = np.empty((sh, sw, 3), np.uint8)
    canvas[:] = background

    frames: list[np.ndarray] = []
    delays: list[int] = []
    for im in islice(images, max_frames):
        check_frames(len(frames) + 1, sw, sh, "GIF animation")
        ys = slice(im.top, im.top + im.h)
        xs = slice(im.left, im.left + im.w)
        if im.disposal == 3:
            saved = canvas[ys, xs].copy()
        rgb = im.ct[im.idx]
        if im.transparent is not None and im.transparent < len(im.ct):
            rgb = np.where((im.idx == im.transparent)[:, :, None],
                           canvas[ys, xs], rgb)
        canvas[ys, xs] = rgb
        frames.append(canvas.copy())
        delays.append(im.delay_cs)
        if im.disposal == 2:
            canvas[ys, xs] = background
        elif im.disposal == 3:
            canvas[ys, xs] = saved
    if not frames:
        raise GifError("GIF contains no image data")
    return frames, delays


def encode_gif_anim(frames: "list[np.ndarray]", delays_cs: "list[int]",
                    disposal: int = 1) -> bytes:
    """Full-frame animated GIF89a fixture builder: a shared palette is
    built from all frames' colors; every frame is a full logical-screen
    image descriptor with a GCE carrying its delay."""
    if not frames:
        raise GifError("no frames")
    arrs = [np.repeat(a[:, :, None], 3, 2) if a.ndim == 2 else a
            for a in frames]
    h, w, _ = arrs[0].shape
    flat = np.concatenate([a.reshape(-1, 3) for a in arrs])
    colors, inverse = np.unique(flat, axis=0, return_inverse=True)
    if len(colors) > 256:
        raise GifError(f"{len(colors)} colors: quantize before GIF encode")
    depth = max(1, int(np.ceil(np.log2(max(2, len(colors))))))
    n = 1 << depth
    palette = np.zeros((n, 3), np.uint8)
    palette[: len(colors)] = colors
    per = w * h
    out = bytearray(b"GIF89a")
    out += struct.pack("<HHBBB", w, h, 0x80 | (depth - 1), 0, 0)
    out += palette.tobytes()
    # NETSCAPE2.0 loop-forever extension (standard for animation)
    out += b"\x21\xff\x0bNETSCAPE2.0\x03\x01\x00\x00\x00"
    mcs = max(2, depth)
    for f, arr in enumerate(arrs):
        idx = inverse[f * per : (f + 1) * per].astype(np.uint8).reshape(h, w)
        delay = int(delays_cs[f]) if f < len(delays_cs) else 0
        out += b"\x21\xf9\x04" + bytes(((disposal & 7) << 2,
                                        delay & 0xFF, delay >> 8, 0, 0))
        out += b"\x2c" + struct.pack("<HHHHB", 0, 0, w, h, 0x00)
        out.append(mcs)
        stream = _lzw_encode_gif(idx.tobytes(), mcs)
        for i in range(0, len(stream), 255):
            chunk = stream[i : i + 255]
            out.append(len(chunk))
            out += chunk
        out += b"\x00"
    out += b"\x3b"
    return bytes(out)
