"""APNG (animated PNG) frame decode + compositing — pure numpy/stdlib.

Animated PNG is the other codec-free animation format the web actually
serves (alongside animated GIF, already handled in ``imgops/gif.py``).
The format is the PNG Third Edition animation chunk set:

* ``acTL`` (before ``IDAT``): num_frames, num_plays.
* ``fcTL`` per frame: sequence_number, region width/height/x/y, delay
  fraction (num/den, den 0 -> 100), dispose_op, blend_op.
* frame data: the first animation frame uses ``IDAT`` when its ``fcTL``
  precedes ``IDAT``; later frames use ``fdAT`` (sequence_number + data,
  possibly split across several chunks).  ``fcTL`` and ``fdAT`` share one
  consecutive sequence counter.
* an ``IDAT`` NOT preceded by an ``fcTL`` is the still "default image"
  and is not part of the animation.

Compositing (spec behavior, same model browsers implement):

* canvas starts fully transparent black.
* blend_op SOURCE(0) replaces the region incl. alpha; OVER(1) alpha-
  composites (out = src + dst * (1 - src_a)).
* dispose_op after display: NONE(0) keep; BACKGROUND(1) clear the
  region to transparent; PREVIOUS(2) revert the region to its content
  before this frame (first frame: treated as BACKGROUND).

Returned frames are the composited canvases flattened to RGB over black
(the same alpha-drop convention as ``decode_png`` on RGBA stills).
"""

from __future__ import annotations

import struct

import numpy as np

from img2table_ray.imgops.limits import check_frames
from img2table_ray.imgops.png import (_SIG, PngError, _chunk, _header, _idat,
                                      _walk_chunks, unfilter_idat)

DISPOSE_NONE, DISPOSE_BACKGROUND, DISPOSE_PREVIOUS = 0, 1, 2
BLEND_SOURCE, BLEND_OVER = 0, 1


def is_apng(data: bytes) -> bool:
    """True when ``data`` is a PNG whose acTL precedes IDAT (= animated)."""
    if data[:8] != _SIG:
        return False
    try:
        for ctype, _ in _walk_chunks(data):
            if ctype == b"acTL":
                return True
            if ctype == b"IDAT":
                return False
    except (PngError, struct.error):
        return False
    return False


def _to_rgba(img: np.ndarray, color_type: int, palette, trns) -> np.ndarray:
    h, w, c = img.shape
    out = np.empty((h, w, 4), np.uint8)
    if color_type == 0:  # gray
        out[:, :, :3] = img
        out[:, :, 3] = 255
    elif color_type == 2:  # RGB
        out[:, :, :3] = img
        out[:, :, 3] = 255
    elif color_type == 3:  # palette (+ optional tRNS alpha table)
        if palette is None:
            raise PngError("palette frame without PLTE")
        idx = img[:, :, 0]
        out[:, :, :3] = palette[idx]
        if trns is not None:
            alpha = np.full(256, 255, np.uint8)
            alpha[: len(trns)] = np.frombuffer(trns, np.uint8)
            out[:, :, 3] = alpha[idx]
        else:
            out[:, :, 3] = 255
    elif color_type == 4:  # gray + alpha
        out[:, :, :3] = img[:, :, :1]
        out[:, :, 3] = img[:, :, 1]
    else:  # 6: RGBA
        out[:] = img
    return out


def apng_frames(data: bytes, max_frames: int = 512
                ) -> tuple[list[np.ndarray], list[float]]:
    """Decode an APNG -> (composited RGB frames, per-frame delays in s).
    The frames and the working canvas together may hold at most
    ``MAX_PIXELS`` pixels."""
    if data[:8] != _SIG:
        raise PngError("not a PNG file")
    ihdr = None
    palette = trns = None
    num_frames = None
    # collected animation stream: list of (fctl, [data chunks])
    fctls: list[tuple] = []
    datas: list[list[bytes]] = []
    seen_idat = False
    idat_is_frame = False
    next_seq = 0

    for ctype, chunk in _walk_chunks(data):
        if ctype == b"IHDR":
            ihdr = chunk
        elif ctype == b"PLTE":
            palette = np.frombuffer(chunk, np.uint8)
            palette = palette[: len(palette) // 3 * 3].reshape(-1, 3)
        elif ctype == b"tRNS":
            trns = chunk
        elif ctype == b"acTL":
            num_frames, _plays = struct.unpack(">II", chunk[:8])
        elif ctype == b"fcTL":
            (seq, fw, fh, fx, fy, dnum, dden, dop, bop) = struct.unpack(
                ">IIIIIHHBB", chunk[:26])
            if seq != next_seq:
                raise PngError("APNG sequence gap")
            next_seq += 1
            if len(fctls) >= max_frames:
                # cap reached: stop collecting; frames already gathered
                # (with their data) still decode
                break
            fctls.append((fw, fh, fx, fy, dnum, dden, dop, bop))
            datas.append([])
        elif ctype == b"IDAT":
            if not seen_idat:
                # decided once, at the FIRST IDAT: it is animation frame 0
                # iff exactly one fcTL precedes it (else it is the still
                # default image, not part of the animation)
                idat_is_frame = len(fctls) == 1
            seen_idat = True
            if idat_is_frame:
                datas[0].append(chunk)
        elif ctype == b"fdAT":
            if len(chunk) < 4 or not fctls:
                raise PngError("orphan fdAT")
            (seq,) = struct.unpack(">I", chunk[:4])
            if seq != next_seq:
                raise PngError("APNG sequence gap")
            next_seq += 1
            datas[-1].append(chunk[4:])

    if ihdr is None or num_frames is None or not seen_idat:
        raise PngError("not an APNG (missing IHDR/acTL/IDAT)")
    width, height, color_type, channels = _header(ihdr, "APNG")
    check_frames(len(fctls), width, height, "APNG animation")

    canvas = np.zeros((height, width, 4), np.uint8)
    frames: list[np.ndarray] = []
    delays: list[float] = []
    for (fw, fh, fx, fy, dnum, dden, dop, bop), parts in zip(fctls, datas):
        if not parts:
            raise PngError("fcTL without frame data")
        if fx + fw > width or fy + fh > height or fw == 0 or fh == 0:
            raise PngError("frame region outside canvas")
        region = _to_rgba(
            unfilter_idat(b"".join(parts), fw, fh, channels),
            color_type, palette, trns,
        )
        if dop == DISPOSE_PREVIOUS:
            saved = canvas[fy : fy + fh, fx : fx + fw].copy()
        dst = canvas[fy : fy + fh, fx : fx + fw]
        if bop == BLEND_OVER:
            sa = region[:, :, 3:4].astype(np.float64) / 255.0
            da = dst[:, :, 3:4].astype(np.float64) / 255.0
            oa = sa + da * (1.0 - sa)
            rgb = (region[:, :, :3] * sa + dst[:, :, :3] * da * (1.0 - sa))
            with np.errstate(invalid="ignore"):
                rgb = np.where(oa > 0, rgb / np.maximum(oa, 1e-12), 0.0)
            dst[:, :, :3] = np.clip(rgb + 0.5, 0, 255).astype(np.uint8)
            dst[:, :, 3] = np.clip(oa[:, :, 0] * 255.0 + 0.5, 0, 255
                                   ).astype(np.uint8)
        else:
            dst[:] = region

        shown = canvas.copy()
        a = shown[:, :, 3:4].astype(np.uint16)
        rgb_over_black = (shown[:, :, :3].astype(np.uint16) * a // 255
                          ).astype(np.uint8)
        frames.append(rgb_over_black)
        dden = dden or 100
        delays.append(dnum / dden)

        if dop == DISPOSE_BACKGROUND or (dop == DISPOSE_PREVIOUS
                                         and len(frames) == 1):
            canvas[fy : fy + fh, fx : fx + fw] = 0
        elif dop == DISPOSE_PREVIOUS:
            canvas[fy : fy + fh, fx : fx + fw] = saved
    if not frames:
        raise PngError("APNG with no animation frames")
    return frames, delays


def encode_apng(canvas_size: tuple[int, int],
                frames: list[dict]) -> bytes:
    """Build an APNG from RGBA frame specs (test/corpus fixture writer).

    ``frames``: dicts with ``img`` (h, w, 4 uint8), ``x``, ``y``,
    ``delay`` ((num, den)), ``dispose``, ``blend``.  The first frame is
    written as IDAT (its fcTL precedes IDAT), the rest as fdAT.
    """
    cw, ch = canvas_size
    out = [_SIG, _chunk(b"IHDR", struct.pack(">IIBBBBB", cw, ch, 8, 6,
                                            0, 0, 0))]
    out.append(_chunk(b"acTL", struct.pack(">II", len(frames), 0)))
    seq = 0
    for i, f in enumerate(frames):
        img = f["img"]
        h, w, _ = img.shape
        dnum, dden = f.get("delay", (1, 10))
        out.append(_chunk(b"fcTL", struct.pack(
            ">IIIIIHHBB", seq, w, h, f.get("x", 0), f.get("y", 0),
            dnum, dden, f.get("dispose", DISPOSE_NONE),
            f.get("blend", BLEND_SOURCE))))
        seq += 1
        payload = _idat(img)
        if i == 0:
            out.append(_chunk(b"IDAT", payload))
        else:
            out.append(_chunk(b"fdAT", struct.pack(">I", seq) + payload))
            seq += 1
    out.append(_chunk(b"IEND", b""))
    return b"".join(out)
