"""Microsoft RLE8 bitmap compression (BI_RLE8, biCompression=1).

The run-length coding used by palettized BMP/DIB and the classic
``mrle`` AVI codec, implemented from the public Windows BITMAPINFO
documentation.  The reference repo has no video support; this feeds
``pipelines/multimodal.py:VideoFrameSampleStage`` (RIFF/AVI demux),
closing another intra-frame-only codec that needs no external library.

Stream grammar (bottom-up rows): pairs ``(count, value)`` —
``count>0`` repeats ``value`` count times; ``count==0`` escapes:
value 0 = end of line, 1 = end of bitmap, 2 = delta (next two bytes
move the cursor right/up), >=3 = absolute run of that many literal
bytes padded to a word boundary.

Scale shape: decode is O(runs) Python with numpy slice assignment per
run (a run, not a pixel, is the unit of work — typical RLE frames are
a few hundred runs).  It executes only for the handful of SAMPLED
frames per clip inside the stage, never per frame of a
whole video.  The encoder is a fixture builder.
"""

from __future__ import annotations

import numpy as np


def rle8_decode(data: bytes, width: int, height: int) -> np.ndarray:
    """Decode one BI_RLE8 frame -> (height, width) uint8 palette indices
    in bottom-up row order (row 0 of the output = BOTTOM scanline, as
    stored; the caller flips for display, same as uncompressed DIB)."""
    out = np.zeros((height, width), np.uint8)
    x = y = 0
    pos = 0
    n = len(data)
    while pos + 1 < n:
        cnt = data[pos]
        val = data[pos + 1]
        pos += 2
        if cnt > 0:  # encoded run
            end = min(x + cnt, width)
            if y < height:
                out[y, x:end] = val
            x = end
        elif val == 0:  # end of line
            x, y = 0, y + 1
        elif val == 1:  # end of bitmap
            break
        elif val == 2:  # delta
            if pos + 1 >= n:
                break
            x = min(x + data[pos], width)
            y += data[pos + 1]
            pos += 2
        else:  # absolute run of `val` literal bytes, word-padded
            take = data[pos : pos + val]
            end = min(x + val, width)
            if y < height and len(take) >= end - x:
                out[y, x:end] = np.frombuffer(take, np.uint8)[: end - x]
            x = end
            pos += val + (val & 1)
        if y >= height:
            break
    return out


def rle8_encode(indices: np.ndarray) -> bytes:
    """Encode (height, width) uint8 palette indices (bottom-up order)
    into a BI_RLE8 stream (fixture builder: encoded runs + EOL per row,
    EOD at the end; no deltas or absolute runs emitted)."""
    out = bytearray()
    for row in indices:
        x = 0
        w = len(row)
        while x < w:
            run = 1
            while x + run < w and run < 255 and row[x + run] == row[x]:
                run += 1
            out += bytes((run, int(row[x])))
            x += run
        out += b"\x00\x00"  # end of line
    out += b"\x00\x01"  # end of bitmap
    return bytes(out)
