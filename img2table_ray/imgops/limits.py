"""Decode-side resource limits.

A corrupt (or hostile) header can declare absurd dimensions: a flipped
bit in a GIF logical-screen field means a 65535x65535 canvas — a 12.9 GB
allocation.  On an overcommitting kernel ``np.zeros``/``np.full`` of that
size SUCCEEDS lazily and the decode loop then faults pages in until the
worker is OOM-killed; unlike a raised error (which the pipelines turn
into an error row), an OOM kill fails the whole task, Ray retries it,
and the one poison document stalls its partition forever.  Every decoder
therefore validates header dimensions against ``MAX_PIXELS`` BEFORE its
first dimension-derived allocation and raises ``DecodeLimitError`` — a
``ValueError``, so every existing error-row path catches it.

The lossy WebP (VP8) decoder relies on a truncation guard instead: its
full 14-bit space (16383x16383) is legal and under the cap, so no
dimension check can refuse a 56-byte stream that declares it.  It parses
every macroblock before allocating its frame-sized surfaces, and raises
``Vp8Error`` (``WebpError`` from ``decode_webp``) as soon as a partition
reader runs past its data, checked per macroblock.

The cap is 2^28 pixels (268 Mpx, ~800 MB as RGB): the full 14-bit VP8 /
VP8L coordinate space stays legal, 200-DPI renders of any plausible page
fit with two orders of magnitude to spare, and the uint16/uint32
dimension fields that corrupt headers actually produce are rejected.
"""

from __future__ import annotations

MAX_PIXELS = 1 << 28


class DecodeLimitError(ValueError):
    pass


def check_dims(width: int, height: int, what: str = "image") -> None:
    """Reject non-positive or implausibly large raster dimensions."""
    if width <= 0 or height <= 0:
        raise DecodeLimitError(f"{what}: bad dimensions {width}x{height}")
    if width * height > MAX_PIXELS:
        raise DecodeLimitError(
            f"{what}: {width}x{height} exceeds {MAX_PIXELS} pixel cap"
        )


def check_frames(n_frames: int, width: int, height: int,
                 what: str = "animation") -> None:
    """Reject an animation whose composed frames (one full canvas each),
    with the working canvas they are composed on, would together hold more
    than ``MAX_PIXELS`` pixels."""
    if (n_frames + 1) * width * height > MAX_PIXELS:
        raise DecodeLimitError(
            f"{what}: {n_frames} frames of {width}x{height} exceed "
            f"{MAX_PIXELS} pixel cap"
        )


MAX_STREAM_BYTES = 1 << 30


def bounded_decompress(data: bytes, expected: int | None = None,
                       what: str = "stream") -> bytes:
    """zlib-decompress with an output bound (deflate-bomb guard: a 1 KB
    stream can legally expand ~1000x per level, so ``zlib.decompress``
    on untrusted bytes is an unbounded allocation).

    With ``expected`` (PNG scanlines, TIFF strips — the consumer uses at
    most that many bytes), decompression simply STOPS at ``expected``
    bytes: byte-identical to the old decompress-then-slice for every
    well-formed stream, without materializing a bomb's tail.  Without it
    (PDF streams, where no a-priori size exists), a stream that has not
    ended within ``MAX_STREAM_BYTES`` of output raises ``DecodeLimitError``
    instead.  So does a stream cut short, as with ``zlib.decompress``:
    its partial output would read as silently short content.
    """
    import zlib

    d = zlib.decompressobj()
    if expected is not None:
        return d.decompress(data, expected)
    out = d.decompress(data, MAX_STREAM_BYTES)
    if not d.eof:
        if len(out) == MAX_STREAM_BYTES:
            raise DecodeLimitError(
                f"{what}: decompressed output exceeds {MAX_STREAM_BYTES} bytes"
            )
        raise DecodeLimitError(f"{what}: truncated deflate stream")
    return out
