"""A corrupt header declaring absurd dimensions must raise (an error-row
path) BEFORE any dimension-derived allocation — an OOM-killed worker
fails its whole task and Ray's retry turns one poison document into a
stalled partition, which an error row never does (imgops/limits.py)."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from img2table_ray.imgops.limits import DecodeLimitError, check_dims
from img2table_ray.imgops.png import decode_image


def _chunk(ctype: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + ctype + payload
            + struct.pack(">I", zlib.crc32(ctype + payload)))


def test_check_dims_bounds():
    check_dims(16383, 16383)  # full VP8/VP8L coordinate space stays legal
    with pytest.raises(DecodeLimitError):
        check_dims(0, 100)
    with pytest.raises(DecodeLimitError):
        check_dims(100, -1)
    with pytest.raises(DecodeLimitError):
        check_dims(1 << 14, 1 << 14 + 1)


def test_png_huge_ihdr_rejected():
    ihdr = struct.pack(">IIBBBBB", 1 << 20, 1 << 20, 8, 2, 0, 0, 0)
    data = b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr) + _chunk(b"IEND", b"")
    with pytest.raises(DecodeLimitError):
        decode_image(data)


@pytest.mark.parametrize("cut", [17, 3], ids=["idat_tail", "iend_crc"])
def test_png_cut_short_is_an_error(cut):
    """A PNG whose last chunk, CRC included, runs past the end of the data
    is a read error, as in libpng: cut 17 bytes (IEND and the last 5
    bytes of IDAT) or 3 (of IEND's CRC)."""
    from img2table_ray.fixtures import fixture_bytes
    from img2table_ray.imgops.png import PngError, decode_png, encode_png

    data = encode_png(decode_png(fixture_bytes("test.png")))
    assert decode_png(data).ndim == 3
    with pytest.raises(PngError, match="chunk"):
        decode_png(data[:-cut])


def test_bmp_huge_dims_rejected():
    hdr = bytearray(54)
    hdr[0:2] = b"BM"
    hdr[10:14] = struct.pack("<I", 54)
    hdr[14:18] = struct.pack("<I", 40)
    hdr[18:26] = struct.pack("<ii", 100_000, 100_000)
    hdr[26:28] = struct.pack("<H", 1)
    hdr[28:30] = struct.pack("<H", 24)
    with pytest.raises(DecodeLimitError):
        decode_image(bytes(hdr))


def test_jpeg_huge_sof_rejected():
    sof = struct.pack(">BHHB", 8, 65535, 65535, 1) + bytes([1, 0x11, 0])
    data = (b"\xff\xd8\xff\xc0" + struct.pack(">H", 2 + len(sof)) + sof
            + b"\xff\xd9")
    with pytest.raises(DecodeLimitError):
        decode_image(data)


def test_gif_huge_screen_rejected():
    data = b"GIF89a" + struct.pack("<HHBBB", 65535, 65535, 0, 0, 0) + b"\x3b"
    with pytest.raises(DecodeLimitError):
        decode_image(data)


def test_tiff_huge_dims_rejected():
    # minimal little-endian TIFF: IFD with ImageWidth/ImageLength = 2^20
    def entry(tag, typ, val):
        return struct.pack("<HHI", tag, typ, 1) + struct.pack("<I", val)

    ifd = struct.pack("<H", 4)
    ifd += entry(256, 4, 1 << 20)   # ImageWidth
    ifd += entry(257, 4, 1 << 20)   # ImageLength
    ifd += entry(262, 3, 1)         # Photometric
    ifd += entry(277, 3, 1)         # SamplesPerPixel
    ifd += struct.pack("<I", 0)
    data = b"II*\x00" + struct.pack("<I", 8) + ifd
    with pytest.raises(DecodeLimitError):
        decode_image(data)


def test_limit_is_an_error_row_not_a_task_failure():
    # the stages' error-row contract catches DecodeLimitError like any
    # other corrupt-payload error: the batch still succeeds with a
    # width=-1 row instead of killing the worker
    import pyarrow as pa

    from img2table_ray.pipelines.multimodal import ImageFeatureStage

    bad = b"GIF89a" + struct.pack("<HHBBB", 65535, 65535, 0, 0, 0) + b"\x3b"
    out = ImageFeatureStage()(
        pa.table({"url": ["https://x/poison.gif"], "html": [bad]})
    )
    assert out.num_rows == 1
    assert out["width"].to_pylist() == [-1]


def test_bounded_decompress_truncates_at_expected():
    from img2table_ray.imgops.limits import bounded_decompress

    payload = zlib.compress(b"x" * 1_000_000)
    out = bounded_decompress(payload, expected=1024)
    assert out == b"x" * 1024  # bomb tail never materializes


def test_bounded_decompress_caps_unsized_streams():
    import zlib as z

    from img2table_ray.imgops.limits import (MAX_STREAM_BYTES,
                                             bounded_decompress)

    ok = z.compress(b"y" * 4096)
    assert bounded_decompress(ok) == b"y" * 4096

    co = z.compressobj()
    chunks = [co.compress(b"\x00" * (1 << 20)) for _ in range((MAX_STREAM_BYTES >> 20) + 2)]
    chunks.append(co.flush())
    bomb = b"".join(chunks)
    with pytest.raises(DecodeLimitError):
        bounded_decompress(bomb)


def test_bounded_decompress_rejects_truncated_streams():
    import zlib as z

    from img2table_ray.extract.pdftext import _Stream
    from img2table_ray.imgops.limits import bounded_decompress

    payload = bytes(range(256)) * 64
    whole = z.compress(payload)
    assert bounded_decompress(whole) == payload
    for cut in (1, 4, len(whole) // 2):
        with pytest.raises(DecodeLimitError, match="truncated"):
            bounded_decompress(whole[:-cut])
        # a PDF FlateDecode stream cut short is an error, not short content
        with pytest.raises(DecodeLimitError, match="truncated"):
            _Stream({"Filter": "FlateDecode"}, whole[:-cut]).decoded()


def test_png_deflate_bomb_is_bounded():
    # tiny PNG dims but IDAT that inflates to 100 MB: decode must not
    # materialize the bomb; it fails the normal way or succeeds on the
    # expected prefix, never allocating the tail
    ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 2, 0, 0, 0)
    bomb = zlib.compress(b"\x00" * (100 << 20))
    data = (b"\x89PNG\r\n\x1a\n" + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", bomb) + _chunk(b"IEND", b""))
    img = decode_image(data)  # first 4x(4*3+1) bytes are valid zero scanlines
    assert img.shape == (4, 4, 3)
    assert not img.any()


# An animation keeps one composed canvas per frame, so the frame count
# alone does not bound memory: a small file with a huge canvas and many
# 1x1 frames needs frames x canvas pixels.  The child process runs under
# an address-space limit (its own size + 256 MB) with the pixel cap
# lowered to 2^22, so a decoder without a frames x canvas budget fails
# with MemoryError there instead of exhausting the machine.
_FRAME_BUDGET_CHILD = r"""
import resource, struct, sys
import numpy as np
from img2table_ray.imgops import limits
from img2table_ray.imgops.apng import apng_frames, encode_apng
from img2table_ray.imgops.gif import encode_gif, gif_frames

side = 1024  # 2^20-pixel canvas: 3 MB per RGB frame
px = np.zeros((1, 1, 3), np.uint8)
if sys.argv[1] == "gif":
    block = encode_gif(px)[19:-1]  # one 1x1 image descriptor + data
    data = (b"GIF89a" + struct.pack("<HHBBB", side, side, 0x80, 0, 0)
            + b"\x00" * 6 + block * 1024 + b"\x3b")
    decode = gif_frames
else:
    one = {"img": np.zeros((1, 1, 4), np.uint8), "delay": (1, 10)}
    data = encode_apng((side, side), [one] * 512)
    decode = apng_frames
vm = next(int(line.split()[1]) for line in open("/proc/self/status")
          if line.startswith("VmSize:")) << 10
resource.setrlimit(resource.RLIMIT_AS, (vm + (256 << 20),) * 2)
limits.MAX_PIXELS = 1 << 22
try:
    decode(data)
except limits.DecodeLimitError:
    print("limit")
except MemoryError:
    print("memory")
else:
    print("decoded")
"""


@pytest.mark.parametrize("fmt", ["gif", "apng"])
def test_animation_frames_times_canvas_is_bounded(fmt):
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _FRAME_BUDGET_CHILD, fmt], cwd=repo,
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert out.stdout.split()[-1:] == ["limit"], out.stderr[-2000:]


# A disposal-3 frame restores only its own region, and disposal 2 paints
# the background colour, so the walk holds the working canvas and the
# stored frames, not a background copy and a whole saved canvas beside
# them.  The child prints its peak-RSS growth over one 1x1 disposal-3
# frame on a 4096x4096 canvas (48 MB).  It reads its own VmHWM:
# getrusage's ru_maxrss also counts the forking test process's peak.
_GIF_DISPOSAL_CHILD = r"""
import struct
import numpy as np
from img2table_ray.imgops.gif import encode_gif, gif_frames

def peak_rss():
    return next(int(line.split()[1]) for line in open("/proc/self/status")
                if line.startswith("VmHWM:")) << 10

side = 4096
block = encode_gif(np.zeros((1, 1, 3), np.uint8))[19:-1]
gce = b"\x21\xf9\x04" + bytes([3 << 2, 0, 0, 0]) + b"\x00"
data = (b"GIF89a" + struct.pack("<HHBBB", side, side, 0x80, 0, 0)
        + b"\x00" * 6 + gce + block + b"\x3b")
before = peak_rss()
frames, _ = gif_frames(data)
assert len(frames) == 1 and frames[0].shape == (side, side, 3)
print(peak_rss() - before)
"""


def test_gif_disposal_holds_no_extra_canvas():
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _GIF_DISPOSAL_CHILD], cwd=repo,
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert out.returncode == 0, out.stderr[-2000:]
    canvas = 4096 * 4096 * 3
    # the canvas and the one stored frame; the old walk peaked at ~4
    assert int(out.stdout.split()[-1]) < 2.5 * canvas


# decode_gif fills the logical screen in place: one 1x1 frame on a
# 4096x4096 screen with a global background colour costs one canvas
# (48 MB), not a tiled canvas and its uint8 copy.
_GIF_SCREEN_CHILD = r"""
import struct
import numpy as np
from img2table_ray.imgops.gif import decode_gif, encode_gif

def peak_rss():
    return next(int(line.split()[1]) for line in open("/proc/self/status")
                if line.startswith("VmHWM:")) << 10

side = 4096
block = encode_gif(np.zeros((1, 1, 3), np.uint8))[19:-1]
data = (b"GIF89a" + struct.pack("<HHBBB", side, side, 0x80, 0, 0)
        + bytes([10, 20, 30, 0, 0, 0]) + block + b"\x3b")
before = peak_rss()
img = decode_gif(data)
assert img.shape == (side, side, 3) and img.dtype == np.uint8
assert (img[0, 1] == [10, 20, 30]).all() and (img[-1, -1] == [10, 20, 30]).all()
print(peak_rss() - before)
"""


def test_gif_screen_holds_one_canvas():
    import os
    import subprocess
    import sys

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", _GIF_SCREEN_CHILD], cwd=repo,
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert out.returncode == 0, out.stderr[-2000:]
    canvas = 4096 * 4096 * 3
    # the returned canvas; the tiled form peaked at two
    assert int(out.stdout.split()[-1]) < 1.5 * canvas


# The frame budget counts the working canvas the frames are composed on:
# with a budget of four canvases, three stored frames decode and a fourth
# is refused, in both animation formats.
def _tiny_gif_animation(n_frames: int, side: int = 8) -> bytes:
    from img2table_ray.imgops.gif import encode_gif

    block = encode_gif(np.zeros((1, 1, 3), np.uint8))[19:-1]
    return (b"GIF89a" + struct.pack("<HHBBB", side, side, 0x80, 0, 0)
            + b"\x00" * 6 + block * n_frames + b"\x3b")


def _tiny_apng_animation(n_frames: int, side: int = 8) -> bytes:
    from img2table_ray.imgops.apng import encode_apng

    one = {"img": np.zeros((1, 1, 4), np.uint8), "delay": (1, 10)}
    return encode_apng((side, side), [one] * n_frames)


@pytest.mark.parametrize("fmt", ["gif", "apng"])
def test_animation_budget_counts_the_working_canvas(fmt, monkeypatch):
    from img2table_ray.imgops import limits
    from img2table_ray.imgops.apng import apng_frames
    from img2table_ray.imgops.gif import gif_frames

    build, decode = {"gif": (_tiny_gif_animation, gif_frames),
                     "apng": (_tiny_apng_animation, apng_frames)}[fmt]
    monkeypatch.setattr(limits, "MAX_PIXELS", 4 * 8 * 8)
    frames, _ = decode(build(3))
    assert len(frames) == 3
    with pytest.raises(DecodeLimitError):
        decode(build(4))
