"""VP8 (lossy WebP) codec tests.

No VP8 reference exists in this container (no libwebp/cv2), so
correctness rests on decode(encode(x)) == encoder-reconstruction
bit-exactness — the encoder's recon runs the SAME inverse path
(dequant, IWHT/IDCT, intra prediction, loop filter) the decoder uses,
so an exact match exercises every decoder stage — plus PSNR floors
against the source and spec-structure invariants.  The reference
consumes lossy WebP via cv2.imdecode
(/root/reference/src/img2table/document/image.py:25-32).
"""

import numpy as np
import pytest

from img2table_ray.imgops.png import decode_image
from img2table_ray.imgops.vp8 import (
    BoolDecoder,
    BoolEncoder,
    Vp8Error,
    decode_vp8,
    encode_vp8,
    encode_webp_vp8,
    fdct4x4,
    fwht4x4,
    idct4x4,
    iwht4x4,
    rgb_to_yuv420,
    yuv420_to_rgb,
)
from img2table_ray.imgops.webp import decode_webp


def _psnr(a, b):
    mse = np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2)
    return 10 * np.log10(255.0**2 / max(mse, 1e-12))


def _test_image(h=80, w=112):
    img = np.zeros((h, w, 3), np.uint8)
    yy, xx = np.mgrid[0:h, 0:w]
    img[..., 0] = (xx * 255 // w).astype(np.uint8)
    img[..., 1] = (yy * 255 // h).astype(np.uint8)
    img[..., 2] = 128
    img[20:50, 30:80] = (200, 30, 40)
    img[10:14, 10:100] = 0
    return img


def test_bool_coder_roundtrip():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, 500).tolist()
    probs = rng.integers(1, 255, 500).tolist()
    be = BoolEncoder()
    for b, p in zip(bits, probs):
        be.bool(b, p)
    bd = BoolDecoder(be.flush())
    assert [bd.bool(p) for p in probs] == bits


def test_bool_coder_literals_and_signed():
    be = BoolEncoder()
    be.literal(0x5A, 8)
    be.literal(3, 2)
    be.signed(-17, 6)
    be.signed(9, 6)
    bd = BoolDecoder(be.flush())
    assert bd.literal(8) == 0x5A
    assert bd.literal(2) == 3
    assert bd.signed(6) == -17
    assert bd.signed(6) == 9


def test_forward_inverse_transform_consistency():
    rng = np.random.default_rng(0)
    res = rng.integers(-255, 256, (32, 4, 4)).astype(np.int32)
    assert np.abs(idct4x4(fdct4x4(res)) - res).max() <= 2
    dcs = rng.integers(-2000, 2000, (8, 4, 4)).astype(np.int32)
    assert np.abs(iwht4x4(fwht4x4(dcs)) - dcs).max() <= 4


def test_yuv_roundtrip_quality():
    # yuv420_to_rgb is libwebp's fancy-upsampling + fixed-point pipeline
    # (pinned exactly in test_vp8_interop.py); on this sharp synthetic
    # image the 4:2:0 subsample/fancy-upsample pair caps chroma fidelity
    # around 34.5 dB — the same cap real libwebp shows
    img = _test_image()
    y, u, v = rgb_to_yuv420(img)
    assert _psnr(yuv420_to_rgb(y, u, v), img) > 33
    # luma is untouched by chroma handling: decode Y at q0 stays crisp
    from img2table_ray.imgops.vp8 import decode_vp8, encode_vp8

    bits, _ = encode_vp8(img, qindex=0)
    my, _, _ = decode_vp8(bits, yuv=True)
    assert _psnr(my, np.clip(y, 0, 255).astype(np.uint8)) > 50


@pytest.mark.parametrize("qindex,use_bpred", [(0, False), (20, False),
                                              (60, False), (20, True)])
def test_roundtrip_bit_exact(qindex, use_bpred):
    img = _test_image()
    bits, recon = encode_vp8(img, qindex=qindex, use_bpred=use_bpred)
    out = decode_vp8(bits)
    assert np.array_equal(out, recon)


def test_quality_floors():
    # floors sit just under the ~34.5 dB chroma-upsampling cap (see
    # test_yuv_roundtrip_quality); they guard gross breakage
    img = _test_image()
    _, r0 = encode_vp8(img, qindex=0)
    _, r20 = encode_vp8(img, qindex=20)
    assert _psnr(r0, img) > 33
    assert _psnr(r20, img) > 31


def test_odd_dimensions_and_grayscale():
    img = _test_image()[:77, :101]
    bits, recon = encode_vp8(img, qindex=30)
    out = decode_vp8(bits)
    assert out.shape == (77, 101, 3)
    assert np.array_equal(out, recon)
    gray = _test_image()[..., 0]
    bits, recon = encode_vp8(gray, qindex=30)
    assert np.array_equal(decode_vp8(bits), recon)


def test_skip_macroblocks_constant_image():
    img = np.full((48, 64, 3), 77, np.uint8)
    bits, recon = encode_vp8(img, qindex=40)
    out = decode_vp8(bits)
    assert np.array_equal(out, recon)
    # a constant image should compress to almost nothing (all MBs skipped)
    assert len(bits) < 200
    assert _psnr(recon, img) > 40


def test_loop_filter_runs_and_is_shared():
    # the filtered and unfiltered streams must both round-trip exactly,
    # and differ from each other (proves the filter actually ran)
    rng = np.random.default_rng(9)
    img = rng.integers(0, 256, (48, 48, 3), dtype=np.uint8)
    b1, r1 = encode_vp8(img, qindex=70)  # default level = qindex//2
    b0, r0 = encode_vp8(img, qindex=70, filter_level=0)
    assert np.array_equal(decode_vp8(b1), r1)
    assert np.array_equal(decode_vp8(b0), r0)
    assert not np.array_equal(r1, r0)


def test_webp_container_dispatch():
    img = _test_image(48, 64)
    data, recon = encode_webp_vp8(img, qindex=25)
    assert np.array_equal(decode_webp(data), recon)
    assert np.array_equal(decode_image(data), recon)


def test_frame_errors():
    img = _test_image(32, 32)
    bits, _ = encode_vp8(img, qindex=40)
    with pytest.raises(Vp8Error):
        decode_vp8(bits[:8])  # truncated uncompressed header
    bad = bytearray(bits)
    bad[0] |= 1  # interframe flag
    with pytest.raises(Vp8Error):
        decode_vp8(bytes(bad))
    bad = bytearray(bits)
    bad[3] ^= 0xFF  # start code
    with pytest.raises(Vp8Error):
        decode_vp8(bytes(bad))


def _webp(payload: bytes) -> bytes:
    import struct

    chunk = b"VP8 " + struct.pack("<I", len(payload)) + payload
    if len(payload) & 1:
        chunk += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(chunk)) + b"WEBP" + chunk


def test_header_larger_than_its_data_raises_early():
    """A valid 16x16 stream whose header is patched to the legal maximum
    of 16383x16383 (1024x1024 MBs): the partitions run dry after a few
    MBs, and the decoder stops there instead of decoding a full page of
    zero-fed MBs, before any frame-sized allocation."""
    import time
    import tracemalloc

    from img2table_ray.imgops.webp import WebpError

    bits, _ = encode_vp8(_test_image(16, 16), qindex=40)
    bad = bytearray(bits)
    bad[6:10] = (16383).to_bytes(2, "little") * 2
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(Vp8Error, match="premature end"):
            decode_vp8(bytes(bad))
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 5.0
    assert peak < 32 << 20  # the Y surface alone would be 1 GiB
    with pytest.raises(WebpError, match="premature end"):
        decode_webp(_webp(bytes(bad)))


@pytest.mark.parametrize("qindex", [5, 40, 100])
@pytest.mark.parametrize("kind", ["random", "constant", "bpred"])
def test_valid_streams_end_within_their_data(qindex, kind):
    """The truncation check passes every complete stream: none reads
    past the end of its partitions."""
    rng = np.random.default_rng(qindex)
    if kind == "constant":
        img = np.full((40, 56, 3), 77, np.uint8)
    else:
        img = rng.integers(0, 256, (40, 56, 3), dtype=np.uint8)
    bits, recon = encode_vp8(img, qindex=qindex, use_bpred=kind == "bpred")
    assert np.array_equal(decode_vp8(bits), recon)
