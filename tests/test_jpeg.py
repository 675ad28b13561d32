"""JPEG codec tests: decoder structure/roundtrip + the reference's
title-extraction golden, which runs the full blur/threshold/contour chain
over a REAL baseline-JPEG fixture decoded by our pure-numpy decoder
(reference: tests/tables/processing/text/test_titles.py — asserts the
title text cv2-decoded pixels produce)."""

import json

import numpy as np
import pytest

from img2table_ray.fixtures import fixture_bytes, fixture_path
from img2table_ray.imgops.jpeg import JpegError, decode_jpeg, encode_jpeg


def test_decode_fixture_structure():
    img = decode_jpeg(fixture_bytes("titles.jpg"))
    assert img.shape == (698, 1069, 3)
    assert img.dtype == np.uint8
    # document scan: mostly white background
    assert img.mean() > 200


def test_roundtrip_color_and_gray():
    img = np.full((40, 56, 3), 210, np.uint8)
    img[8:20, 10:40] = [40, 60, 80]
    dec = decode_jpeg(encode_jpeg(img, quality=92))
    assert dec.shape == img.shape
    assert np.abs(dec.astype(int) - img.astype(int)).mean() < 4

    ramp = np.tile(np.arange(64, dtype=np.uint8) * 4, (24, 1))
    decg = decode_jpeg(encode_jpeg(ramp, quality=95))
    assert decg.shape == (24, 64)
    assert np.abs(decg.astype(int) - ramp.astype(int)).max() <= 1


def test_odd_dimensions_and_subsampling_crop():
    img = np.full((33, 47, 3), 127, np.uint8)
    img[:, ::3] = [250, 10, 90]
    dec = decode_jpeg(encode_jpeg(img, quality=80))
    assert dec.shape == (33, 47, 3)


def test_progressive_decode_identity():
    """Progressive (SOF2) decoding: transcode the real fixture's QUANTIZED
    COEFFICIENTS into multi-scan progressive streams (encoder from T.81
    §G.1.2, decoder from §G.2) — pixels must come out bit-identical to the
    baseline decode since coefficients are preserved exactly.

    al=1 exercises DC/AC successive-approximation first + refinement scans
    (correction bits, EOBRUN, newly-nonzero placement); al=0 exercises
    spectral-selection-only with EOBn runs."""
    from img2table_ray.imgops.jpeg import transcode_to_progressive

    data = fixture_bytes("titles.jpg")
    base = decode_jpeg(data)
    for al in (1, 0):
        prog = transcode_to_progressive(data, al=al)
        assert np.array_equal(decode_jpeg(prog), base), f"al={al}"


def test_progressive_gray_two_levels():
    from img2table_ray.imgops.jpeg import transcode_to_progressive

    g = np.tile(np.arange(48, dtype=np.uint8) * 5, (40, 1))
    gb = encode_jpeg(g, quality=90)
    gbase = decode_jpeg(gb)
    gp = transcode_to_progressive(gb, al=2)  # two chained refinement levels
    assert np.array_equal(decode_jpeg(gp), gbase)


def test_unsupported_sof_rejected():
    # lossless SOF3: explicit error, not wrong pixels.  (SOF9/SOF10
    # arithmetic used to be in this class; since imgops/jpega.py they
    # decode — see tests/test_jpeg_arith.py.)
    bad = (b"\xff\xd8" + b"\xff\xc3" + b"\x00\x0b" + b"\x08\x00\x10\x00\x10"
           b"\x01\x01\x11\x00" + b"\xff\xd9")
    with pytest.raises(JpegError, match="unsupported SOF"):
        decode_jpeg(bad)


def test_title_golden_from_jpeg():
    """Reference golden: get_title_tables on the decoded JPEG fixture must
    find the title '10 most populous countries'
    (ref tests/tables/processing/text/test_titles.py:15-24)."""
    from img2table_ray.core.objects import Cell, Row, Table
    from img2table_ray.extract.content import load_words_csv
    from img2table_ray.extract.titles import get_title_tables

    img = decode_jpeg(fixture_bytes("titles.jpg"))
    with open(fixture_path("titles_table.json")) as f:
        table = Table(rows=[Row(cells=[Cell(**el) for el in row])
                            for row in json.load(f)])
    words = load_words_csv(fixture_path("titles_ocr.csv"))

    result = get_title_tables(img=img, tables=[table], words=words)
    assert result[0].title == "10 most populous countries"
    assert get_title_tables(img=img, tables=[], words=words) == []


def test_get_contours_cell_golden():
    """Reference golden: exact contour coordinates on the contours fixture
    (ref tests/tables/processing/common/test_common.py:40-56 — upstream
    ships this file as 'test.jpg' but its bytes are PNG; decode_image sniffs
    the container, like cv2.imdecode does)."""
    from img2table_ray.core.objects import Cell
    from img2table_ray.extract.titles import get_contours_cell
    from img2table_ray.imgops.png import decode_image

    img = decode_image(fixture_bytes("contours.png"))
    cell = Cell(x1=0, x2=img.shape[1], y1=0, y2=img.shape[0])
    result = get_contours_cell(img=img, cell=cell, margin=5, blur_size=5,
                               kernel_size=9, merge_vertically=True)
    expected = [Cell(x1=51, y1=19, x2=518, y2=146),
                Cell(x1=60, y1=156, x2=534, y2=691),
                Cell(x1=65, y1=765, x2=543, y2=811)]
    assert result == expected


def test_jpeg_flows_through_extraction(ray_session):
    """A JPEG page row must extract with status != error through the Ray
    pipeline (capability the reference gets from cv2.imdecode)."""
    import os
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from img2table_ray.pipelines.extraction import extract_pages
    from img2table_ray.sources.pages import synth_table_image

    g, _ = synth_table_image(3, 3, 7)
    jpg = encode_jpeg(g, quality=95)
    d = "/tmp/i2tr_jpeg_corpus"
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(f"{d}/pages")
    pq.write_table(pa.table({
        "url": ["https://example.org/jpegdoc/0"],
        "warc_ts": pa.array([0], pa.timestamp("us")),
        "html": pa.array([jpg], pa.binary()),
        "text": [""], "lang": ["en"]}), f"{d}/pages/p.parquet")
    df = extract_pages(d).to_pandas()
    assert (df["status"] == "ok").all()
    assert (df["nb_rows"] == 3).all() and (df["nb_columns"] == 3).all()


def test_fill_bytes_skipped():
    """0xFF fill bytes before a marker are legal padding (T.81 B.1.1.2)."""
    img = np.full((24, 40, 3), 180, np.uint8)
    data = encode_jpeg(img, quality=90)
    # inject two fill bytes before the first marker after SOI
    padded = data[:2] + b"\xff\xff" + data[2:]
    assert np.array_equal(decode_jpeg(padded), decode_jpeg(data))


def test_rgb_component_ids_skip_ycc():
    """3-component JPEGs whose ids spell R,G,B hold RGB planes directly
    (jdcolor.c heuristic) — the YCbCr conversion must be skipped."""
    img = np.zeros((16, 16, 3), np.uint8)
    img[:] = [100, 150, 200]
    data = bytearray(encode_jpeg(img, quality=95))
    # patch component ids 1,2,3 -> 'R','G','B' in SOF and SOS
    i = 2
    import struct as _s
    while i < len(data):
        m = data[i + 1]
        L = _s.unpack(">H", bytes(data[i + 2:i + 4]))[0]
        if m == 0xC0:
            for c in range(3):  # payload: prec,h,w,nc then (cid,hv,tq)*3
                data[i + 4 + 6 + 3 * c] = b"RGB"[c]
        elif m == 0xDA:
            for c in range(3):
                data[i + 4 + 1 + 2 * c] = b"RGB"[c]
            break
        i += 2 + L
    out = decode_jpeg(bytes(data))
    # channels must now be the RAW planes = forward-YCbCr of the constant
    y = round(0.299 * 100 + 0.587 * 150 + 0.114 * 200)
    cb = round(-0.168735892 * 100 - 0.331264108 * 150 + 0.5 * 200 + 128)
    cr = round(0.5 * 100 - 0.418687589 * 150 - 0.081312411 * 200 + 128)
    mean = out.reshape(-1, 3).mean(axis=0)
    assert np.abs(mean - np.array([y, cb, cr])).max() < 3


def test_vectorized_scalar_entropy_parity(monkeypatch):
    """The vectorized entropy decoder and the scalar reference must produce
    bit-identical pixels on real color (4:2:0) and grayscale streams,
    including restart-interval-free single-segment layout."""
    import img2table_ray.imgops.jpeg as jm

    rng = np.random.default_rng(7)
    gray = (rng.integers(0, 256, (67, 53))).astype(np.uint8)
    color_src = np.repeat(gray[:, :, None], 3, axis=2)
    streams = [
        fixture_bytes("titles.jpg"),
        encode_jpeg(gray, quality=85),
        encode_jpeg(color_src, quality=40),
    ]
    for data in streams:
        got_vec = decode_jpeg(data)
        monkeypatch.setattr(
            jm, "_decode_coefficients_vec",
            lambda *a, **k: jm._decode_coefficients(*a[:7], **k))
        got_scal = decode_jpeg(data)
        monkeypatch.undo()
        assert np.array_equal(got_vec, got_scal)


def test_cmyk_and_ycck_adobe():
    """4-component Adobe JPEGs composite with cv2's CMYK2BGR formula
    (icvCvt_CMYK2BGR_8u_C4C3R): ch = k - ((255-ch)*k >> 8) on the
    Adobe-inverted planes; YCCK (APP14 transform=2) first inverts the
    YCbCr planes (libjpeg jdcolor ycck_cmyk_convert).  Quality-100 flat
    8x8 tiles recover the stored planes exactly, so the expected image is
    computable independently of the decoder."""

    def composite(cmyk):
        c, m, y, k = [cmyk[:, :, i].astype(np.int32) for i in range(4)]
        return np.stack([k - (((255 - p) * k) >> 8) for p in (c, m, y)],
                        axis=2).astype(np.uint8)

    cmyk = np.zeros((16, 24, 4), np.uint8)
    vals = [(255, 255, 255, 255), (0, 255, 255, 255), (255, 255, 255, 0),
            (90, 180, 30, 200), (10, 20, 250, 128), (200, 100, 50, 255)]
    t = 0
    for by in range(2):
        for bx in range(3):
            cmyk[by * 8:(by + 1) * 8, bx * 8:(bx + 1) * 8] = vals[t]
            t += 1
    exp = composite(cmyk)

    enc = encode_jpeg(cmyk, quality=100)
    assert np.array_equal(decode_jpeg(enc), exp)

    # YCCK: float forward + integer-LUT inverse -> within 1
    got = decode_jpeg(encode_jpeg(cmyk, quality=100, ycck=True))
    assert np.abs(got.astype(int) - exp.astype(int)).max() <= 1

    # a 4-component frame without an Adobe marker defaults to CMYK
    i = enc.find(b"Adobe") - 4
    stripped = enc[:i] + enc[i + 16:]
    assert b"Adobe" not in stripped
    assert np.array_equal(decode_jpeg(stripped), exp)


def _h2v1_fancy_upsample_loop(row: list[int]) -> list[int]:
    """libjpeg's h2v1_fancy_upsample (jdsample.c) on one row, as written
    there: 3/4 of the nearer input plus 1/4 of the further one, rounding
    alternately down (+1) and up (+2); the first and last outputs copy
    the edge inputs."""
    if len(row) == 1:
        return [row[0], row[0]]
    out = [row[0], (row[0] * 3 + row[1] + 2) >> 2]
    for i in range(1, len(row) - 1):
        v = row[i] * 3
        out += [(v + row[i - 1] + 1) >> 2, (v + row[i + 1] + 2) >> 2]
    out += [(row[-1] * 3 + row[-2] + 1) >> 2, row[-1]]
    return out


def test_h2v1_and_h1v2_upsampling_match_libjpeg_loop():
    """The 4:2:2 (h2v1) and 4:4:0 (h1v2) chroma upsamplers; the encoder
    writes only 4:2:0, so no round trip reaches them."""
    from img2table_ray.imgops.jpeg import _h2v1_fancy_upsample, _upsample

    rng = np.random.default_rng(11)
    planes = [rng.integers(0, 256, (h, w), dtype=np.uint8)
              for h, w in ((1, 1), (1, 2), (3, 1), (5, 7), (16, 33))]
    planes.append(np.array([[0, 255, 0, 255, 255, 0]], np.uint8))
    for p in planes:
        h, w = p.shape
        expected = np.array([_h2v1_fancy_upsample_loop(r) for r in p.tolist()],
                            np.uint8).reshape(h, 2 * w)
        assert np.array_equal(_h2v1_fancy_upsample(p), expected)
        assert np.array_equal(_upsample(p, 2, 1, 2 * w - 1, h), expected[:, :2 * w - 1])
        assert np.array_equal(_upsample(p.T.copy(), 1, 2, h, 2 * w), expected.T)
