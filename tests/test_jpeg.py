"""JPEG codec tests: decoder structure/roundtrip + the reference's
title-extraction golden, which runs the full blur/threshold/contour chain
over a REAL baseline-JPEG fixture decoded by our pure-numpy decoder
(reference: tests/tables/processing/text/test_titles.py — asserts the
title text cv2-decoded pixels produce)."""

import json
import struct

import numpy as np
import pytest

from img2table_ray.fixtures import fixture_bytes, fixture_path
from img2table_ray.imgops.jpeg import (ZIGZAG, JpegError, _BitWriter,
                                       _decode_frame, decode_jpeg, encode_jpeg)
from tests.readers import load_words_csv


# ---- progressive transcoder (coefficient-preserving SOF2 writer) -------

def _build_table(symbols: set, table_len: int = 8):
    """Canonical Huffman table with every symbol at ``table_len`` bits
    (valid while |symbols| <= 2^len - 1; the all-ones code stays unused).
    Returns (bits16, ordered values, {symbol: (code, len)})."""
    vals = sorted(symbols)
    if len(vals) > (1 << table_len) - 1:
        raise JpegError("too many symbols for flat table")
    bits = [0] * 16
    bits[table_len - 1] = len(vals)
    codes = {v: (i, table_len) for i, v in enumerate(vals)}
    return bits, vals, codes


class _ScanEmitter:
    """Collect-or-emit sink: pass 1 gathers symbol sets, pass 2 writes."""

    def __init__(self, dc_codes=None, ac_codes=None) -> None:
        self.dc_syms: set = set()
        self.ac_syms: set = set()
        self.dc_codes = dc_codes
        self.ac_codes = ac_codes
        self.bw = _BitWriter()

    def dc_symbol(self, s: int) -> None:
        if self.dc_codes is None:
            self.dc_syms.add(s)
        else:
            code, ln = self.dc_codes[s]
            self.bw.put(code, ln)

    def ac_symbol(self, s: int) -> None:
        if self.ac_codes is None:
            self.ac_syms.add(s)
        else:
            code, ln = self.ac_codes[s]
            self.bw.put(code, ln)

    def bits(self, v: int, n: int) -> None:
        if n and self.ac_codes is not None:
            self.bw.put(v & ((1 << n) - 1), n)


def _enc_dc_first(em: _ScanEmitter, comps, scan_comps, mcus_x, mcus_y, al):
    preds = {c.cid: 0 for c in scan_comps}
    for mcu in range(mcus_x * mcus_y):
        my, mx = divmod(mcu, mcus_x)
        for c in scan_comps:
            for by in range(c.v):
                for bx in range(c.h):
                    base = ((my * c.v + by) * c.blocks_w + mx * c.h + bx) * 64
                    v = int(c.coefs[base // 64, 0]) >> al
                    diff = v - preds[c.cid]
                    preds[c.cid] = v
                    mag = diff if diff >= 0 else -diff
                    size = mag.bit_length()
                    em.dc_symbol(size)
                    if size:
                        ev = diff if diff >= 0 else diff + (1 << size) - 1
                        em.bits(ev, size)


def _enc_dc_refine(em: _ScanEmitter, scan_comps, mcus_x, mcus_y, al):
    for mcu in range(mcus_x * mcus_y):
        my, mx = divmod(mcu, mcus_x)
        for c in scan_comps:
            for by in range(c.v):
                for bx in range(c.h):
                    blk = (my * c.v + by) * c.blocks_w + mx * c.h + bx
                    em.bits((int(c.coefs[blk, 0]) >> al) & 1, 1)


class _AcState:
    __slots__ = ("eobrun", "bbuf")

    def __init__(self) -> None:
        self.eobrun = 0
        self.bbuf: list[int] = []


def _emit_eobrun(em: _ScanEmitter, st: _AcState) -> None:
    if st.eobrun > 0:
        nbits = st.eobrun.bit_length() - 1
        em.ac_symbol(nbits << 4)
        if nbits:
            em.bits(st.eobrun, nbits)
        st.eobrun = 0
    for b in st.bbuf:
        em.bits(b, 1)
    st.bbuf = []


def _enc_ac_first(em: _ScanEmitter, st: _AcState, c, blk, ss, se, al, zz):
    row = c.coefs[blk]
    r = 0
    for k in range(ss, se + 1):
        v = int(row[zz[k]])
        t = (v if v >= 0 else -v) >> al
        if t == 0:
            r += 1
            continue
        while r > 15:
            _emit_eobrun(em, st)
            em.ac_symbol(0xF0)
            r -= 16
        _emit_eobrun(em, st)
        if v < 0:
            t = -t
        mag = t if t >= 0 else -t
        size = mag.bit_length()
        em.ac_symbol((r << 4) | size)
        ev = t if t >= 0 else t + (1 << size) - 1
        em.bits(ev, size)
        r = 0
    if r > 0:
        st.eobrun += 1
        if st.eobrun == 0x7FFF:
            _emit_eobrun(em, st)


def _enc_ac_refine(em: _ScanEmitter, st: _AcState, c, blk, ss, se, al, zz):
    row = c.coefs[blk]
    absv = []
    eob = ss - 1
    for k in range(ss, se + 1):
        v = int(row[zz[k]])
        t = (v if v >= 0 else -v) >> al
        absv.append(t)
        if t == 1:
            eob = k
    r = 0
    br: list[int] = []
    for k in range(ss, se + 1):
        t = absv[k - ss]
        if t == 0:
            r += 1
            continue
        while r > 15 and k <= eob:
            _emit_eobrun(em, st)
            em.ac_symbol(0xF0)
            r -= 16
            for b in br:
                em.bits(b, 1)
            br = []
        if t > 1:
            br.append(t & 1)
            continue
        _emit_eobrun(em, st)
        em.ac_symbol((r << 4) | 1)
        em.bits(1 if int(row[zz[k]]) >= 0 else 0, 1)
        for b in br:
            em.bits(b, 1)
        br = []
        r = 0
    if r > 0 or br:
        st.eobrun += 1
        st.bbuf.extend(br)
        if st.eobrun == 0x7FFF:
            _emit_eobrun(em, st)


def transcode_to_progressive(data: bytes, al: int = 1) -> bytes:
    """Re-encode a JPEG's QUANTIZED COEFFICIENTS as a progressive (SOF2)
    stream: spectral-selection bands with successive approximation at
    ``Al=al`` plus the refinement scans down to 0.  Coefficients are
    preserved exactly, so decode_jpeg(result) must be bit-identical to
    decode_jpeg(data) — the correctness harness for the progressive
    decoder (encoder implemented from T.81 §G.1.2 / jcphuff.c; decoder
    from §G.2 / jdphuff.c)."""
    width, height, comps, qt, _mode = _decode_frame(data)
    hmax = max(c.h for c in comps)
    vmax = max(c.v for c in comps)
    mcus_x = -(-width // (8 * hmax))
    mcus_y = -(-height // (8 * vmax))
    zz = ZIGZAG.tolist()

    def comp_units(c):
        w2 = -(-(-(-width * c.h // hmax)) // 8)
        h2 = -(-(-(-height * c.v // vmax)) // 8)
        return w2, h2

    # scan script: DC first (interleaved), per-comp AC bands, refinements
    scans = [("dc_first", None, 0, 0, 0, al)]
    for c in comps:
        scans.append(("ac_first", c, 1, 5, 0, al))
        scans.append(("ac_first", c, 6, 63, 0, al))
    for lvl in range(al, 0, -1):
        scans.append(("dc_refine", None, 0, 0, lvl, lvl - 1))
        for c in comps:
            scans.append(("ac_refine", c, 1, 63, lvl, lvl - 1))

    def run(emitter_factory):
        ems = []
        for kind, c, ss, se, ah, al_ in scans:
            em = emitter_factory()
            if kind == "dc_first":
                _enc_dc_first(em, comps, comps, mcus_x, mcus_y, al_)
            elif kind == "dc_refine":
                _enc_dc_refine(em, comps, mcus_x, mcus_y, al_)
            else:
                st = _AcState()
                w2, h2 = comp_units(c)
                for blk_unit in range(w2 * h2):
                    r_, c_ = divmod(blk_unit, w2)
                    blk = r_ * c.blocks_w + c_
                    if kind == "ac_first":
                        _enc_ac_first(em, st, c, blk, ss, se, al_, zz)
                    else:
                        _enc_ac_refine(em, st, c, blk, ss, se, al_, zz)
                _emit_eobrun(em, st)
            em.bw.flush()
            ems.append(em)
        return ems

    # pass 1: symbol collection
    collected = run(lambda: _ScanEmitter())
    dc_syms = set().union(*[e.dc_syms for e in collected]) or {0}
    ac_syms = set().union(*[e.ac_syms for e in collected]) or {0}
    dc_bits, dc_vals, dc_codes = _build_table(dc_syms)
    ac_bits, ac_vals, ac_codes = _build_table(ac_syms)
    # pass 2: emission
    emitted = run(lambda: _ScanEmitter(dc_codes, ac_codes))

    def seg(marker, payload):
        return bytes([0xFF, marker]) + struct.pack(">H", len(payload) + 2) + payload

    out = bytearray(b"\xff\xd8")
    out += seg(0xE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")
    for tq, q in sorted(qt.items()):
        zq = np.zeros(64, dtype=np.uint8)
        for i in range(64):
            zq[i] = q[ZIGZAG[i]]
        out += seg(0xDB, bytes([tq]) + zq.tobytes())
    sof = bytearray(struct.pack(">BHHB", 8, height, width, len(comps)))
    for c in comps:
        sof += bytes([c.cid, (c.h << 4) | c.v, c.tq])
    out += seg(0xC2, bytes(sof))
    out += seg(0xC4, bytes([0x00]) + bytes(dc_bits) + bytes(dc_vals))
    out += seg(0xC4, bytes([0x10]) + bytes(ac_bits) + bytes(ac_vals))
    for (kind, c, ss, se, ah, al_), em in zip(scans, emitted):
        if kind.startswith("dc"):
            sos = bytearray([len(comps)])
            for cc in comps:
                sos += bytes([cc.cid, 0x00])
        else:
            sos = bytearray([1, c.cid, 0x00])
        sos += bytes([ss, se, (ah << 4) | al_])
        out += seg(0xDA, bytes(sos))
        out += em.bw.out
    out += b"\xff\xd9"
    return bytes(out)

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

    data = fixture_bytes("titles.jpg")
    base = decode_jpeg(data)
    for al in (1, 0):
        prog = transcode_to_progressive(data, al=al)
        assert np.array_equal(decode_jpeg(prog), base), f"al={al}"


def test_progressive_gray_two_levels():

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
