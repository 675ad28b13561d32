"""TIFF / GIF / LZW codec tests + per-format error accounting.

The reference accepts these containers implicitly via cv2.imdecode
(/root/reference/src/img2table/document/image.py:25-32).  No imaging libs
exist in this container, so goldens are (a) hand-derived spec vectors —
the TIFF 6.0 §13 LZW example packed by an independent bit-packer in this
file — and (b) codec round-trips where encoder and decoder take disjoint
code paths (greedy dict encoder vs table decoder).
"""

import numpy as np
import pytest

from img2table_ray.imgops.gif import GifError, decode_gif, encode_gif
from img2table_ray.imgops.lzw import lzw_decode_gif, lzw_decode_tiff
from img2table_ray.imgops.tiff import (
    TiffError,
    decode_tiff,
    encode_tiff,
    lzw_encode_tiff,
    packbits,
    unpackbits,
)


# ---- hand-derived spec vectors ------------------------------------------

def _pack_msb(codes, widths):
    acc, nbits, out = 0, 0, bytearray()
    for c, w in zip(codes, widths):
        acc = (acc << w) | c
        nbits += w
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out)


def _pack_lsb(codes, widths):
    acc, nbits, out = 0, 0, bytearray()
    for c, w in zip(codes, widths):
        acc |= c << nbits
        nbits += w
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8
    if nbits:
        out.append(acc & 0xFF)
    return bytes(out)


def test_tiff_lzw_spec_example():
    # TIFF 6.0 §13 worked example: 7,7,7,8,8,7,7,6,6 encodes to the code
    # sequence below (hand-derived: 258=(7,7) reused twice, KwK absent).
    codes = [256, 7, 258, 8, 8, 258, 6, 6, 257]
    stream = _pack_msb(codes, [9] * len(codes))
    assert lzw_decode_tiff(stream) == bytes([7, 7, 7, 8, 8, 7, 7, 6, 6])


def test_tiff_lzw_kwk_case():
    # the KwKwK corner: code == next free entry.  Input aaabbb ->
    # CLEAR, a, 258(=aa? no: emit a, add (a,a)=258; 'aa' hit,
    # miss at aab: emit 258 add 259=(a,a,b); b: emit b add 260=(b,b)?
    # hand-derive precisely for 'aaaa': CLEAR, a(97), then cur='a',
    # nxt='aa' miss -> emit 97, add 258; cur='a','aa' hit, 'aaa' miss ->
    # emit 258 add 259; cur='a' end -> emit 97. decoder sees 258 BEFORE
    # its table has it (KwK).
    codes = [256, 97, 258, 97, 257]
    stream = _pack_msb(codes, [9] * len(codes))
    assert lzw_decode_tiff(stream) == b"aaaa"


def test_gif_lzw_spec_vector():
    # min_code_size=2: clear=4, end=5, first free=6, width starts 3.
    # pixels 1,1,1,2 -> CLEAR(4), 1, 6(KwK: (1,1)? no -- emit 1, add
    # (1,1)=6; '11' hit, '112' miss -> emit 6, add 7; cur=2 -> emit 2, END.
    codes = [4, 1, 6, 2, 5]
    stream = _pack_lsb(codes, [3] * len(codes))
    assert lzw_decode_gif(stream, 2) == bytes([1, 1, 1, 2])


def test_packbits_spec_vector():
    # Apple PackBits worked example from TIFF 6.0 §9
    packed = bytes.fromhex("FEAA 0280002A FDAA 038000 2A22 F7AA"
                           .replace(" ", ""))
    expect = bytes.fromhex("AAAAAA 80002A AAAAAAAA 80002A22"
                           .replace(" ", "")) + b"\xaa" * 10
    assert unpackbits(packed) == expect
    # round-trip through our own encoder too
    assert unpackbits(packbits(expect)) == expect


# ---- round-trips ---------------------------------------------------------

@pytest.mark.parametrize("comp", ["none", "packbits", "lzw", "deflate"])
def test_tiff_roundtrip_gray_rgb(comp):
    rng = np.random.default_rng(7)
    for shape in [(13, 17), (64, 48, 3), (1, 1)]:
        base = rng.integers(0, 256, size=shape, dtype=np.uint8)
        base[..., :5] = 42  # runs
        for pred in (False, True):
            for be in (False, True):
                enc = encode_tiff(base, compression=comp, rows_per_strip=7,
                                  predictor=pred, big_endian=be)
                dec = decode_tiff(enc)
                assert np.array_equal(dec, base), (shape, comp, pred, be)


@pytest.mark.parametrize("comp", ["none", "packbits", "lzw", "deflate"])
def test_tiff_tiled_roundtrip(comp):
    """Tiled layout (tags 322-325): partial edge tiles zero-padded, the
    predictor restarts per tile row, both byte orders."""
    rng = np.random.default_rng(11)
    for shape, tile in [((37, 53), (16, 16)), ((64, 48, 3), (16, 32)),
                        ((100, 90, 3), (48, 16))]:
        base = rng.integers(0, 256, size=shape, dtype=np.uint8)
        for pred in (False, True):
            for be in (False, True):
                enc = encode_tiff(base, compression=comp, predictor=pred,
                                  big_endian=be, tile=tile)
                dec = decode_tiff(enc)
                assert np.array_equal(dec, base), (shape, comp, pred, be)


def test_tiff_tiled_rejects_bad_tile_size():
    with pytest.raises(TiffError):
        encode_tiff(np.zeros((32, 32), np.uint8), tile=(20, 16))


def test_tiff_lzw_table_reset():
    # >4094 codes forces the encoder's CLEAR-reset path
    rng = np.random.default_rng(0)
    data = bytes(rng.integers(0, 8, 60000, dtype=np.uint8))
    assert lzw_decode_tiff(lzw_encode_tiff(data)) == data


def test_tiff_unsupported_raises():
    arr = np.zeros((4, 4), np.uint8)
    good = bytearray(encode_tiff(arr))
    with pytest.raises(TiffError):
        decode_tiff(b"II\x2b\x00" + bytes(good[4:]))  # BigTIFF magic
    with pytest.raises(TiffError):
        decode_tiff(b"PK\x03\x04")
    # unknown compression id in an otherwise valid file
    import struct

    idx = bytes(good).find(struct.pack("<HHI", 259, 3, 1))
    assert idx > 0
    bad = bytes(good[: idx + 8]) + struct.pack("<I", 4) + bytes(good[idx + 12 :])
    with pytest.raises(TiffError, match="compression 4"):
        decode_tiff(bad)


def test_gif_roundtrip_and_interlace():
    rng = np.random.default_rng(3)
    base = rng.integers(0, 6, size=(37, 53, 3), dtype=np.uint8) * 40
    for inter in (False, True):
        assert np.array_equal(decode_gif(encode_gif(base, interlace=inter)),
                              base)
    gray = rng.integers(0, 256, size=(20, 30), dtype=np.uint8)
    assert np.array_equal(decode_gif(encode_gif(gray)),
                          np.repeat(gray[:, :, None], 3, axis=2))
    with pytest.raises(GifError):
        decode_gif(b"GIF89a\x00")


def test_gif_transparency_renders_white():
    # hand-build: 2x1, GCT 4 colors, GCE transparent index 1, pixels [0, 1]
    import struct

    gct = bytes([10, 20, 30, 99, 99, 99, 0, 0, 0, 0, 0, 0])
    gce = b"\x21\xf9\x04\x01\x00\x00\x01\x00"
    codes = [4, 0, 1, 5]  # CLEAR, px0, px1, END at width 3 (mcs=2)
    stream = _pack_lsb(codes, [3] * len(codes))
    gif = (b"GIF89a" + struct.pack("<HHBBB", 2, 1, 0x81, 0, 0) + gct + gce
           + b"\x2c" + struct.pack("<HHHHB", 0, 0, 2, 1, 0)
           + bytes([2, len(stream)]) + stream + b"\x00\x3b")
    out = decode_gif(gif)
    assert out.tolist() == [[[10, 20, 30], [255, 255, 255]]]


# ---- dispatch + pipeline accounting -------------------------------------

def test_decode_image_dispatch_and_sniff():
    from img2table_ray.extract.pdf import sniff_kind
    from img2table_ray.imgops.png import decode_image
    from img2table_ray.imgops.webp import WebpError, encode_webp_lossless

    g = np.full((8, 9), 200, np.uint8)
    tif = encode_tiff(g, compression="lzw")
    gif = encode_gif(g)
    webp = encode_webp_lossless(g)
    lossy = b"RIFF\x10\x00\x00\x00WEBPVP8 \x04\x00\x00\x00\x00\x00\x00\x00"
    assert sniff_kind(tif[:16]) == "tiff"
    assert sniff_kind(gif[:16]) == "gif"
    assert sniff_kind(webp[:16]) == "webp"
    assert sniff_kind(lossy[:16]) == "webp"
    exp = np.repeat(g[:, :, None], 3, axis=2)
    assert np.array_equal(decode_image(tif), g)
    assert np.array_equal(decode_image(gif), exp)
    assert np.array_equal(decode_image(webp), exp)
    with pytest.raises(WebpError, match="lossy"):
        decode_image(lossy)


def test_formats_flow_through_job_with_error_accounting(ray_session, tmp_path):
    """TIFF + GIF pages extract tables end-to-end; an (unsupported) WebP
    page becomes a counted error row — manifests report errors_by_format."""
    import json
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from img2table_ray.pipelines.extraction import run_extraction_job
    from img2table_ray.sources.pages import _EPOCH, synth_table_image

    from img2table_ray.imgops.webp import encode_webp_lossless

    g, _ = synth_table_image(3, 3, 5)
    docs = [
        ("tiff", encode_tiff(g, compression="lzw", predictor=True,
                             rows_per_strip=64)),
        ("gif", encode_gif(g)),
        ("webpl", encode_webp_lossless(g, subtract_green=True)),
        ("webp", b"RIFF\x00\x01\x00\x00WEBPVP8 " + b"\x00" * 64),
    ]
    corpus = tmp_path / "corpus"
    pdir = corpus / "pages"
    os.makedirs(pdir)
    tbl = pa.table({
        "url": pa.array([f"https://example.org/{n}/0" for n, _ in docs]),
        "warc_ts": pa.array([_EPOCH] * len(docs), pa.timestamp("us")),
        "html": pa.array([b for _, b in docs], pa.binary()),
        "text": pa.array([""] * len(docs)),
        "lang": pa.array(["en"] * len(docs)),
    })
    pq.write_table(tbl, f"{pdir}/part-00000.parquet")

    out_dir = str(tmp_path / "out")
    res = run_extraction_job(str(corpus), out_dir, words_dir=None, waves=1)
    assert res["new_parts"] == [0]

    got = pq.read_table(f"{out_dir}/data").to_pylist()
    by_url = {}
    for r in got:
        by_url.setdefault(r["url"].split("/")[3], []).append(r)
    for kind in ("tiff", "gif", "webpl"):
        assert all(r["status"] == "ok" for r in by_url[kind]), kind
        assert by_url[kind][0]["nb_rows"] == 3, kind
    assert by_url["webp"][0]["status"] == "error"

    with open(f"{out_dir}/manifest/0.json") as f:
        man = json.load(f)
    assert man["n_errors"] == 1
    assert man["errors_by_format"] == {"webp": 1}


# ---- CCITT fax (T.4 / T.6) ----------------------------------------------

def test_fax_tables_prefix_free_and_sized():
    # importing g4 runs the prefix-freeness canary over both tables; a
    # single transcription typo in any T.4 code makes some pair
    # prefix-ambiguous with overwhelming likelihood
    from img2table_ray.imgops.g4 import _BLACK_DEC, _WHITE_DEC

    # 64 terminating + 27 make-up + 13 extended per color
    assert len(_WHITE_DEC) == 104
    assert len(_BLACK_DEC) == 104


def test_g4_and_mh_roundtrips():
    from img2table_ray.imgops.g4 import (
        g4_decode,
        g4_encode,
        mh_decode,
        mh_encode,
    )

    rng = np.random.default_rng(13)
    t = np.zeros((60, 200), np.uint8)
    t[10:12] = 1
    t[:, 50:53] = 1
    t[30:40, 100:180] = 1
    imgs = [
        np.zeros((4, 8), np.uint8),
        np.ones((3, 5), np.uint8),
        (rng.random((40, 73)) < 0.3).astype(np.uint8),
        (rng.random((8, 2000)) < 0.01).astype(np.uint8),  # make-up codes
        (rng.random((5, 3000)) < 0.99).astype(np.uint8),
        t,
    ]
    for k, im in enumerate(imgs):
        h, w = im.shape
        assert np.array_equal(g4_decode(g4_encode(im), w, h), im), k
        assert np.array_equal(
            g4_decode(g4_encode(im, with_eofb=False), w, h), im), k
        assert np.array_equal(mh_decode(mh_encode(im), w, h), im), k


def test_g4_hand_vector_all_white():
    # an all-white row is a single V0 bit: 2 rows -> '11' -> 0xC0 padded
    from img2table_ray.imgops.g4 import g4_encode

    assert g4_encode(np.zeros((2, 4), np.uint8), with_eofb=False) == b"\xc0"


def test_g4_tiff_through_dispatch():
    from img2table_ray.imgops.png import decode_image
    from img2table_ray.imgops.tiff import encode_tiff_g4

    rng = np.random.default_rng(3)
    bits = (rng.random((50, 81)) < 0.2).astype(np.uint8)
    tif = encode_tiff_g4(bits)
    assert np.array_equal(decode_image(tif),
                          ((1 - bits) * 255).astype(np.uint8))


def test_g3_2d_roundtrips():
    from img2table_ray.imgops.g4 import g3_2d_decode, g3_2d_encode

    rng = np.random.default_rng(29)
    t = np.zeros((60, 200), np.uint8)
    t[10:12] = 1
    t[:, 50:53] = 1
    t[30:40, 100:180] = 1
    imgs = [
        np.zeros((4, 8), np.uint8),
        np.ones((3, 5), np.uint8),                       # starts black
        (rng.random((40, 73)) < 0.3).astype(np.uint8),
        (rng.random((8, 2000)) < 0.01).astype(np.uint8),  # make-up codes
        (rng.random((5, 3000)) < 0.99).astype(np.uint8),
        t,
    ]
    for k, im in enumerate(imgs):
        h, w = im.shape
        for kf in (1, 2, 4, 100):  # K factor: all-1-D through mostly-2-D
            got = g3_2d_decode(g3_2d_encode(im, k=kf), w, h)
            assert np.array_equal(got, im), (k, kf)


def test_g3_2d_first_line_must_be_1d():
    import pytest

    from img2table_ray.imgops.g4 import _EOL, FaxError, g3_2d_decode

    # EOL + tag 0 on line 0 is malformed
    s = _EOL + "0" + "1"
    s += "0" * (-len(s) % 8)
    data = np.packbits(
        np.frombuffer(s.encode(), np.uint8) - ord("0")).tobytes()
    with pytest.raises(FaxError):
        g3_2d_decode(data, 4, 1)


def test_g3_2d_tiff_through_dispatch():
    from img2table_ray.imgops.png import decode_image
    from img2table_ray.imgops.tiff import encode_tiff_g4

    rng = np.random.default_rng(31)
    bits = (rng.random((50, 81)) < 0.2).astype(np.uint8)
    tif = encode_tiff_g4(bits, compression=3)
    assert np.array_equal(decode_image(tif),
                          ((1 - bits) * 255).astype(np.uint8))


def test_g3_1d_tiff_through_dispatch():
    """Compression 3 without the T4Options 2-D flag: every row is an EOL
    and the row's Modified Huffman codes.  Each row is written as a
    byte-aligned EOL (0x00 0x01: 15 zeros, the extra ones fill) followed
    by ``mh_encode``'s codes for it, zero-padded to a byte."""
    import struct

    from img2table_ray.imgops.g4 import mh_encode
    from img2table_ray.imgops.png import decode_image

    rng = np.random.default_rng(17)
    bits = (rng.random((30, 77)) < 0.2).astype(np.uint8)
    bits[::3, 0] = 1  # rows that start black: a zero-length white run
    h, w = bits.shape
    payload = b"".join(b"\x00\x01" + mh_encode(row[None]) for row in bits)
    entries = [(256, 4, w), (257, 4, h), (258, 3, 1), (259, 3, 3), (262, 3, 0),
               (273, 4, None), (277, 3, 1), (278, 4, h), (279, 4, len(payload))]
    data_off = 8 + 2 + 12 * len(entries) + 4
    tif = bytearray(b"II" + struct.pack("<HIH", 42, 8, len(entries)))
    for tag, ftype, value in entries:
        value = data_off if tag == 273 else value
        tif += struct.pack("<HHI", tag, ftype, 1) + (
            struct.pack("<I", value) if ftype == 4 else struct.pack("<HH", value, 0))
    tif += struct.pack("<I", 0) + payload
    assert np.array_equal(decode_image(bytes(tif)),
                          ((1 - bits) * 255).astype(np.uint8))
