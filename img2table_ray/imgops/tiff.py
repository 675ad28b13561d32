"""Baseline TIFF 6.0 codec in pure numpy/stdlib.

Decode covers the crawl-relevant baseline: both byte orders, strip
organization (chunky and planar), compressions None / PackBits / LZW /
Deflate (8 and the old 32946) plus CCITT fax for bilevel strips
(Modified Huffman =2, Group 3 1-D =3, Group 4 MMR =4 via imgops/g4.py),
photometric WhiteIsZero / BlackIsZero / RGB / Palette, 8-bit samples
plus 1-bit bilevel, horizontal-differencing predictor (restarting per
strip/tile row), extra samples (alpha) dropped, and TILED layout (tags
322-325, zero-padded edge tiles, same compression set incl. fax
tiles).  G3/G4 uncompressed-mode extensions, JPEG-in-TIFF, 16-bit and
planar-sub-sampled exotics raise ``TiffError`` — those rows become
counted error records upstream, never task failures.

The reference accepts TIFF implicitly through cv2.imdecode
(/root/reference/src/img2table/document/image.py:25-32, libtiff under
the hood); this is a from-spec reimplementation (TIFF 6.0, Adobe 1992),
not a port.  Output convention matches decode_png: an (H, W) uint8 plane
for bilevel and gray photometrics, else (H, W, 3) uint8 RGB.

``encode_tiff`` exists for tests and thumbnail sinks: 8-bit chunky
strips, None / PackBits / LZW / Deflate — its LZW is an independent
greedy encoder (early-change) so codec round-trips exercise the decoder
against a second implementation of the spec.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from img2table_ray.imgops.limits import bounded_decompress, check_dims

from img2table_ray.imgops.lzw import LzwError, lzw_decode_tiff


class TiffError(ValueError):
    pass


# ---- PackBits (TIFF 6.0 §9) ---------------------------------------------

def unpackbits(data: bytes, expected: int | None = None) -> bytes:
    out = bytearray()
    i, n = 0, len(data)
    while i < n and (expected is None or len(out) < expected):
        b = data[i]
        i += 1
        if b < 128:  # literal run of b+1 bytes
            out += data[i : i + b + 1]
            i += b + 1
        elif b > 128:  # repeat next byte 257-b times
            if i >= n:
                raise TiffError("truncated PackBits stream")
            out += bytes((data[i],)) * (257 - b)
            i += 1
        # b == 128: no-op
    return bytes(out)


def packbits(data: bytes) -> bytes:
    out = bytearray()
    i, n = 0, len(data)
    while i < n:
        # find run length at i
        run = 1
        while i + run < n and run < 128 and data[i + run] == data[i]:
            run += 1
        if run >= 2:
            out += bytes((257 - run, data[i]))
            i += run
            continue
        # literal stretch until the next >=3 run (2-runs inside literals
        # are cheaper kept literal)
        j = i + 1
        while j < n and j - i < 128:
            r = 1
            while j + r < n and r < 3 and data[j + r] == data[j]:
                r += 1
            if r >= 3:
                break
            j += 1
        out += bytes((j - i - 1,)) + data[i:j]
        i = j
    return bytes(out)


# ---- LZW encoder (TIFF variant, early change) ---------------------------

def lzw_encode_tiff(data: bytes) -> bytes:
    CLEAR, EOI = 256, 257
    out = bytearray()
    acc = 0
    nbits = 0

    def emit(code: int, width: int) -> None:
        nonlocal acc, nbits
        acc = (acc << width) | code
        nbits += width
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)

    table: dict[bytes, int] = {bytes((i,)): i for i in range(256)}
    next_code = 258
    width = 9
    emit(CLEAR, width)
    cur = b""
    for byte in data:
        nxt = cur + bytes((byte,))
        if nxt in table:
            cur = nxt
            continue
        emit(table[cur], width)
        table[nxt] = next_code
        next_code += 1
        # The decoder's table lags the encoder's by one entry (its entry
        # for code N materializes while decoding code N+1), so the
        # encoder-side early-change point is decoder threshold + 1:
        # bump when next_code == 2^w (decoder bumps at table size 2^w - 1).
        if next_code == (1 << width) and width < 12:
            width += 1
        if next_code >= 4094:  # table nearly full: reset
            emit(CLEAR, width)
            table = {bytes((i,)): i for i in range(256)}
            next_code = 258
            width = 9
        cur = bytes((byte,))
    if cur:
        emit(table[cur], width)
    emit(EOI, width)
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out)


# ---- decode --------------------------------------------------------------

_TYPE_SIZE = {1: 1, 2: 1, 3: 2, 4: 4, 5: 8, 6: 1, 7: 1, 8: 2, 9: 4, 10: 8}


def _read_values(data: bytes, bo: str, ftype: int, count: int,
                 raw: bytes) -> list[int]:
    size = _TYPE_SIZE.get(ftype)
    if size is None:
        raise TiffError(f"unsupported IFD field type {ftype}")
    total = size * count
    if total <= 4:
        buf = raw[:total]
    else:
        (off,) = struct.unpack(bo + "I", raw)
        buf = data[off : off + total]
        if len(buf) < total:
            raise TiffError("IFD value overruns file")
    if ftype in (3, 8):
        return list(struct.unpack(bo + f"{count}H", buf))
    if ftype in (4, 9):
        return list(struct.unpack(bo + f"{count}I", buf))
    if ftype in (1, 6, 7, 2):
        return list(buf)
    if ftype in (5, 10):  # rationals: numerator/denominator pairs
        vals = struct.unpack(bo + f"{2 * count}I", buf)
        return [vals[2 * i] // max(1, vals[2 * i + 1]) for i in range(count)]
    raise TiffError(f"unsupported IFD field type {ftype}")


def _decompress(chunk: bytes, compression: int, expected: int) -> bytes:
    if compression == 1:
        return chunk
    if compression == 5:
        try:
            return lzw_decode_tiff(chunk, max_out=expected)
        except LzwError as err:
            raise TiffError(f"bad LZW strip: {err}") from err
    if compression in (8, 32946):
        return bounded_decompress(chunk, expected, "TIFF deflate strip")
    if compression == 32773:
        return unpackbits(chunk, expected=expected)
    names = {2: "CCITT G3 1D", 3: "CCITT G3", 4: "CCITT G4", 6: "old JPEG",
             7: "JPEG"}
    raise TiffError(
        f"unsupported TIFF compression {compression}"
        f" ({names.get(compression, 'unknown')})")


def decode_tiff(data: bytes) -> np.ndarray:
    """Decode TIFF bytes (first IFD / first image) -> (H, W) gray or
    (H, W, 3) RGB uint8 array."""
    if len(data) < 8:
        raise TiffError("truncated TIFF header")
    if data[:2] == b"II":
        bo = "<"
    elif data[:2] == b"MM":
        bo = ">"
    else:
        raise TiffError("not a TIFF file")
    magic, ifd_off = struct.unpack(bo + "HI", data[2:8])
    if magic != 42:
        raise TiffError(f"bad TIFF magic {magic}")

    if ifd_off + 2 > len(data):
        raise TiffError("IFD offset out of range")
    (n_entries,) = struct.unpack(bo + "H", data[ifd_off : ifd_off + 2])
    tags: dict[int, list[int]] = {}
    for i in range(n_entries):
        ent = data[ifd_off + 2 + 12 * i : ifd_off + 2 + 12 * (i + 1)]
        if len(ent) < 12:
            raise TiffError("truncated IFD")
        tag, ftype, count = struct.unpack(bo + "HHI", ent[:8])
        try:
            tags[tag] = _read_values(data, bo, ftype, count, ent[8:12])
        except TiffError:
            if tag in (256, 257, 258, 259, 262, 273, 277, 278, 279, 284,
                       317, 320):
                raise
            # tolerate unreadable ancillary tags (EXIF blobs etc.)

    def one(tag: int, default=None):
        v = tags.get(tag)
        if v is None:
            if default is None:
                raise TiffError(f"missing required TIFF tag {tag}")
            return default
        return v[0]

    tiled = 322 in tags or 324 in tags
    if one(266, default=1) != 1:
        raise TiffError("FillOrder 2 unsupported")

    width = one(256)
    height = one(257)
    check_dims(width, height, "TIFF")
    compression = one(259, default=1)
    photometric = one(262)
    spp = one(277, default=1)
    rows_per_strip = min(one(278, default=0xFFFFFFFF), height)
    planar = one(284, default=1)
    predictor = one(317, default=1)
    bits = tags.get(258, [1])
    if width <= 0 or height <= 0 or width * height > 1 << 28:
        raise TiffError(f"unreasonable TIFF dimensions {width}x{height}")

    if tiled:
        offsets = tags.get(324)
        counts = tags.get(325)
        if offsets is None or counts is None:
            raise TiffError("missing TileOffsets/TileByteCounts")
    else:
        offsets = tags.get(273)
        counts = tags.get(279)
        if offsets is None:
            raise TiffError("missing StripOffsets")
        if counts is None:
            if len(offsets) == 1 and compression == 1:
                counts = [len(data) - offsets[0]]  # tolerated: 1 raw strip
            else:
                raise TiffError("missing StripByteCounts")

    if any(b != bits[0] for b in bits):
        raise TiffError(f"heterogeneous BitsPerSample {bits}")
    depth = bits[0]
    if depth not in (1, 8):
        raise TiffError(f"unsupported BitsPerSample {depth}")
    if depth == 1 and (spp != 1 or photometric not in (0, 1)):
        raise TiffError("1-bit TIFF must be bilevel")
    if predictor not in (1, 2):
        raise TiffError(f"unsupported Predictor {predictor}")
    if predictor == 2 and depth != 8:
        raise TiffError("Predictor 2 requires 8-bit samples")

    def _fax_decoder():
        from img2table_ray.imgops.g4 import (g3_1d_decode, g3_2d_decode,
                                             g4_decode, mh_decode)

        t4opts = one(292, default=0)
        if compression == 3 and (t4opts & 0b10):
            raise TiffError("G3 uncompressed extension unsupported")
        if compression == 4 and (one(293, default=0) & 0b10):
            raise TiffError("G4 uncompressed extension unsupported")
        dec = {2: mh_decode, 3: g3_1d_decode, 4: g4_decode}[compression]
        if compression == 3 and (t4opts & 0b1):
            dec = g3_2d_decode  # T.4 2-D extension (tagged lines)
        return dec

    def _bilevel(bits_arr: np.ndarray) -> np.ndarray:
        """0/1 samples -> the (H, W) gray plane (1 = black unless
        BlackIsZero)."""
        return (bits_arr if photometric == 1 else 1 - bits_arr) * np.uint8(255)

    def _pixels(img: np.ndarray) -> np.ndarray:
        """(H, W, spp) 8-bit samples -> the (H, W) gray plane or RGB."""
        if photometric in (0, 1):
            g = img[:, :, 0]
            return np.ascontiguousarray(255 - g if photometric == 0 else g)
        if photometric == 2:
            if spp < 3:
                raise TiffError("RGB TIFF with fewer than 3 samples")
            return np.ascontiguousarray(img[:, :, :3])  # drop alpha/extra
        if photometric == 3:
            cmap = tags.get(320)
            if cmap is None or len(cmap) < 3 * (1 << depth):
                raise TiffError("missing/short ColorMap")
            n = 1 << depth
            lut = (np.array(cmap[: 3 * n], np.uint16).reshape(3, n).T >> 8
                   ).astype(np.uint8)
            return lut[img[:, :, 0]]
        raise TiffError(
            f"unsupported PhotometricInterpretation {photometric}")

    if tiled:
        from img2table_ray.imgops.g4 import FaxError

        tile_w = one(322)
        tile_len = one(323)
        if tile_w <= 0 or tile_len <= 0:
            raise TiffError("bad tile geometry")
        ta = -(-width // tile_w)
        td = -(-height // tile_len)
        check_dims(ta * tile_w, td * tile_len, "TIFF tile canvas")
        tiles_per_plane = ta * td
        n_planes = spp if planar == 2 else 1
        if len(offsets) < tiles_per_plane * n_planes:
            raise TiffError("tile count mismatch")

        if depth == 1:
            canvas = np.zeros((td * tile_len, ta * tile_w), np.uint8)
            tile_row_bytes = -(-tile_w // 8)
            dec = _fax_decoder() if compression in (2, 3, 4) else None
            for t in range(tiles_per_plane):
                off, cnt = offsets[t], counts[t]
                ty, tx = divmod(t, ta)
                if dec is not None:
                    try:
                        bits_t = dec(data[off : off + cnt], tile_w, tile_len)
                    except FaxError as err:
                        raise TiffError(f"bad fax tile: {err}") from err
                else:
                    expected = tile_len * tile_row_bytes
                    raw = _decompress(data[off : off + cnt], compression,
                                      expected)
                    if len(raw) < expected:
                        raise TiffError("short tile data")
                    packed = np.frombuffer(raw[:expected], np.uint8)
                    bits_t = np.unpackbits(
                        packed.reshape(tile_len, tile_row_bytes),
                        axis=1)[:, :tile_w]
                canvas[ty * tile_len : (ty + 1) * tile_len,
                       tx * tile_w : (tx + 1) * tile_w] = bits_t
            return _bilevel(canvas[:height, :width])

        chan = spp if planar == 1 else 1

        def read_plane_tiled(plane: int) -> np.ndarray:
            canvas = np.zeros((td * tile_len, ta * tile_w, chan), np.uint8)
            expected = tile_len * tile_w * chan
            for t in range(tiles_per_plane):
                idx = plane * tiles_per_plane + t
                off, cnt = offsets[idx], counts[idx]
                raw = _decompress(data[off : off + cnt], compression,
                                  expected)
                if len(raw) < expected:
                    raise TiffError("short tile data")
                a = np.frombuffer(raw[:expected], np.uint8).reshape(
                    tile_len, tile_w, chan)
                if predictor == 2:
                    # horizontal differencing restarts at each TILE row
                    a = np.cumsum(a, axis=1, dtype=np.uint8)
                ty, tx = divmod(t, ta)
                canvas[ty * tile_len : (ty + 1) * tile_len,
                       tx * tile_w : (tx + 1) * tile_w] = a
            return canvas[:height, :width]

        if planar == 2:
            img = np.concatenate([read_plane_tiled(p) for p in range(spp)],
                                 axis=2)
        else:
            img = read_plane_tiled(0)
        return _pixels(img)

    strips_per_plane = -(-height // rows_per_strip)
    n_planes = spp if planar == 2 else 1
    if len(offsets) < strips_per_plane * n_planes:
        raise TiffError("strip count mismatch")

    if depth == 1:
        row_bytes = -(-width // 8)
        chan_per_strip_row = row_bytes
    else:
        chan_per_strip_row = width * (spp if planar == 1 else 1)

    def read_plane(plane: int) -> np.ndarray:
        rows = []
        for s in range(strips_per_plane):
            idx = plane * strips_per_plane + s
            off, cnt = offsets[idx], counts[idx]
            n_rows = min(rows_per_strip, height - s * rows_per_strip)
            expected = n_rows * chan_per_strip_row
            raw = _decompress(data[off : off + cnt], compression, expected)
            if len(raw) < expected:
                raise TiffError("short strip data")
            a = np.frombuffer(raw[:expected], np.uint8)
            rows.append(a.reshape(n_rows, chan_per_strip_row))
        return np.concatenate(rows, axis=0)

    if depth == 1:
        if compression in (2, 3, 4):
            # CCITT fax strips decode straight to pixel rows (T.4/T.6)
            from img2table_ray.imgops.g4 import FaxError

            dec = _fax_decoder()
            rows = []
            for s in range(strips_per_plane):
                off, cnt = offsets[s], counts[s]
                n_rows = min(rows_per_strip, height - s * rows_per_strip)
                try:
                    rows.append(dec(data[off : off + cnt], width, n_rows))
                except FaxError as err:
                    raise TiffError(f"bad fax strip: {err}") from err
            bits_arr = np.concatenate(rows, axis=0)
        else:
            packed = read_plane(0)
            bits_arr = np.unpackbits(packed, axis=1)[:, :width]
        return _bilevel(bits_arr)

    if planar == 2:
        planes = [read_plane(p) for p in range(spp)]
        if predictor == 2:
            planes = [np.cumsum(p, axis=1, dtype=np.uint8) for p in planes]
        img = np.stack(planes, axis=2)
    else:
        flat = read_plane(0).reshape(height, width, spp)
        if predictor == 2:
            flat = np.cumsum(flat, axis=1, dtype=np.uint8)
        img = flat

    return _pixels(img)


def encode_tiff_g4(bits: np.ndarray, compression: int = 4) -> bytes:
    """(H, W) 0/1 array (1 = black) -> minimal bilevel fax TIFF
    (PhotometricInterpretation=0 min-is-white, one strip).
    compression: 4 = G4 MMR (default), 3 = G3 2-D (T4Options=1)."""
    from img2table_ray.imgops.g4 import g3_2d_encode, g4_encode

    h, w = bits.shape
    arr = np.asarray(bits, np.uint8)
    payload = g4_encode(arr) if compression == 4 else g3_2d_encode(arr)
    entries = [
        (256, 4, 1, [w]), (257, 4, 1, [h]), (258, 3, 1, [1]),
        (259, 3, 1, [compression]), (262, 3, 1, [0]), (273, 4, 1, [None]),
        (277, 3, 1, [1]), (278, 4, 1, [h]), (279, 4, 1, [len(payload)]),
    ]
    if compression == 3:
        entries.append((292, 4, 1, [1]))  # T4Options: 2-D coding
    ifd_off = 8
    data_off = ifd_off + 2 + 12 * len(entries) + 4
    out = bytearray(b"II" + struct.pack("<HI", 42, ifd_off))
    out += struct.pack("<H", len(entries))
    for tag, ftype, count, vals in entries:
        v = data_off if tag == 273 else vals[0]
        fmt = "<I" if ftype == 4 else "<HH"
        packed = (struct.pack("<I", v) if ftype == 4
                  else struct.pack("<HH", v, 0))
        out += struct.pack("<HHI", tag, ftype, count) + packed
    out += struct.pack("<I", 0)
    assert len(out) == data_off
    out += payload
    return bytes(out)


# ---- encode (tests + thumbnail sink) ------------------------------------

_COMP_IDS = {"none": 1, "lzw": 5, "deflate": 8, "packbits": 32773}


def encode_tiff(arr: np.ndarray, compression: str = "none",
                rows_per_strip: int | None = None,
                predictor: bool = False, big_endian: bool = False,
                tile: tuple[int, int] | None = None) -> bytes:
    """Encode (H,W) gray or (H,W,3) RGB uint8 -> chunky TIFF; strip layout
    by default, tiled layout when ``tile=(tile_w, tile_len)`` (partial
    edge tiles zero-padded to full tile size per TIFF 6.0)."""
    if compression not in _COMP_IDS:
        raise TiffError(f"unknown compression {compression!r}")
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, spp = arr.shape
    photometric = 1 if spp == 1 else 2
    rps = rows_per_strip or h
    bo = ">" if big_endian else "<"

    def _chunk_bytes(raw_arr: np.ndarray) -> bytes:
        if predictor:
            d = raw_arr.astype(np.int16)
            d[:, 1:] -= raw_arr[:, :-1].astype(np.int16)
            raw_arr = (d & 0xFF).astype(np.uint8)
        raw = raw_arr.tobytes()
        if compression == "none":
            return raw
        if compression == "packbits":
            return packbits(raw)
        if compression == "lzw":
            return lzw_encode_tiff(raw)
        return zlib.compress(raw, 6)

    strips = []
    if tile is not None:
        tw, tl = tile
        if tw % 16 or tl % 16:
            raise TiffError("tile dimensions must be multiples of 16")
        pad = np.zeros((-(-h // tl) * tl, -(-w // tw) * tw, spp), np.uint8)
        pad[:h, :w] = arr
        for ty in range(0, pad.shape[0], tl):
            for tx in range(0, pad.shape[1], tw):
                strips.append(_chunk_bytes(pad[ty : ty + tl, tx : tx + tw]))
    else:
        for y0 in range(0, h, rps):
            strips.append(_chunk_bytes(arr[y0 : y0 + rps]))

    entries = []  # (tag, type, count, values)
    entries.append((256, 4, 1, [w]))
    entries.append((257, 4, 1, [h]))
    entries.append((258, 3, spp, [8] * spp))
    entries.append((259, 3, 1, [_COMP_IDS[compression]]))
    entries.append((262, 3, 1, [photometric]))
    # offsets tag (273 strips / 324 tiles) filled after layout
    entries.append((277, 3, 1, [spp]))
    if tile is not None:
        entries.append((322, 3, 1, [tile[0]]))
        entries.append((323, 3, 1, [tile[1]]))
        entries.append((325, 4, len(strips), [len(s) for s in strips]))
    else:
        entries.append((278, 4, 1, [rps]))
        entries.append((279, 4, len(strips), [len(s) for s in strips]))
    if predictor:
        entries.append((317, 3, 1, [2]))
    off_tag = 324 if tile is not None else 273

    n_strips = len(strips)
    all_tags = sorted([e[0] for e in entries] + [off_tag])
    n_entries = len(all_tags)
    header = 8
    ifd_size = 2 + 12 * n_entries + 4
    # external value area: any entry whose payload exceeds 4 bytes
    ext: dict[int, bytes] = {}

    def pack_vals(ftype: int, vals: list[int]) -> bytes:
        fmt = {3: "H", 4: "I"}[ftype]
        return struct.pack(bo + f"{len(vals)}{fmt}", *vals)

    pos = header + ifd_size
    strip_off_pos = []
    packed: dict[int, tuple[int, int, bytes]] = {}
    for tag, ftype, count, vals in entries:
        buf = pack_vals(ftype, vals)
        packed[tag] = (ftype, count, buf)
    # placeholder for offsets; compute after externals
    ext_order = [t for t, (ft, c, b) in sorted(packed.items()) if len(b) > 4]
    ext_offsets = {}
    for t in ext_order:
        ext_offsets[t] = pos
        pos += len(packed[t][2])
        pos += pos & 1  # word-align
    # strip offsets entry
    off_entry_pos = None
    if n_strips * 4 > 4:
        off_entry_pos = pos
        pos += n_strips * 4
    strip_positions = []
    for s in strips:
        strip_positions.append(pos)
        pos += len(s)
        pos += pos & 1

    out = bytearray()
    out += (b"MM" if big_endian else b"II") + struct.pack(bo + "HI", 42, 8)
    out += struct.pack(bo + "H", n_entries)
    for tag in all_tags:
        if tag == off_tag:
            if off_entry_pos is None:
                val = struct.pack(bo + "I", strip_positions[0])
            else:
                val = struct.pack(bo + "I", off_entry_pos)
            out += struct.pack(bo + "HHI", off_tag, 4, n_strips) + val
        else:
            ftype, count, buf = packed[tag]
            if len(buf) > 4:
                out += struct.pack(bo + "HHI", tag, ftype, count)
                out += struct.pack(bo + "I", ext_offsets[tag])
            else:
                out += struct.pack(bo + "HHI", tag, ftype, count)
                out += buf.ljust(4, b"\x00")
    out += struct.pack(bo + "I", 0)  # next IFD
    for t in ext_order:
        assert len(out) == ext_offsets[t], (len(out), ext_offsets[t])
        out += packed[t][2]
        if len(out) & 1:
            out += b"\x00"
    if off_entry_pos is not None:
        assert len(out) == off_entry_pos
        out += struct.pack(bo + f"{n_strips}I", *strip_positions)
    for s, sp in zip(strips, strip_positions):
        assert len(out) == sp
        out += s
        if len(out) & 1:
            out += b"\x00"
    return bytes(out)
