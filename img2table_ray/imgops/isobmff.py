"""ISO Base Media File Format (MP4/MOV) metadata demux — no decoding.

Implemented from the public ISO/IEC 14496-12 box grammar: walks
``moov`` -> ``mvhd`` (movie timescale/duration) and each video
``trak`` -> ``mdia`` -> ``mdhd``/``hdlr``/``stbl`` (``stts`` sample
timing, ``stsz`` sample count, ``stsd`` codec fourcc + dimensions).

Inter-frame MP4 codecs (H.264/H.265/VP9/AV1) genuinely require a
decoder library this container doesn't have — but a 100 TB web-video
pipeline still wants duration / fps / frame-count / resolution
distributions, which live entirely in the container.  This feeds
``pipelines/multimodal.py:VideoFrameSampleStage`` as the
``metadata_only`` path: real numbers from the real container, pixel
sampling explicitly absent.  ``synth_mp4`` builds a minimal valid
fixture (ftyp+mdat+moov with one video track).

Scale shape: the walk touches only box headers and the small ``stbl``
tables — O(boxes), never O(bytes); a multi-GB clip costs the same as
a tiny one provided ``moov`` is available (for corpus rows it is).
"""

from __future__ import annotations

import struct


def _boxes(data: bytes, pos: int, end: int):
    """Yield (type, body_start, body_end) for the boxes in [pos, end)."""
    while pos + 8 <= end:
        size = int.from_bytes(data[pos : pos + 4], "big")
        btype = data[pos + 4 : pos + 8]
        body = pos + 8
        if size == 1:  # 64-bit largesize
            size = int.from_bytes(data[pos + 8 : pos + 16], "big")
            body = pos + 16
        elif size == 0:  # to end of file
            size = end - pos
        if size < 8 or pos + size > end:
            break
        yield btype, body, pos + size
        pos += size


def _find(data: bytes, pos: int, end: int, btype: bytes):
    for t, b, e in _boxes(data, pos, end):
        if t == btype:
            return b, e
    return None


def parse_mp4(data: bytes) -> dict:
    """-> {duration_s, fps, n_frames, width, height, codec} for the
    first video track (raises ValueError when no moov/video track)."""
    if len(data) < 12 or data[4:8] != b"ftyp":
        raise ValueError("not an ISO-BMFF stream")
    moov = _find(data, 0, len(data), b"moov")
    if moov is None:
        raise ValueError("no moov box")
    out = {"duration_s": None, "fps": None, "n_frames": None,
           "width": None, "height": None, "codec": None}
    mvhd = _find(data, moov[0], moov[1], b"mvhd")
    if mvhd is not None:
        b = mvhd[0]
        ver = data[b]
        if ver == 1:
            ts = int.from_bytes(data[b + 20 : b + 24], "big")
            dur = int.from_bytes(data[b + 24 : b + 32], "big")
        else:
            ts = int.from_bytes(data[b + 12 : b + 16], "big")
            dur = int.from_bytes(data[b + 16 : b + 20], "big")
        if ts:
            out["duration_s"] = round(dur / ts, 3)
    for t, b, e in _boxes(data, moov[0], moov[1]):
        if t != b"trak":
            continue
        mdia = _find(data, b, e, b"mdia")
        if mdia is None:
            continue
        hdlr = _find(data, mdia[0], mdia[1], b"hdlr")
        if hdlr is None or data[hdlr[0] + 8 : hdlr[0] + 12] != b"vide":
            continue
        mdhd = _find(data, mdia[0], mdia[1], b"mdhd")
        minf = _find(data, mdia[0], mdia[1], b"minf")
        if mdhd is None or minf is None:
            continue
        hb = mdhd[0]
        if data[hb] == 1:
            mts = int.from_bytes(data[hb + 20 : hb + 24], "big")
            mdur = int.from_bytes(data[hb + 24 : hb + 32], "big")
        else:
            mts = int.from_bytes(data[hb + 12 : hb + 16], "big")
            mdur = int.from_bytes(data[hb + 16 : hb + 20], "big")
        stbl = _find(data, minf[0], minf[1], b"stbl")
        if stbl is None:
            continue
        stsz = _find(data, stbl[0], stbl[1], b"stsz")
        if stsz is not None:
            sb = stsz[0]
            out["n_frames"] = int.from_bytes(data[sb + 8 : sb + 12], "big")
        stts = _find(data, stbl[0], stbl[1], b"stts")
        if stts is not None and mts:
            sb = stts[0]
            n_ent = int.from_bytes(data[sb + 4 : sb + 8], "big")
            if sb + 8 + 8 * n_ent > stts[1]:  # count exceeds box extent
                raise ValueError("stts table exceeds its box")
            total_n = total_t = 0
            for i in range(n_ent):
                cnt = int.from_bytes(
                    data[sb + 8 + 8 * i : sb + 12 + 8 * i], "big")
                delta = int.from_bytes(
                    data[sb + 12 + 8 * i : sb + 16 + 8 * i], "big")
                total_n += cnt
                total_t += cnt * delta
            if total_t:
                out["fps"] = round(total_n * mts / total_t, 3)
        stsd = _find(data, stbl[0], stbl[1], b"stsd")
        if stsd is not None:
            sb = stsd[0]
            if int.from_bytes(data[sb + 4 : sb + 8], "big") >= 1:
                entry = sb + 8
                out["codec"] = data[entry + 4 : entry + 8].decode(
                    "ascii", "replace")
                out["width"] = int.from_bytes(
                    data[entry + 32 : entry + 34], "big")
                out["height"] = int.from_bytes(
                    data[entry + 34 : entry + 36], "big")
        if out["duration_s"] is None and mts:
            out["duration_s"] = round(mdur / mts, 3)
        break
    if out["n_frames"] is None:
        raise ValueError("no video track in moov")
    return out


# --- box writers (fixture builders) ----------------------------------------

def _box(btype: bytes, body: bytes) -> bytes:
    return struct.pack(">I", len(body) + 8) + btype + body


def _full(btype: bytes, body: bytes, ver: int = 0) -> bytes:
    """A full box: version byte + 24 flag bits, then ``body``."""
    return _box(btype, bytes([ver, 0, 0, 0]) + body)


def _visual_entry(fourcc: bytes, w: int, h: int) -> bytes:
    """stsd visual sample entry (72 dpi, one frame per sample, 24-bit)."""
    return _box(fourcc, b"\x00" * 6 + struct.pack(">H", 1) + b"\x00" * 16
                + struct.pack(">HH", w, h)
                + struct.pack(">II", 0x00480000, 0x00480000)
                + struct.pack(">I", 0) + struct.pack(">H", 1) + b"\x00" * 32
                + struct.pack(">Hh", 0x18, -1))


def _moov(handler: bytes, ts: int, dur: int, stbl: bytes, w: int = 0,
          h: int = 0) -> bytes:
    """moov for one ``handler`` (b'vide'/b'soun') track of ``dur`` ticks
    at timescale ``ts`` (movie and media alike) over the tables ``stbl``."""
    matrix = struct.pack(">9i", 0x00010000, 0, 0, 0, 0x00010000, 0, 0, 0,
                         0x40000000)
    mvhd = _full(b"mvhd", struct.pack(">IIII", 0, 0, ts, dur)
                 + struct.pack(">i", 0x00010000) + struct.pack(">h", 0x0100)
                 + b"\x00" * 10 + matrix + b"\x00" * 24
                 + struct.pack(">I", 2))
    tkhd = _full(b"tkhd", struct.pack(">IIIII", 0, 0, 1, 0, dur)
                 + b"\x00" * 16 + matrix + struct.pack(">II", w << 16, h << 16))
    mdhd = _full(b"mdhd", struct.pack(">IIII", 0, 0, ts, dur)
                 + struct.pack(">HH", 0x55C4, 0))
    video = handler == b"vide"
    hdlr = _full(b"hdlr", struct.pack(">I", 0) + handler + b"\x00" * 12
                 + (b"VideoHandler\x00" if video else b"SoundHandler\x00"))
    xmhd = _full(b"vmhd", bytes(8)) if video else _full(b"smhd", bytes(4))
    dinf = _box(b"dinf", _full(b"dref", struct.pack(">I", 1)
                               + _box(b"url ", bytes([0, 0, 0, 1]))))
    minf = _box(b"minf", xmhd + dinf + stbl)
    trak = _box(b"trak", tkhd + _box(b"mdia", mdhd + hdlr + minf))
    return _box(b"moov", mvhd + trak)


def synth_mp4(seed: int) -> bytes:
    """Minimal valid ISO-BMFF fixture: ftyp + empty mdat + moov with one
    avc1 video track (headers only — sample data stays in the empty
    mdat; this is a METADATA fixture for the metadata_only path)."""
    fps = 24 + seed % 6
    n_frames = 48 + (seed % 10) * fps
    w, h = 320 + 16 * (seed % 8), 240 + 16 * (seed % 5)
    stbl = _box(b"stbl", _full(b"stsd", struct.pack(">I", 1)
                               + _visual_entry(b"avc1", w, h))
                + _full(b"stts", struct.pack(">III", 1, n_frames, 1000))
                + _full(b"stsc", struct.pack(">I", 0))
                + _full(b"stsz", struct.pack(">II", 0, n_frames))
                + _full(b"stco", struct.pack(">I", 0)))
    ftyp = _box(b"ftyp", b"isom" + struct.pack(">I", 512) + b"isomiso2")
    return (ftyp + _box(b"mdat", b"")
            + _moov(b"vide", fps * 1000, n_frames * 1000, stbl, w, h))


# --- sample extraction (round 5): MJPEG tracks decode for REAL -------------
#
# ISO/IEC 14496-12 sample tables fully locate every video sample:
# stsc maps samples to chunks, stco/co64 gives chunk file offsets,
# stsz gives per-sample byte sizes; samples are contiguous within a
# chunk.  For 'jpeg'/'mjpa'/'MJPG'-coded tracks each sample is one
# JPEG image, which the in-repo T.81 decoder (imgops/jpeg.py) handles —
# no external codec needed.  Inter-frame codecs still stop at
# parse_mp4's metadata walk.

MJPEG_FOURCC = (b"jpeg", b"mjpa", b"MJPG", b"mjpb", b"dmb1", b"AVDJ")


def _track_tables(data: bytes, kind: bytes):
    """Locate the first ``kind`` (b'vide'/b'soun') track's samples.

    -> dict with ``locs`` [(abs_offset, size)], ``codec`` fourcc,
    ``entry`` (stsd sample-entry body start), ``mts`` media timescale,
    ``mdur`` media duration (ticks), ``rate`` samples-or-frames/s from
    stts.  Raises ValueError when no such track / unusable tables."""
    if len(data) < 12 or data[4:8] != b"ftyp":
        raise ValueError("not an ISO-BMFF stream")
    moov = _find(data, 0, len(data), b"moov")
    if moov is None:
        raise ValueError("no moov box")
    for t, b, e in _boxes(data, moov[0], moov[1]):
        if t != b"trak":
            continue
        mdia = _find(data, b, e, b"mdia")
        if mdia is None:
            continue
        hdlr = _find(data, mdia[0], mdia[1], b"hdlr")
        if hdlr is None or data[hdlr[0] + 8 : hdlr[0] + 12] != kind:
            continue
        mdhd = _find(data, mdia[0], mdia[1], b"mdhd")
        minf = _find(data, mdia[0], mdia[1], b"minf")
        if mdhd is None or minf is None:
            continue
        hb = mdhd[0]
        wide_t = data[hb] == 1
        mts = int.from_bytes(
            data[hb + (20 if wide_t else 12) :][:4], "big")
        mdur = int.from_bytes(
            data[hb + 24 : hb + 32] if wide_t else data[hb + 16 : hb + 20],
            "big")
        stbl = _find(data, minf[0], minf[1], b"stbl")
        if stbl is None:
            continue
        stsd = _find(data, stbl[0], stbl[1], b"stsd")
        codec = b"????"
        entry = None
        if stsd is not None and int.from_bytes(
                data[stsd[0] + 4 : stsd[0] + 8], "big") >= 1:
            codec = data[stsd[0] + 12 : stsd[0] + 16]
            entry = stsd[0] + 16  # sample-entry body (after size+type)
        # sample sizes
        stsz = _find(data, stbl[0], stbl[1], b"stsz")
        if stsz is None:
            raise ValueError("no stsz box")
        sb = stsz[0]
        fixed = int.from_bytes(data[sb + 4 : sb + 8], "big")
        n = int.from_bytes(data[sb + 8 : sb + 12], "big")
        # a corrupt count field (up to 2^32) must not drive the table
        # loops: a declared count the box/stream cannot hold is garbage
        if fixed:
            if n > len(data):
                raise ValueError("stsz sample count exceeds stream size")
            sizes = [fixed] * n
        else:
            if sb + 12 + 4 * n > stsz[1]:
                raise ValueError("stsz table exceeds its box")
            sizes = [int.from_bytes(
                data[sb + 12 + 4 * i : sb + 16 + 4 * i], "big")
                for i in range(n)]
        # chunk offsets
        stco = _find(data, stbl[0], stbl[1], b"stco")
        wide = False
        if stco is None:
            stco = _find(data, stbl[0], stbl[1], b"co64")
            wide = True
        if stco is None:
            raise ValueError("no stco/co64 box")
        cb = stco[0]
        n_chunks = int.from_bytes(data[cb + 4 : cb + 8], "big")
        step = 8 if wide else 4
        if cb + 8 + step * n_chunks > stco[1]:
            raise ValueError("stco table exceeds its box")
        chunk_offs = [int.from_bytes(
            data[cb + 8 + step * i : cb + 8 + step * (i + 1)], "big")
            for i in range(n_chunks)]
        # samples per chunk (stsc runs extend to the next first_chunk)
        stsc = _find(data, stbl[0], stbl[1], b"stsc")
        if stsc is None:
            raise ValueError("no stsc box")
        kb = stsc[0]
        n_ent = int.from_bytes(data[kb + 4 : kb + 8], "big")
        if kb + 8 + 12 * n_ent > stsc[1]:
            raise ValueError("stsc table exceeds its box")
        runs = [(int.from_bytes(data[kb + 8 + 12 * i : kb + 12 + 12 * i],
                                "big"),
                 int.from_bytes(data[kb + 12 + 12 * i : kb + 16 + 12 * i],
                                "big")) for i in range(n_ent)]
        spc = [0] * n_chunks
        for i, (first, per) in enumerate(runs):
            last = runs[i + 1][0] - 1 if i + 1 < len(runs) else n_chunks
            for c in range(first - 1, min(last, n_chunks)):
                spc[c] = per
        # walk chunks -> absolute (offset, size) per sample
        locs: "list[tuple[int, int]]" = []
        si = 0
        for c in range(n_chunks):
            off = chunk_offs[c]
            for _ in range(spc[c]):
                if si >= n:
                    break
                locs.append((off, sizes[si]))
                off += sizes[si]
                si += 1
        if len(locs) != n or n == 0:
            raise ValueError("inconsistent sample tables")
        # samples/s (video: fps) from stts against the media timescale
        rate = 0.0
        stts = _find(data, stbl[0], stbl[1], b"stts")
        if stts is not None and mts:
            tb = stts[0]
            ne = int.from_bytes(data[tb + 4 : tb + 8], "big")
            if tb + 8 + 8 * ne > stts[1]:
                raise ValueError("stts table exceeds its box")
            tot_n = tot_t = 0
            for i in range(ne):
                cnt = int.from_bytes(
                    data[tb + 8 + 8 * i : tb + 12 + 8 * i], "big")
                dt = int.from_bytes(
                    data[tb + 12 + 8 * i : tb + 16 + 8 * i], "big")
                tot_n += cnt
                tot_t += cnt * dt
            if tot_t:
                rate = tot_n * mts / tot_t
        return {"locs": locs, "codec": codec, "entry": entry,
                "mts": mts, "mdur": mdur, "rate": rate}
    raise ValueError(f"no {kind.decode('ascii', 'replace')} track in moov")


def mp4_samples(data: bytes):
    """-> (fps, n_samples, get(i) -> sample bytes, codec_fourcc) for the
    first video track.  Raises ValueError when there is no video track
    or the sample tables are unusable."""
    t = _track_tables(data, b"vide")
    locs = t["locs"]

    def get(i: int) -> bytes:
        off, sz = locs[i]
        if off + sz > len(data):
            raise ValueError("sample outside file")
        return data[off : off + sz]

    return t["rate"] or 25.0, len(locs), get, t["codec"]


# MOV/ISO-BMFF audio codecs decodable without a codec library: raw PCM
# byte orders and G.711.  'mp4a' (AAC) stays on the metadata path.
PCM_AUDIO_FOURCC = (b"twos", b"sowt", b"raw ", b"ulaw", b"alaw",
                    b"fl32", b"fl64", b"in24", b"in32")


def mp4_audio(data: bytes):
    """-> {codec, sample_rate, channels, bits, duration_s, payload} for
    the first audio track; ``payload`` is the concatenated sample bytes
    for PCM/G.711 codecs and None for codec-requiring ones (AAC...)."""
    t = _track_tables(data, b"soun")
    eb = t["entry"]
    channels = bits = 0
    rate = 0
    if eb is not None:
        channels = int.from_bytes(data[eb + 16 : eb + 18], "big")
        bits = int.from_bytes(data[eb + 18 : eb + 20], "big")
        rate = int.from_bytes(data[eb + 24 : eb + 26], "big")  # 16.16 int
    if not rate:
        rate = t["mts"]
    duration = round(t["mdur"] / t["mts"], 3) if t["mts"] else None
    payload = None
    if t["codec"] in PCM_AUDIO_FOURCC:
        payload = b"".join(
            data[o : o + s] for o, s in t["locs"]
            if o + s <= len(data))
    return {"codec": t["codec"], "sample_rate": rate,
            "channels": max(channels, 1), "bits": bits,
            "duration_s": duration, "payload": payload}


def synth_mp4_mjpeg(seed: int) -> bytes:
    """ISO-BMFF fixture with a REAL MJPEG video track: mdat carries
    JPEG frames from the in-repo encoder; moov's stsz/stsc/stco locate
    them (two chunks, to exercise the stsc run expansion)."""
    import numpy as np

    from img2table_ray.imgops.jpeg import encode_jpeg

    fps = 10 + seed % 5
    n_frames = 5 + seed % 4
    w, h = 48 + 16 * (seed % 3), 32 + 16 * (seed % 2)
    frames = []
    yy, xx = np.mgrid[0:h, 0:w]
    for i in range(n_frames):
        img = np.empty((h, w, 3), np.uint8)
        img[..., 0] = ((xx * (3 + seed % 5) + i * 17) % 256).astype(np.uint8)
        img[..., 1] = ((yy * (2 + seed % 7) + i * 29) % 256).astype(np.uint8)
        img[..., 2] = ((xx + yy + i * 41 + seed) % 256).astype(np.uint8)
        frames.append(encode_jpeg(img, quality=85))

    ftyp = _box(b"ftyp", b"qt  " + struct.pack(">I", 0) + b"qt  ")
    mdat = _box(b"mdat", b"".join(frames))
    base = len(ftyp) + 8  # first sample's absolute offset
    # two chunks: first ceil(n/2) samples, then the rest
    n1 = (n_frames + 1) // 2
    off2 = base + sum(len(f) for f in frames[:n1])
    stbl = _box(b"stbl", _full(b"stsd", struct.pack(">I", 1)
                               + _visual_entry(b"jpeg", w, h))
                + _full(b"stts", struct.pack(">III", 1, n_frames, 1000))
                + _full(b"stsc", struct.pack(">I", 2)
                        + struct.pack(">III", 1, n1, 1)
                        + struct.pack(">III", 2, n_frames - n1, 1))
                + _full(b"stsz", struct.pack(">II", 0, n_frames)
                        + b"".join(struct.pack(">I", len(f)) for f in frames))
                + _full(b"stco", struct.pack(">I", 2)
                        + struct.pack(">II", base, off2)))
    return ftyp + mdat + _moov(b"vide", fps * 1000, n_frames * 1000, stbl,
                               w, h)


def _mov_audio_boxes(codec: bytes, rate: int, channels: int, bits: int,
                     n_frames: int, chunks: "list[bytes]",
                     base: int, mdur: "int | None" = None) -> bytes:
    """moov box for one audio track whose sample data sits at ``base``
    (each stsz sample = one PCM frame; one stsc run per chunk size)."""
    bpf = max(1, bits // 8) * channels  # bytes per PCM frame
    entry = _box(codec, b"\x00" * 6 + struct.pack(">H", 1)
                 + struct.pack(">HHI", 0, 0, 0)
                 + struct.pack(">HHHH", channels, bits, 0, 0)
                 + struct.pack(">I", rate << 16))
    spc = [len(c) // bpf for c in chunks]
    stsc_runs = b""
    n_runs = 0
    prev = None
    for ci, per in enumerate(spc):
        if per != prev:
            stsc_runs += struct.pack(">III", ci + 1, per, 1)
            n_runs += 1
            prev = per
    offs = []
    off = base
    for c in chunks:
        offs.append(off)
        off += len(c)
    stbl = _box(b"stbl", _full(b"stsd", struct.pack(">I", 1) + entry)
                + _full(b"stts", struct.pack(">III", 1, n_frames, 1))
                + _full(b"stsc", struct.pack(">I", n_runs) + stsc_runs)
                + _full(b"stsz", struct.pack(">II", bpf, n_frames))
                + _full(b"stco", struct.pack(">I", len(chunks))
                        + b"".join(struct.pack(">I", o) for o in offs)))
    return _moov(b"soun", rate, n_frames if mdur is None else mdur, stbl)


def synth_mov_pcm(seed: int, samples, rate: int,
                  codec: bytes = b"twos") -> bytes:
    """MOV/ISO-BMFF fixture with a REAL PCM ('twos' big-endian /
    'sowt' little-endian int16) or G.711 ('ulaw'/'alaw') audio track,
    sample data split over two chunks."""
    import numpy as np

    x = np.asarray(samples, np.int16)
    if x.ndim == 1:
        x = x[:, None]
    channels = x.shape[1]
    if codec == b"twos":
        payload, bits = x.reshape(-1).astype(">i2").tobytes(), 16
    elif codec == b"sowt":
        payload, bits = x.reshape(-1).astype("<i2").tobytes(), 16
    elif codec in (b"ulaw", b"alaw"):
        from img2table_ray.imgops.g711 import alaw_encode, ulaw_encode

        enc = ulaw_encode if codec == b"ulaw" else alaw_encode
        payload, bits = enc(x.reshape(-1)), 8
    else:
        raise ValueError(codec)
    n_frames = x.shape[0]
    bpf = (bits // 8) * channels
    cut = (n_frames // 2) * bpf
    chunks = [payload[:cut], payload[cut:]]
    ftyp = _box(b"ftyp", b"qt  " + struct.pack(">I", 0) + b"qt  ")
    mdat = _box(b"mdat", payload)
    base = len(ftyp) + 8
    moov = _mov_audio_boxes(codec, rate, channels, bits, n_frames,
                            chunks, base)
    return ftyp + mdat + moov


def synth_m4a(seed: int) -> bytes:
    """ISO-BMFF audio METADATA fixture: an 'mp4a' (AAC) track whose
    headers carry real duration/rate/channels but whose payload needs a
    codec — the audio stage's metadata_only path for .m4a rows."""
    rate = int(8000 * (1 + seed % 3))
    n_samples = rate // 4 + (seed % 7) * 100
    channels = 1 + seed % 2
    # 64 placeholder "AAC frames" in the table; the real duration lives
    # in mdhd (n_samples ticks at the rate timescale)
    bpf = 2 * channels
    payload = b"\x00" * (64 * bpf)
    ftyp = _box(b"ftyp", b"M4A " + struct.pack(">I", 0) + b"M4A mp42")
    mdat = _box(b"mdat", payload)
    moov = _mov_audio_boxes(b"mp4a", rate, channels, 16, 64,
                            [payload], len(ftyp) + 8, mdur=n_samples)
    return ftyp + mdat + moov
