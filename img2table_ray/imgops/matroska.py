"""Matroska/WebM (EBML): metadata walk + REAL V_MJPEG block decode.

Implemented from the public EBML (RFC 8794) and Matroska element
registries: Segment -> Info (TimecodeScale, Duration) and Tracks ->
TrackEntry (TrackType, CodecID, DefaultDuration, Video PixelWidth/
PixelHeight).  Inter-frame payload decode (VP8/VP9/AV1/H.264)
genuinely needs a codec library, so those tracks stop at the
``metadata_only`` walk — but V_MJPEG tracks carry one JPEG per block
frame, which ``mkv_samples`` locates via the Cluster/SimpleBlock
grammar (incl. Xiph/EBML/fixed lacing) and the in-repo T.81 decoder
renders.  Feeds ``pipelines/multimodal.py:VideoFrameSampleStage``.
``synth_webm`` / ``synth_webm_mjpeg`` build minimal valid fixtures.

Scale shape: the metadata walk descends only Segment/Info/Tracks —
Clusters (the bulk of a real file) are skipped by their declared
size, so cost is O(header elements); the block walk touches block
HEADERS only, and just the sampled frames ever decode.
"""

from __future__ import annotations

import struct


def _read_vint(data: bytes, pos: int, keep_marker: bool) -> tuple[int, int]:
    """EBML variable-width int at pos -> (value, next_pos)."""
    if pos >= len(data):
        raise ValueError("EBML truncated")
    b0 = data[pos]
    if b0 == 0:
        raise ValueError("invalid EBML vint")
    length = 8 - b0.bit_length() + 1
    if pos + length > len(data):
        raise ValueError("EBML truncated")
    v = b0 if keep_marker else b0 & ((1 << (8 - length)) - 1)
    for i in range(1, length):
        v = (v << 8) | data[pos + i]
    return v, pos + length


def _elements(data: bytes, pos: int, end: int):
    """Yield (element_id, body_start, body_end) within [pos, end)."""
    while pos < end:
        eid, pos = _read_vint(data, pos, keep_marker=True)
        size, pos = _read_vint(data, pos, keep_marker=False)
        body_end = min(pos + size, end)
        yield eid, pos, body_end
        pos = body_end


def _uint(data: bytes, start: int, end: int) -> int:
    v = 0
    for i in range(start, end):
        v = (v << 8) | data[i]
    return v


def _float(data: bytes, start: int, end: int) -> float:
    n = end - start
    if n == 4:
        return struct.unpack(">f", data[start:end])[0]
    if n == 8:
        return struct.unpack(">d", data[start:end])[0]
    raise ValueError(f"bad EBML float width {n}")


def parse_webm(data: bytes) -> dict:
    """-> {duration_s, fps, n_frames, width, height, codec} for the
    first video track (fps/n_frames from DefaultDuration when present)."""
    if data[:4] != b"\x1a\x45\xdf\xa3":
        raise ValueError("not an EBML/Matroska stream")
    segment = None
    for eid, b, e in _elements(data, 0, len(data)):
        if eid == 0x18538067:  # Segment
            segment = (b, e)
            break
    if segment is None:
        raise ValueError("no Matroska Segment")
    scale = 1_000_000  # ns per tick (TimecodeScale default)
    dur_ticks = None
    out = {"duration_s": None, "fps": None, "n_frames": None,
           "width": None, "height": None, "codec": None}
    for eid, b, e in _elements(data, segment[0], segment[1]):
        if eid == 0x1549A966:  # Info
            for i2, b2, e2 in _elements(data, b, e):
                if i2 == 0x2AD7B1:
                    scale = _uint(data, b2, e2)
                elif i2 == 0x4489:
                    dur_ticks = _float(data, b2, e2)
        elif eid == 0x1654AE6B:  # Tracks
            for i2, b2, e2 in _elements(data, b, e):
                if i2 != 0xAE:  # TrackEntry
                    continue
                ttype = None
                codec = None
                defdur = None
                width = height = None
                for i3, b3, e3 in _elements(data, b2, e2):
                    if i3 == 0x83:
                        ttype = _uint(data, b3, e3)
                    elif i3 == 0x86:
                        codec = data[b3:e3].decode("ascii", "replace")
                    elif i3 == 0x23E383:
                        defdur = _uint(data, b3, e3)  # ns per frame
                    elif i3 == 0xE0:  # Video
                        for i4, b4, e4 in _elements(data, b3, e3):
                            if i4 == 0xB0:
                                width = _uint(data, b4, e4)
                            elif i4 == 0xBA:
                                height = _uint(data, b4, e4)
                if ttype == 1 and out["codec"] is None:
                    out["codec"] = codec
                    out["width"] = width
                    out["height"] = height
                    if defdur:
                        out["fps"] = round(1e9 / defdur, 3)
    if out["codec"] is None:
        raise ValueError("no video track in Matroska stream")
    if dur_ticks is not None:
        out["duration_s"] = round(dur_ticks * scale / 1e9, 3)
        if out["fps"]:
            out["n_frames"] = int(round(out["duration_s"] * out["fps"]))
    return out


# --- element writers (fixture builders) ------------------------------------

def _vint_size(v: int) -> bytes:
    """A size in the fewest marker-prefixed bytes."""
    for length in range(1, 9):
        if v < (1 << (7 * length)) - 1:
            return (v | (1 << (7 * length))).to_bytes(length, "big")
    raise ValueError("size too large")


def _elem(eid: int, body: bytes) -> bytes:
    nid = (eid.bit_length() + 7) // 8
    return eid.to_bytes(nid, "big") + _vint_size(len(body)) + body


def _u(v: int) -> bytes:
    return v.to_bytes(max(1, (v.bit_length() + 7) // 8), "big")


def _file(doctype: bytes, dur_ms: float, body: bytes) -> bytes:
    """EBML header + Segment: Info (1 ms TimecodeScale, Duration), then
    ``body`` (Tracks and Clusters)."""
    ebml = _elem(0x1A45DFA3,
                 _elem(0x4286, _u(1)) + _elem(0x42F7, _u(1))
                 + _elem(0x42F2, _u(4)) + _elem(0x42F3, _u(8))
                 + _elem(0x4282, doctype) + _elem(0x4287, _u(4))
                 + _elem(0x4285, _u(2)))
    info = _elem(0x1549A966,
                 _elem(0x2AD7B1, _u(1_000_000))
                 + _elem(0x4489, struct.pack(">d", dur_ms)))
    return ebml + _elem(0x18538067, info + body)


def _video_tracks(codec: bytes, fps: int, w: int, h: int) -> bytes:
    video = _elem(0xE0, _elem(0xB0, _u(w)) + _elem(0xBA, _u(h)))
    return _elem(0x1654AE6B, _elem(
        0xAE, _elem(0xD7, _u(1)) + _elem(0x73C5, _u(1)) + _elem(0x83, _u(1))
        + _elem(0x86, codec) + _elem(0x23E383, _u(round(1e9 / fps)))
        + video))


def _simpleblock(frame: bytes, tc: int) -> bytes:
    return _elem(0xA3, b"\x81" + struct.pack(">h", tc) + b"\x80" + frame)


def synth_webm(seed: int) -> bytes:
    """Minimal valid WebM METADATA fixture: EBML header + Segment with
    Info (TimecodeScale, Duration) and one VP9 video TrackEntry with
    DefaultDuration and pixel dimensions (no Clusters — metadata_only)."""
    fps = 24 + seed % 6
    n_frames = 48 + (seed % 10) * fps
    w, h = 640 + 16 * (seed % 8), 360 + 16 * (seed % 5)
    return _file(b"webm", n_frames * 1000.0 / fps,
                 _video_tracks(b"V_VP9", fps, w, h))


# --- block extraction (round 5): V_MJPEG tracks decode for REAL ------------
#
# Matroska Clusters carry SimpleBlocks / BlockGroup>Blocks whose payload
# frames are fully located by the public block grammar (track vint,
# 16-bit timecode, flags, optional Xiph/EBML/fixed lacing).  For
# CodecID V_MJPEG each frame is one JPEG image, decodable by the
# in-repo T.81 decoder — no codec library needed.  Inter-frame codecs
# (VP8/VP9/AV1/H.264) still stop at parse_webm's metadata walk.


def _block_frames(data: bytes, b: int, e: int, want_track: int):
    """Frame (start, end) spans inside one (Simple)Block body."""
    track, pos = _read_vint(data, b, keep_marker=False)
    if track != want_track or pos + 3 > e:
        return []
    flags = data[pos + 2]
    pos += 3
    lacing = (flags >> 1) & 3
    if lacing == 0:  # no lacing: the rest is one frame
        return [(pos, e)]
    n_frames = data[pos] + 1
    pos += 1
    sizes = []
    if lacing == 2:  # fixed-size lacing
        per = (e - pos) // n_frames
        sizes = [per] * n_frames
    elif lacing == 1:  # Xiph: 255-sums for all but the last frame
        for _ in range(n_frames - 1):
            sz = 0
            while True:
                v = data[pos]
                pos += 1
                sz += v
                if v != 255:
                    break
            sizes.append(sz)
        sizes.append(e - pos - sum(sizes))
    else:  # EBML lacing: first size plain, then signed-vint deltas
        first, pos = _read_vint(data, pos, keep_marker=False)
        sizes.append(first)
        for _ in range(n_frames - 2):
            raw_pos = pos
            delta, pos = _read_vint(data, pos, keep_marker=False)
            nbytes = pos - raw_pos
            delta -= (1 << (7 * nbytes - 1)) - 1  # signed bias
            sizes.append(sizes[-1] + delta)
        if n_frames >= 2:
            sizes.append(e - pos - sum(sizes))
    out = []
    for sz in sizes:
        out.append((pos, min(pos + sz, e)))
        pos += sz
    return out


def _track_blocks(data: bytes, ttype_want: int):
    """First track of EBML TrackType ``ttype_want`` (1=video, 2=audio)
    -> dict with block-frame ``spans``, ``codec``, ``defdur`` (ns),
    ``audio`` {rate, channels, bits}, ``codec_private`` bytes, and the
    Segment Info ``duration_s``."""
    if data[:4] != b"\x1a\x45\xdf\xa3":
        raise ValueError("not an EBML/Matroska stream")
    segment = None
    for eid, b, e in _elements(data, 0, len(data)):
        if eid == 0x18538067:
            segment = (b, e)
            break
    if segment is None:
        raise ValueError("no Matroska Segment")
    track_num = None
    codec = None
    defdur = None
    priv = b""
    audio = {"rate": 0.0, "channels": 1, "bits": 0}
    scale = 1_000_000
    dur_ticks = None
    spans: "list[tuple[int, int]]" = []
    for eid, b, e in _elements(data, segment[0], segment[1]):
        if eid == 0x1549A966:  # Info
            for i2, b2, e2 in _elements(data, b, e):
                if i2 == 0x2AD7B1:
                    scale = _uint(data, b2, e2)
                elif i2 == 0x4489:
                    dur_ticks = _float(data, b2, e2)
        elif eid == 0x1654AE6B:  # Tracks
            for i2, b2, e2 in _elements(data, b, e):
                if i2 != 0xAE or track_num is not None:
                    continue
                tnum = ttype = dd = None
                cid = None
                pv = b""
                au = dict(audio)
                for i3, b3, e3 in _elements(data, b2, e2):
                    if i3 == 0xD7:
                        tnum = _uint(data, b3, e3)
                    elif i3 == 0x83:
                        ttype = _uint(data, b3, e3)
                    elif i3 == 0x86:
                        cid = data[b3:e3].decode("ascii", "replace")
                    elif i3 == 0x23E383:
                        dd = _uint(data, b3, e3)
                    elif i3 == 0x63A2:  # CodecPrivate
                        pv = data[b3:e3]
                    elif i3 == 0xE1:  # Audio
                        for i4, b4, e4 in _elements(data, b3, e3):
                            if i4 == 0xB5:
                                au["rate"] = _float(data, b4, e4)
                            elif i4 == 0x9F:
                                au["channels"] = _uint(data, b4, e4)
                            elif i4 == 0x6264:
                                au["bits"] = _uint(data, b4, e4)
                if ttype == ttype_want and tnum is not None:
                    track_num = tnum
                    codec = cid
                    defdur = dd
                    priv = pv
                    audio = au
        elif eid == 0x1F43B675 and track_num is not None:  # Cluster
            for i2, b2, e2 in _elements(data, b, e):
                if i2 == 0xA3:  # SimpleBlock
                    spans.extend(_block_frames(data, b2, e2, track_num))
                elif i2 == 0xA0:  # BlockGroup
                    for i3, b3, e3 in _elements(data, b2, e2):
                        if i3 == 0xA1:  # Block
                            spans.extend(
                                _block_frames(data, b3, e3, track_num))
    if track_num is None:
        raise ValueError(
            f"no type-{ttype_want} track in Matroska stream")
    duration_s = (round(dur_ticks * scale / 1e9, 3)
                  if dur_ticks is not None else None)
    return {"spans": spans, "codec": codec, "defdur": defdur,
            "audio": audio, "codec_private": priv,
            "duration_s": duration_s}


def mkv_samples(data: bytes):
    """-> (fps, n_frames, get(i) -> frame bytes, codec) for the first
    video track's blocks.  Raises ValueError when there is no video
    track or no blocks."""
    t = _track_blocks(data, 1)
    frames = t["spans"]
    codec = t["codec"]
    fps = 1e9 / t["defdur"] if t["defdur"] else 0.0
    if not frames:
        raise ValueError("no video blocks in Matroska stream")

    def get(i: int) -> bytes:
        s, t = frames[i]
        return data[s:t]

    return fps or 25.0, len(frames), get, codec or "?"


def synth_webm_mjpeg(seed: int) -> bytes:
    """Matroska fixture with a REAL V_MJPEG video track: Clusters carry
    JPEG frames from the in-repo encoder — the first Cluster uses
    unlaced SimpleBlocks, the second packs the remaining frames into one
    Xiph-laced SimpleBlock (exercising the lacing walk)."""
    import numpy as np

    from img2table_ray.imgops.jpeg import encode_jpeg

    fps = 10 + seed % 5
    n_frames = 6 + seed % 4
    w, h = 48 + 16 * (seed % 3), 32 + 16 * (seed % 2)
    yy, xx = np.mgrid[0:h, 0:w]
    jpegs = []
    for i in range(n_frames):
        img = np.empty((h, w, 3), np.uint8)
        img[..., 0] = ((xx * (2 + seed % 5) + i * 13) % 256).astype(np.uint8)
        img[..., 1] = ((yy * (3 + seed % 4) + i * 31) % 256).astype(np.uint8)
        img[..., 2] = ((xx + 2 * yy + i * 43 + seed) % 256).astype(np.uint8)
        jpegs.append(encode_jpeg(img, quality=85))

    n1 = (n_frames + 1) // 2
    cluster1 = _elem(0x1F43B675, _elem(0xE7, _u(0)) + b"".join(
        _simpleblock(jpegs[i], i * 1000 // fps) for i in range(n1)))
    rest = jpegs[n1:]
    lace = bytes([len(rest) - 1])
    for f in rest[:-1]:
        sz = len(f)
        lace += b"\xff" * (sz // 255) + bytes([sz % 255])
    laced = (b"\x81" + struct.pack(">h", 0) + bytes([0x80 | 0x02])
             + lace + b"".join(rest))
    cluster2 = _elem(0x1F43B675, _elem(0xE7, _u(n1 * 1000 // fps))
                     + _elem(0xA3, laced))
    return _file(b"matroska", n_frames * 1000.0 / fps,
                 _video_tracks(b"V_MJPEG", fps, w, h) + cluster1 + cluster2)


def mkv_audio(data: bytes) -> dict:
    """First audio track -> {codec, sample_rate, channels, bits,
    duration_s, codec_private, payload} where ``payload`` is the
    concatenated block bytes (PCM samples for A_PCM/*, FLAC frames for
    A_FLAC whose native header sits in ``codec_private``)."""
    t = _track_blocks(data, 2)
    payload = b"".join(data[s:e] for s, e in t["spans"])
    return {"codec": t["codec"] or "",
            "sample_rate": int(round(t["audio"]["rate"])),
            "channels": t["audio"]["channels"] or 1,
            "bits": t["audio"]["bits"],
            "duration_s": t["duration_s"],
            "codec_private": t["codec_private"],
            "payload": payload}


def synth_mkv_audio(seed: int, samples, rate: int,
                    codec: str = "A_PCM/INT/LIT") -> bytes:
    """Matroska audio fixture: one audio TrackEntry
    (SamplingFrequency/Channels/BitDepth) + Clusters of SimpleBlocks.
    A_PCM/INT/{LIT,BIG} carry int16 PCM, A_PCM/FLOAT/IEEE carries f32,
    A_FLAC puts the native header in CodecPrivate and one FLAC frame
    stream across the blocks."""
    import numpy as np

    x = np.asarray(samples, np.int16)
    if x.ndim == 1:
        x = x[:, None]
    channels = x.shape[1]
    priv = b""
    if codec == "A_PCM/INT/LIT":
        payload, bits = x.reshape(-1).astype("<i2").tobytes(), 16
    elif codec == "A_PCM/INT/BIG":
        payload, bits = x.reshape(-1).astype(">i2").tobytes(), 16
    elif codec == "A_PCM/FLOAT/IEEE":
        payload = (x.reshape(-1).astype(np.float32)
                   / np.float32(32768.0)).astype("<f4").tobytes()
        bits = 32
    elif codec == "A_FLAC":
        from img2table_ray.imgops.flac import encode_flac

        native = encode_flac(x if channels > 1 else x[:, 0], rate,
                             blocksize=1024)
        priv, payload, bits = native[:42], native[42:], 16
    else:
        raise ValueError(codec)

    dur_ms = x.shape[0] * 1000.0 / rate
    audio = _elem(0xE1, _elem(0xB5, struct.pack(">d", float(rate)))
                  + _elem(0x9F, _u(channels)) + _elem(0x6264, _u(bits)))
    track_body = (_elem(0xD7, _u(1)) + _elem(0x73C5, _u(1))
                  + _elem(0x83, _u(2)) + _elem(0x86, codec.encode("ascii"))
                  + audio)
    if priv:
        track_body += _elem(0x63A2, priv)
    cut = len(payload) // 2
    cluster = _elem(0x1F43B675, _elem(0xE7, _u(0))
                    + _simpleblock(payload[:cut], 0)
                    + _simpleblock(payload[cut:], int(dur_ms // 2)))
    return _file(b"matroska", dur_ms,
                 _elem(0x1654AE6B, _elem(0xAE, track_body)) + cluster)
