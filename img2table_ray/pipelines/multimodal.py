"""Multimodal binary-column stages: image, audio and video payloads are
opaque ``binary`` columns with typed metadata, mapped by task-pool
``PayloadStage`` subclasses (stages/util.py).  Each stage declares its
output columns and a per-row function; the base owns the row loop, the
per-process memo, the error rows and the ``map_batches`` call.

Images decode for real (PNG, BMP, JPEG, TIFF, GIF, WebP).  Audio decodes
for real from RIFF/WAVE (PCM, IEEE float, IMA/MS ADPCM, G.711), FLAC
(native, Ogg and Matroska), AIFF/AIFF-C, Sun AU, and PCM tracks in
MOV/MP4 and Matroska; MP3, AAC, Vorbis and Opus give header metadata
only (``metadata_only``).  Each PCM container maps its header to one
sample-format code for ``imgops/pcm.py:pcm_samples``, and every decoded
stream ends in one feature tail, ``_pcm_features`` (FLAC first through
``_flac_features``).
Video decodes sampled frames for real from AVI (MJPEG, DIB, MS-RLE8),
animated GIF and PNG, and MJPEG tracks in MP4/MOV and Matroska; each
container gives a frame count and a ``get(i)`` frame decoder to one
sampler, ``VideoFrameSampleStage._lumas``, and keeps its own duration
and fps rounding.  Inter-frame codecs give container metadata only.

A payload no decoder here handles raises ``NotImplementedError`` and
becomes an ``unsupported`` row; a corrupt one becomes an ``error`` row.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from img2table_ray.extract.pdf import sniff_kind
from img2table_ray.imgops.limits import check_dims
from img2table_ray.imgops.pcm import pcm_samples
from img2table_ray.stages.util import PayloadStage


class ImageFeatureStage(PayloadStage):
    """Stage: decode image bytes -> typed metadata + cheap
    features (REAL path).  binary -> (width, height, mean_luma, edge_density)."""

    schema = {"url": pa.string(), "kind": pa.string(), "width": pa.int32(),
              "height": pa.int32(), "mean_luma": pa.float64(),
              "edge_density": pa.float64()}

    def rows(self, data: bytes) -> list[tuple]:
        from img2table_ray.imgops.kernels import laplacian3_abs, rgb2gray
        from img2table_ray.imgops.png import decode_image

        img = decode_image(data)
        gray = rgb2gray(img)
        edge = laplacian3_abs(gray)
        return [(sniff_kind(data[:8]), img.shape[1], img.shape[0],
                 round(float(gray.mean()), 4),
                 round(float((edge > 64).mean()), 6))]

    def failed(self, data: bytes, status: str, exc: Exception) -> tuple:
        return sniff_kind(data[:8]), -1, -1, None, None


# (WAVE format code, bits per sample) -> imgops/pcm.py sample format
_WAV_FORMATS = {(1, 8): "u1", (1, 16): "<i2", (1, 24): "<i3", (1, 32): "<i4",
                (3, 32): "<f4", (3, 64): "<f8"}
# MOV sample-entry fourcc -> sample format ('twos'/'sowt' go by depth;
# Apple 'raw ' is unsigned 8-bit)
_MOV_FORMATS = {b"raw ": "u1", b"ulaw": "ulaw", b"alaw": "alaw",
                b"fl32": ">f4", b"fl64": ">f8", b"in24": ">i3", b"in32": ">i4"}


def _pcm_features(x: np.ndarray, rate: int,
                  channels: int) -> tuple[float, int, float]:
    """Interleaved float samples -> (duration_s, sample_rate, rms) over
    the whole frames; a trailing partial frame is dropped."""
    frames = len(x) // channels
    if frames == 0:
        return 0.0, rate, 0.0
    x = x[: frames * channels]
    return frames / rate, rate, float(np.sqrt(np.mean(x * x)))


def _flac_features(native: bytes) -> tuple[float, int, float]:
    """A native FLAC stream (plain, or reassembled from Ogg/Matroska)."""
    from img2table_ray.imgops.flac import decode_flac

    s, rate, channels, bits = decode_flac(native)
    return _pcm_features(s.astype(np.float64) / float(1 << (bits - 1)),
                         rate, channels)


class AudioFeatureStage(PayloadStage):
    """Stage for audio binary columns.

    REAL decode for RIFF/WAVE payloads (PCM 8/16/24/32-bit int, 32/64-bit
    IEEE float, IMA/MS ADPCM, G.711 mu-law/A-law, incl.
    WAVE_FORMAT_EXTENSIBLE) and lossless FLAC streams; emits
    (duration_s, sample_rate, rms) per row.  Remaining compressed
    formats (MP3/AAC/Opus — genuinely codec-requiring, none
    ships in this container) raise ``NotImplementedError``, which the
    row loop turns into an ``unsupported`` row."""

    payload = "audio"
    schema = {"url": pa.string(), "duration_s": pa.float64(),
              "sample_rate": pa.int32(), "rms": pa.float64(),
              "status": pa.string()}

    @staticmethod
    def _decode_wav(data: bytes) -> tuple[float, int, float]:
        if len(data) < 44 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
            raise ValueError("not a RIFF/WAVE stream")
        fmt = raw = None
        pos = 12
        while pos + 8 <= len(data):
            tag = data[pos : pos + 4]
            n = int.from_bytes(data[pos + 4 : pos + 8], "little")
            body = data[pos + 8 : pos + 8 + n]
            if tag == b"fmt ":
                fmt = body
            elif tag == b"data":
                raw = body
            pos += 8 + n + (n & 1)
        if fmt is None or raw is None or len(fmt) < 16:
            raise ValueError("missing fmt/data chunk")
        code = int.from_bytes(fmt[0:2], "little")
        channels = int.from_bytes(fmt[2:4], "little")
        rate = int.from_bytes(fmt[4:8], "little")
        bits = int.from_bytes(fmt[14:16], "little")
        if code == 0xFFFE and len(fmt) >= 26:  # extensible: real code in GUID
            code = int.from_bytes(fmt[24:26], "little")
        if channels < 1 or rate < 1:
            raise ValueError("bad fmt chunk")
        if code in (0x02, 0x11):  # RIFF-native ADPCM (round 5)
            from img2table_ray.imgops.adpcm import (ima_adpcm_decode,
                                                    ms_adpcm_decode)

            block_align = int.from_bytes(fmt[12:14], "little")
            dec = ima_adpcm_decode if code == 0x11 else ms_adpcm_decode
            x = dec(raw, channels, block_align).astype(np.float64) / 32768.0
        elif code in (0x06, 0x07):  # G.711 A-law / mu-law (round 5)
            x = pcm_samples(raw, "ulaw" if code == 0x07 else "alaw")
        elif code in (1, 3):  # integer PCM (8-bit unsigned) / IEEE float
            if (code, bits) not in _WAV_FORMATS:
                raise ValueError(f"unsupported WAVE sample width {bits}")
            x = pcm_samples(raw, _WAV_FORMATS[code, bits])
        else:
            raise NotImplementedError(
                f"compressed WAVE format 0x{code:04x}: no codec in this "
                "environment")
        return _pcm_features(x, rate, channels)

    def _decode(self, data: bytes) -> tuple[float, int, float]:
        if data[:4] == b"RIFF" and data[8:12] == b"WAVE":
            return self._decode_wav(data)
        if data[:4] == b"fLaC":  # lossless FLAC (round 5, imgops/flac.py)
            return _flac_features(data)
        if data[:3] == b"ID3" or (len(data) > 1 and data[0] == 0xFF
                                  and (data[1] & 0xE0) == 0xE0):
            # MP3: frame-header walk -> duration/rate, rms=None
            # (metadata_only — Layer III decode needs a codec)
            from img2table_ray.imgops.mpegaudio import parse_mp3

            m = parse_mp3(data)
            return m["duration_s"], m["sample_rate"], None
        if data[:4] == b"FORM" and data[8:12] in (b"AIFF", b"AIFC"):
            # AIFF/AIFF-C: real PCM decode (imgops/aiff.py)
            from img2table_ray.imgops.aiff import decode_aiff

            return _pcm_features(*decode_aiff(data))
        if data[:4] == b".snd":
            # Sun AU: real PCM/G.711 decode (imgops/aiff.py)
            from img2table_ray.imgops.aiff import decode_au

            return _pcm_features(*decode_au(data))
        if data[:4] == b"OggS":
            # Ogg-FLAC decodes for REAL (reassemble the native stream,
            # imgops/ogg.py:ogg_flac_to_native -> imgops/flac.py);
            # Vorbis/Opus stay on the granule-position metadata walk
            from img2table_ray.imgops.ogg import (ogg_flac_to_native,
                                                  parse_ogg)

            try:
                native = ogg_flac_to_native(data)
            except ValueError:
                native = None
            if native is not None:
                return _flac_features(native)
            m = parse_ogg(data)
            return m["duration_s"], m["sample_rate"], None
        if data[:4] == b"\x1a\x45\xdf\xa3":
            # Matroska audio (.mka/.webm): A_PCM/* and A_FLAC decode
            # for REAL via the Cluster block walk (imgops/matroska.py:
            # mkv_audio); Vorbis/Opus/AAC tracks stay metadata_only
            from img2table_ray.imgops.matroska import mkv_audio

            m = mkv_audio(data)
            codec, raw = m["codec"], m["payload"]
            rate, channels = m["sample_rate"], m["channels"]
            if codec == "A_FLAC" and m["codec_private"][:4] == b"fLaC":
                return _flac_features(m["codec_private"] + raw)
            if rate and raw and codec.startswith("A_PCM/"):
                bits = m["bits"] or 16
                if codec == "A_PCM/FLOAT/IEEE":
                    fmt = "<f4" if bits == 32 else "<f8"
                elif bits in (16, 24, 32):
                    fmt = ("<" if codec.endswith("LIT") else ">") + f"i{bits // 8}"
                elif bits == 8:  # Matroska 8-bit PCM is unsigned
                    fmt = "u1"
                else:
                    raise ValueError(f"unsupported A_PCM depth {bits}")
                return _pcm_features(pcm_samples(raw, fmt), rate, channels)
            return m["duration_s"], rate or None, None
        if len(data) > 8 and data[4:8] == b"ftyp":
            # ISO-BMFF audio (.m4a/MOV): PCM and G.711 tracks decode
            # for REAL via the sample tables (imgops/isobmff.py:
            # mp4_audio); AAC ('mp4a') stays on the metadata walk
            from img2table_ray.imgops.isobmff import mp4_audio

            m = mp4_audio(data)
            raw, codec = m["payload"], m["codec"]
            rate, channels = m["sample_rate"], m["channels"]
            if raw is None or not rate:
                return m["duration_s"], rate or None, None
            if codec in (b"twos", b"sowt"):  # 8-bit 'twos' is signed
                bits = m["bits"]
                if bits not in (8, 16, 24, 32):
                    raise ValueError(f"unsupported {codec.decode()} depth {bits}")
                fmt = "i1" if bits == 8 else (
                    (">" if codec == b"twos" else "<") + f"i{bits // 8}")
            else:
                fmt = _MOV_FORMATS[codec]
            return _pcm_features(pcm_samples(raw, fmt), rate, channels)
        raise NotImplementedError(
            "compressed audio needs a codec (none in this environment); "
            "WAV/PCM decodes for real")

    def rows(self, data: bytes) -> list[tuple]:
        d, sr, r = self._decode(data)
        return [(d, sr, r, "ok" if r is not None else "metadata_only")]


def resize_bilinear(img: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Deterministic bilinear resize (REAL path, pure numpy): pixel-center
    sampling (src = (dst + 0.5) * scale - 0.5, clamped), float32 blend,
    round-half-even to uint8.  Documented semantics of its own — the
    reference never resizes, so no cv2 parity is claimed."""
    h, w = img.shape[:2]
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0).astype(np.float32)[:, None]
    fx = (xs - x0).astype(np.float32)[None, :]
    if img.ndim == 3:
        fy = fy[:, :, None]
        fx = fx[:, :, None]
    a = img[np.ix_(y0, x0)].astype(np.float32)
    b = img[np.ix_(y0, x1)].astype(np.float32)
    c = img[np.ix_(y1, x0)].astype(np.float32)
    d = img[np.ix_(y1, x1)].astype(np.float32)
    top = a + (b - a) * fx
    bot = c + (d - c) * fx
    return np.clip(np.rint(top + (bot - top) * fy), 0, 255).astype(np.uint8)


class ImageResizeStage(PayloadStage):
    """Stage (REAL path): decode image bytes -> fixed-size
    thumbnail re-encoded as PNG (the resize/normalize step of a multimodal
    training pipeline).  Output rows carry the thumbnail binary + original
    dims; undecodable payloads become error rows, never task failures."""

    schema = {"url": pa.string(), "thumbnail_png": pa.binary(),
              "orig_width": pa.int32(), "orig_height": pa.int32(),
              "status": pa.string()}

    def __init__(self, out_w: int = 64, out_h: int = 64) -> None:
        super().__init__()
        self._w = out_w
        self._h = out_h

    def rows(self, data: bytes) -> list[tuple]:
        from img2table_ray.imgops.png import decode_image, encode_png

        img = decode_image(data)
        thumb = resize_bilinear(img, self._w, self._h)
        return [(encode_png(thumb), img.shape[1], img.shape[0], "ok")]

    def failed(self, data: bytes, status: str, exc: Exception) -> tuple:
        return None, -1, -1, status


class VideoFrameSampleStage(PayloadStage):
    """Stage for video binary columns: frame sampling.

    REAL demux + decode for RIFF/AVI containers carrying MJPEG
    (``MJPG``/``dmb1`` — each frame is a JPEG, decoded by the in-repo
    T.81 decoder), uncompressed DIB (``BI_RGB`` 24/32-bit or 8-bit
    palettized), or MS-RLE8 (``BI_RLE8``, imgops/rle8.py) video: per
    row emits (duration_s, fps, n_frames) plus mean luma of
    ``n_samples`` evenly spaced DECODED frames (only the sampled frames
    are decoded; the demux walk itself touches headers, not pixels).
    Inter-frame-predicted codecs (H.264/VP9/AV1 — genuinely
    codec-requiring, none ships in this container) raise
    ``NotImplementedError``, which the row loop turns into an
    ``unsupported`` row.  Batch size must stay SMALL for real video
    payloads (one clip can be tens of MB)."""

    payload = "video"
    schema = {"url": pa.string(), "duration_s": pa.float64(),
              "fps": pa.float64(), "n_frames": pa.int64(),
              "frame_lumas": pa.list_(pa.float64()), "status": pa.string()}

    def __init__(self, n_samples: int = 4) -> None:
        super().__init__()
        self._n = n_samples

    @staticmethod
    def _parse_avi(data: bytes):
        """Walk the RIFF tree -> (fps, n_frames, frame_getter, codec).

        ``frame_getter(i)`` decodes frame i to (H, W, 3) RGB uint8;
        frames are located during the walk (offset spans into ``data``)
        so only sampled frames ever decode."""
        if data[:4] != b"RIFF" or data[8:12] != b"AVI ":
            raise ValueError("not a RIFF/AVI stream")
        rate = scale = None
        usec_pf = 0
        compression = b""
        bitcount = 24
        width = height = 0
        palette = b""
        frames: list[tuple[int, int]] = []  # (offset, length) into data

        def walk(pos: int, end: int, in_movi: bool) -> None:
            nonlocal rate, scale, usec_pf, compression, bitcount, width, \
                height, palette
            while pos + 8 <= end:
                tag = data[pos : pos + 4]
                n = int.from_bytes(data[pos + 4 : pos + 8], "little")
                body, bend = pos + 8, min(pos + 8 + n, end)
                if tag == b"LIST":
                    kind = data[body : body + 4]
                    walk(body + 4, bend,
                         in_movi or kind in (b"movi", b"rec "))
                elif tag == b"avih" and n >= 32:
                    usec_pf = int.from_bytes(data[body : body + 4], "little")
                elif tag == b"strh" and n >= 32 and (
                        data[body : body + 4] == b"vids" and rate is None):
                    scale = int.from_bytes(data[body + 20 : body + 24], "little")
                    rate = int.from_bytes(data[body + 24 : body + 28], "little")
                elif tag == b"strf" and n >= 20 and not width:
                    width = int.from_bytes(data[body + 4 : body + 8],
                                           "little", signed=True)
                    height = int.from_bytes(data[body + 8 : body + 12],
                                            "little", signed=True)
                    bitcount = int.from_bytes(data[body + 14 : body + 16],
                                              "little")
                    compression = data[body + 16 : body + 20]
                    if n > 40:  # RGBQUAD palette follows the 40-byte header
                        palette = data[body + 40 : bend]
                elif in_movi and tag[2:4] in (b"dc", b"db") and n > 0:
                    frames.append((body, n))
                pos += 8 + n + (n & 1)

        walk(12, len(data), False)
        if not frames or not width:
            raise ValueError("AVI has no video frames")
        check_dims(width, abs(height), "AVI frame")
        fps = (rate / scale) if (rate and scale) else (
            1e6 / usec_pf if usec_pf else 25.0)
        cc = compression.upper()
        if cc in (b"MJPG", b"DMB1"):
            from img2table_ray.imgops.jpeg import decode_jpeg

            def get(i: int) -> np.ndarray:
                off, n = frames[i]
                return decode_jpeg(bytes(data[off : off + n]))
        elif compression in (b"\x00\x00\x00\x00", b"DIB ") and bitcount in (24, 32):
            nch = bitcount // 8
            stride = (width * nch + 3) & ~3

            def get(i: int) -> np.ndarray:
                off, n = frames[i]
                h = abs(height)
                rows = np.frombuffer(
                    data, np.uint8, stride * h, off).reshape(h, stride)
                img = rows[:, : width * nch].reshape(h, width, nch)[..., :3]
                img = img[:, :, ::-1]  # BGR -> RGB
                return img if height < 0 else img[::-1]  # bottom-up default
        elif bitcount == 8 and compression in (b"\x00\x00\x00\x00",
                                               b"\x01\x00\x00\x00"):
            # palettized DIB: BI_RGB (0) rows or BI_RLE8 (1) runs -> RGB
            # via the strf RGBQUAD palette (BGRX byte order)
            pal = np.frombuffer(
                palette[:1024].ljust(1024, b"\x00"), np.uint8
            ).reshape(256, 4)[:, 2::-1].copy()  # BGRX -> RGB
            rle = compression == b"\x01\x00\x00\x00"
            stride = (width + 3) & ~3

            def get(i: int) -> np.ndarray:
                from img2table_ray.imgops.rle8 import rle8_decode

                off, n = frames[i]
                h = abs(height)
                if rle:
                    idx = rle8_decode(data[off : off + n], width, h)
                else:
                    idx = np.frombuffer(
                        data, np.uint8, stride * h, off
                    ).reshape(h, stride)[:, :width]
                img = pal[idx]
                return img if height < 0 else img[::-1]  # bottom-up default
        else:
            raise NotImplementedError(
                f"AVI codec {compression!r}: inter-frame codecs need a "
                "decoder library (none in this environment)")
        return fps, len(frames), get, cc.decode("ascii", "replace")

    def _lumas(self, n_frames: int, get) -> list[float]:
        """Mean luma of ``n_samples`` evenly spaced frames; ``get(i)``
        returns frame i (gray plane or RGB), so only sampled frames decode."""
        from img2table_ray.imgops.kernels import luma_float

        idx = np.unique(np.linspace(
            0, n_frames - 1, min(self._n, n_frames)).round().astype(int))
        return [round(float((luma_float(get(int(i))) / 255.0).mean()), 6)
                for i in idx]

    def _decode(self, data: bytes):
        if data[:4] == b"RIFF" and data[8:12] == b"AVI ":
            fps, n_frames, get, _ = self._parse_avi(data)
            return (round(n_frames / fps, 3), float(fps), n_frames,
                    self._lumas(n_frames, get))
        if data[:6] in (b"GIF87a", b"GIF89a"):
            # animated GIF: the most common web "video" needing no
            # external codec.  Frames are DELTAS (disposal/compositing),
            # so the walk composes every frame up to the cap; sampling
            # then picks n_samples composed canvases.
            from img2table_ray.imgops.gif import gif_frames

            frames, delays = gif_frames(data, max_frames=512)
            n_frames = len(frames)
            total_cs = sum(delays)
            # delay-0 GIFs render at the conventional 10 cs/frame
            duration = (total_cs if total_cs else 10 * n_frames) / 100.0
            fps = n_frames / duration if duration else 0.0
            return (round(duration, 3), round(fps, 3), n_frames,
                    self._lumas(n_frames, frames.__getitem__))
        from img2table_ray.imgops.apng import is_apng

        if is_apng(data):
            # animated PNG: the other codec-free web animation format.
            # Like GIF, frames are region DELTAS (dispose/blend ops), so
            # the decoder composes full canvases before sampling.  A
            # STILL png falls through to the unsupported tail — an
            # image is not a video payload.
            from img2table_ray.imgops.apng import apng_frames

            frames, delays = apng_frames(data, max_frames=512)
            n_frames = len(frames)
            duration = sum(delays) or 0.1 * n_frames
            fps = n_frames / duration
            return (round(duration, 3), round(fps, 3), n_frames,
                    self._lumas(n_frames, frames.__getitem__))
        if len(data) > 8 and data[4:8] == b"ftyp":
            # ISO-BMFF (MP4/MOV): MJPEG-coded tracks decode for REAL
            # (sample tables locate each JPEG, imgops/isobmff.py:
            # mp4_samples -> in-repo T.81 decoder); inter-frame codecs
            # fall back to the parse_mp4 metadata walk
            from img2table_ray.imgops.isobmff import (
                MJPEG_FOURCC, mp4_samples, parse_mp4)
            from img2table_ray.imgops.jpeg import decode_jpeg

            try:
                fps, n_frames, get, codec = mp4_samples(data)
            except ValueError:
                codec = None
            if codec in MJPEG_FOURCC:
                return (round(n_frames / fps, 3), float(fps), n_frames,
                        self._lumas(n_frames, lambda i: decode_jpeg(get(i))))
            m = parse_mp4(data)
            return m["duration_s"], m["fps"], m["n_frames"], None
        if data[:4] == b"\x1a\x45\xdf\xa3":
            # Matroska/WebM: V_MJPEG tracks decode for REAL (block walk
            # incl. Xiph/EBML/fixed lacing, imgops/matroska.py:
            # mkv_samples -> in-repo JPEG decoder); inter-frame codecs
            # fall back to the parse_webm metadata walk
            from img2table_ray.imgops.matroska import (mkv_samples,
                                                       parse_webm)

            try:
                fps, n_frames, get, codec = mkv_samples(data)
            except ValueError:
                codec = None
            if codec == "V_MJPEG":
                from img2table_ray.imgops.jpeg import decode_jpeg

                return (round(n_frames / fps, 3), round(fps, 3), n_frames,
                        self._lumas(n_frames, lambda i: decode_jpeg(get(i))))
            m = parse_webm(data)
            return m["duration_s"], m["fps"], m["n_frames"], None
        raise NotImplementedError(
            "inter-frame video needs a codec (none in this environment); "
            "MJPEG/DIB AVI decodes for real")

    def rows(self, data: bytes) -> list[tuple]:
        d, f, n, ls = self._decode(data)
        # empty list (not null) for metadata rows: a nullable list column
        # trips Ray's tensor-extension casting, and `status` already
        # carries the distinction
        return [(d, f, n, ls if ls is not None else [],
                 "ok" if ls is not None else "metadata_only")]


def synth_avi(seed: int, codec: str = "MJPG") -> bytes:
    """Deterministic small RIFF/AVI clip — MJPEG (in-repo JPEG encoder),
    uncompressed 24-bit DIB, or palettized MS-RLE8 (``codec="RLE8"``,
    imgops/rle8.py) frames, seeded gradient+block content."""
    import struct as _s

    rng = np.random.RandomState(seed)
    w, h = 48, 32
    fps = 10 + seed % 3
    n_frames = 6 + seed % 5
    # RLE8 palette: frame bytes are the red-channel gradient; RGBQUAD
    # (B,G,R,0) maps index i -> pure red i, with 255 mapped to white so
    # the seeded block stays white like the truecolor variants
    pal = np.zeros((256, 4), np.uint8)
    pal[:, 2] = np.arange(256)  # R in RGBQUAD byte 2
    pal[255] = (255, 255, 255, 0)
    frames = []
    for f in range(n_frames):
        img = np.zeros((h, w, 3), np.uint8)
        img[:, :, 0] = np.linspace(0, 255, w, dtype=np.uint8)[None, :]
        img[:, :, 1] = (40 * f + 30) % 256
        x0, y0 = rng.randint(0, w - 8), rng.randint(0, h - 8)
        img[y0 : y0 + 8, x0 : x0 + 8] = 255
        if codec == "MJPG":
            from img2table_ray.imgops.jpeg import encode_jpeg

            frames.append((b"00dc", encode_jpeg(img, quality=85)))
        elif codec == "RLE8":  # palette indices = red channel, bottom-up
            from img2table_ray.imgops.rle8 import rle8_encode

            frames.append((b"00dc", rle8_encode(img[::-1, :, 0])))
        else:  # uncompressed bottom-up BGR DIB
            stride = (w * 3 + 3) & ~3
            rows = np.zeros((h, stride), np.uint8)
            rows[:, : w * 3] = img[::-1, :, ::-1].reshape(h, w * 3)
            frames.append((b"00db", rows.tobytes()))

    def chunk(tag: bytes, body: bytes) -> bytes:
        return tag + _s.pack("<I", len(body)) + body + (b"\x00" * (len(body) & 1))

    def lst(kind: bytes, body: bytes) -> bytes:
        return chunk(b"LIST", kind + body)

    if codec == "MJPG":
        comp, bits, palette = b"MJPG", 24, b""
    elif codec == "RLE8":
        comp, bits, palette = b"\x01\x00\x00\x00", 8, pal.tobytes()
    else:
        comp, bits, palette = b"\x00\x00\x00\x00", 24, b""
    avih = _s.pack("<14I", 10**6 // fps, 0, 0, 0, n_frames, 0, 1, 0, w, h,
                   0, 0, 0, 0)
    strh = (b"vids" + comp + _s.pack("<IHHIIIIIIII", 0, 0, 0, 0, 1, fps, 0,
                                     n_frames, 0, 0, 0)
            + _s.pack("<4H", 0, 0, w, h))
    strf = _s.pack("<IiiHH4sIiiII", 40, w, h, 1, bits, comp,
                   0, 0, 0, 0, 0) + palette
    hdrl = lst(b"hdrl", chunk(b"avih", avih)
               + lst(b"strl", chunk(b"strh", strh) + chunk(b"strf", strf)))
    movi = lst(b"movi", b"".join(chunk(t, b) for t, b in frames))
    return chunk(b"RIFF", b"AVI " + hdrl + movi)


def video_frames(sf_dir: str) -> ray.data.Dataset:
    """AVI/MJPEG frame sampling (REAL demux + JPEG decode) over a
    deterministic synthetic video table sized by the sf directory (the
    driver testdata carries no video binaries); rows-only driver check.
    Small batch_size because clips are the large payload."""
    from img2table_ray.pipelines.corpus import DEFAULT_ROWS, SF_ROWS
    import os

    n = SF_ROWS.get(os.path.basename(os.path.normpath(sf_dir)),
                    DEFAULT_ROWS) // 2
    def payload(i: int) -> bytes:
        kind = ("DIB", "MJPG", "RLE8", "GIFA", "MP4", "WEBM", "APNG")[i % 7]
        if kind == "MP4":  # ISO-BMFF: MJPEG (real decode) / avc1 metadata
            from img2table_ray.imgops.isobmff import (synth_mp4,
                                                      synth_mp4_mjpeg)

            return synth_mp4_mjpeg(i) if (i // 7) % 2 else synth_mp4(i)
        if kind == "WEBM":  # Matroska: MJPEG (real decode) / VP9 metadata
            from img2table_ray.imgops.matroska import (synth_webm,
                                                       synth_webm_mjpeg)

            return synth_webm_mjpeg(i) if (i // 7) % 2 else synth_webm(i)
        if kind == "GIFA":  # animated GIF (real full decode)
            return synth_gif_anim(i)
        if kind == "APNG":  # animated PNG (real full decode)
            return synth_apng(i)
        return synth_avi(i, kind)

    exts = {3: "gif", 4: "mp4", 5: "webm", 6: "png"}
    rows = [{"url": f"https://video.example/{i:06d}."
                    f"{exts.get(i % 7, 'avi')}",
             "video": payload(i)} for i in range(n)]
    return VideoFrameSampleStage.map_batches(ray.data.from_items(rows),
                                             batch_size=16)


def synth_gif_anim(seed: int) -> bytes:
    """Deterministic animated GIF clip: same seeded gradient+block
    content family as ``synth_avi``, full-frame descriptors with
    per-frame GCE delays."""
    from img2table_ray.imgops.gif import encode_gif_anim

    rng = np.random.RandomState(seed)
    w, h = 48, 32
    n_frames = 6 + seed % 5
    delay_cs = 100 // (10 + seed % 3)  # ~the AVI fps family
    frames = []
    for f in range(n_frames):
        img = np.zeros((h, w, 3), np.uint8)
        img[:, :, 0] = (np.linspace(0, 255, w).astype(np.uint8)
                        // 32 * 32)[None, :]  # coarse ramp: <=256 colors
        img[:, :, 1] = (40 * f + 30) % 256
        x0, y0 = rng.randint(0, w - 8), rng.randint(0, h - 8)
        img[y0 : y0 + 8, x0 : x0 + 8] = 255
        frames.append(img)
    return encode_gif_anim(frames, [delay_cs] * n_frames)


def synth_apng(seed: int) -> bytes:
    """Deterministic animated PNG: seeded gradient+block family like
    ``synth_avi``, first frame full-canvas, later frames sub-region
    deltas over alternating dispose/blend ops — exercising the APNG
    compositor end-to-end."""
    from img2table_ray.imgops.apng import (BLEND_OVER, BLEND_SOURCE,
                                           DISPOSE_BACKGROUND, DISPOSE_NONE,
                                           encode_apng)

    rng = np.random.RandomState(seed)
    w, h = 48, 32
    n_frames = 6 + seed % 5
    delay = (1, 10 + seed % 3)
    base = np.zeros((h, w, 4), np.uint8)
    base[:, :, 0] = np.linspace(0, 255, w, dtype=np.uint8)[None, :]
    base[:, :, 1] = 30
    base[:, :, 3] = 255
    frames = [{"img": base, "delay": delay}]
    for f in range(1, n_frames):
        patch = np.zeros((8, 8, 4), np.uint8)
        patch[:] = (255, (40 * f + 30) % 256, 0, 255 if f % 2 else 160)
        frames.append({
            "img": patch,
            "x": int(rng.randint(0, w - 8)),
            "y": int(rng.randint(0, h - 8)),
            "delay": delay,
            "dispose": DISPOSE_NONE if f % 3 else DISPOSE_BACKGROUND,
            "blend": BLEND_SOURCE if f % 2 else BLEND_OVER,
        })
    return encode_apng((w, h), frames)


def synth_wav(seed: int) -> bytes:
    """Deterministic small RIFF/WAVE clip (sine + seeded noise): PCM16
    for even seeds, with codec rows interleaved so the query surface
    exercises every round-5 compressed audio format: IMA ADPCM (seed%8==5),
    MS ADPCM (seed%8==7) from imgops/adpcm.py, G.711 mu-law (seed%8==3)
    / A-law (seed%8==1) from imgops/g711.py, lossless FLAC (seed%16==2)
    from imgops/flac.py, and the metadata_only containers — MP3
    (seed%16==10, imgops/mpegaudio.py) and Ogg Vorbis/Opus
    (seed%16==6/14, imgops/ogg.py)."""
    rng = np.random.RandomState(seed)
    rate = int(8000 * (1 + seed % 3))
    n = rate // 4 + (seed % 7) * 100  # ~0.25-0.35 s
    t = np.arange(n) / rate
    x = (0.5 * np.sin(2 * np.pi * (220 + 20 * (seed % 9)) * t)
         + 0.05 * rng.randn(n))
    samples = np.clip(np.round(x * 32767), -32768, 32767).astype(np.int16)
    if seed % 8 in (5, 7):
        from img2table_ray.imgops.adpcm import encode_wav_adpcm

        return encode_wav_adpcm(samples, rate,
                                kind="ima" if seed % 8 == 5 else "ms")
    if seed % 8 in (1, 3):
        from img2table_ray.imgops.g711 import encode_wav_g711

        return encode_wav_g711(samples, rate,
                               kind="ulaw" if seed % 8 == 3 else "alaw")
    if seed % 16 == 2:
        from img2table_ray.imgops.flac import encode_flac

        return encode_flac(samples, rate, blocksize=2048)
    if seed % 16 == 10:  # MP3 metadata fixture (headers only)
        from img2table_ray.imgops.mpegaudio import synth_mp3

        return synth_mp3(seed)
    if seed % 16 == 6:  # Ogg: FLAC (real decode) / Vorbis metadata
        from img2table_ray.imgops.ogg import synth_ogg, synth_ogg_flac

        if (seed // 16) % 2:
            return synth_ogg_flac(samples, rate, seed)
        return synth_ogg(seed, "vorbis")
    if seed % 16 == 14:  # Ogg Opus metadata fixture
        from img2table_ray.imgops.ogg import synth_ogg

        return synth_ogg(seed, "opus")
    if seed % 16 == 4:  # AIFF / AIFF-C (comp rotates with the seed)
        from img2table_ray.imgops.aiff import encode_aiff

        comp = (b"NONE", b"sowt", b"ulaw", b"alaw",
                b"ima4")[(seed // 16) % 5]
        return encode_aiff(samples, rate, comp)
    if seed % 16 == 12:  # Sun AU (PCM16-BE / mu-law alternating)
        from img2table_ray.imgops.aiff import encode_au

        return encode_au(samples, rate, enc=3 if (seed // 16) % 2 else 1)
    if seed % 16 == 8:  # ISO-BMFF audio: m4a metadata / MOV PCM real
        from img2table_ray.imgops.isobmff import synth_m4a, synth_mov_pcm

        variant = (seed // 16) % 4
        if variant == 0:
            return synth_m4a(seed)
        codec = (b"twos", b"sowt", b"ulaw")[variant - 1]
        return synth_mov_pcm(seed, samples, rate, codec)
    if seed % 16 == 0 and (seed // 16) % 2:  # Matroska audio (.mka)
        from img2table_ray.imgops.matroska import synth_mkv_audio

        codec = ("A_PCM/INT/LIT", "A_FLAC")[(seed // 32) % 2]
        return synth_mkv_audio(seed, samples, rate, codec)
    import struct

    from img2table_ray.imgops.pcm import wave_file

    fmt = struct.pack("<HHIIHH", 1, 1, rate, rate * 2, 2, 16)
    return wave_file(fmt, samples.astype("<i2").tobytes())


def audio_features(sf_dir: str) -> ray.data.Dataset:
    """WAV/PCM feature extraction (REAL decode) over a deterministic
    synthetic audio table sized by the sf directory (the driver testdata
    carries no audio binaries); rows-only driver check."""
    from img2table_ray.pipelines.corpus import DEFAULT_ROWS, SF_ROWS

    n = SF_ROWS.get(__import__("os").path.basename(
        __import__("os").path.normpath(sf_dir)), DEFAULT_ROWS) // 2
    ext = {2: "flac", 4: "aiff", 6: "ogg", 10: "mp3", 12: "au",
           14: "opus"}

    def _ext(i: int) -> str:
        if i % 16 == 8:  # ISO-BMFF: AAC metadata vs PCM/G.711 real
            return "m4a" if (i // 16) % 4 == 0 else "mov"
        if i % 16 == 0 and (i // 16) % 2:  # Matroska audio (real)
            return "mka"
        return ext.get(i % 16, "wav")

    rows = [{"url": f"https://audio.example/{i:06d}.{_ext(i)}",
             "audio": synth_wav(i)} for i in range(n)]
    return AudioFeatureStage.map_batches(ray.data.from_items(rows),
                                         batch_size=32)


def image_features(sf_dir: str) -> ray.data.Dataset:
    """Per-url image metadata/features over the pages corpus (real decode);
    rows-only driver check.  Large binary payloads -> small batch_size so a
    batch x concurrency fits worker heaps."""
    from img2table_ray.pipelines.corpus import corpus_for

    pages = ray.data.read_parquet(f"{corpus_for(sf_dir)}/pages",
                                  columns=["url", "html"])
    return ImageFeatureStage.map_batches(pages, batch_size=16)


def image_thumbnails(sf_dir: str) -> ray.data.Dataset:
    """Per-url 64x64 PNG thumbnails over the pages corpus (real decode +
    bilinear resize + re-encode); rows-only driver check.  Small batches:
    batch x concurrency of binary payloads must fit worker heaps."""
    from img2table_ray.pipelines.corpus import corpus_for

    pages = ray.data.read_parquet(f"{corpus_for(sf_dir)}/pages",
                                  columns=["url", "html"])
    return ImageResizeStage.map_batches(pages, batch_size=16)
