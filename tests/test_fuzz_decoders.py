"""Deterministic byte-flip sweep over every decoder family.

At corpus scale some documents WILL arrive corrupt; the pipelines turn
decode exceptions into error rows, so the property that matters is that
a corrupt payload always terminates promptly in a raised exception —
never an infinite loop (which would stall a Ray task past its retry
budget) and never a non-exception escape.  Seeds are fixed so the sweep
is reproducible; an exploratory 10x-larger run (trials=100-150/format)
found zero hangs and a 3.1 s worst case (the QM arithmetic-JPEG coder
grinding through garbage, data-driven and terminating).  A second
late-round-5 campaign with harsher mutations (8-32 flips, random
truncation, intra-file splices; 2,145 trials over 28 families incl.
APNG and every A/V container) also found zero hangs, worst call
0.48 s."""

from __future__ import annotations

import random
import signal

import numpy as np
import pytest

from img2table_ray.imgops.png import decode_image

PER_CALL_TIMEOUT = 20.0  # generous: worst observed legit-garbage case 3.1 s


class _Hang(Exception):
    pass


def _raise_hang(_sig, _frm):
    raise _Hang()


def _fuzz(base: bytes, fn, trials: int, seed: int) -> None:
    rng = random.Random(seed)
    old = signal.signal(signal.SIGALRM, _raise_hang)
    try:
        for t in range(trials):
            b = bytearray(base)
            for _ in range(rng.randint(1, 4)):
                b[rng.randrange(len(b))] = rng.randrange(256)
            signal.setitimer(signal.ITIMER_REAL, PER_CALL_TIMEOUT)
            try:
                fn(bytes(b))
            except _Hang:
                pytest.fail(f"decoder hung >={PER_CALL_TIMEOUT}s on trial {t}")
            except Exception:
                pass  # any raised exception is the error-row contract
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, old)


def _small_rgb() -> np.ndarray:
    src = open("img2table_ray/fixtures/test.png", "rb").read()
    return np.ascontiguousarray(decode_image(src)[:64, :96])


IMAGE_VARIANTS = {}


def _image_variants():
    if IMAGE_VARIANTS:
        return IMAGE_VARIANTS
    from img2table_ray.imgops.gif import encode_gif
    from img2table_ray.imgops.jpeg import encode_jpeg
    from img2table_ray.imgops.png import encode_png
    from img2table_ray.imgops.tiff import encode_tiff, encode_tiff_g4
    from img2table_ray.imgops.vp8 import encode_webp_vp8
    from img2table_ray.imgops.webp import encode_webp_lossless

    small = _small_rgb()
    IMAGE_VARIANTS.update({
        "png": encode_png(small),
        "gif": encode_gif(small),
        "jpeg": encode_jpeg(small),
        "jpeg_arith": encode_jpeg(small, arithmetic=True),
        "tiff_lzw": encode_tiff(small, compression="lzw"),
        "tiff_deflate": encode_tiff(small, compression="deflate"),
        "tiff_g4": encode_tiff_g4((small.mean(2) > 128).astype(np.uint8)),
        "webp_lossless": encode_webp_lossless(small),
        "webp_vp8": encode_webp_vp8(small)[0],
    })
    return IMAGE_VARIANTS


@pytest.mark.parametrize("fmt", [
    "png", "gif", "jpeg", "jpeg_arith", "tiff_lzw", "tiff_deflate",
    "tiff_g4", "webp_lossless", "webp_vp8",
])
def test_image_decoders_terminate_on_corrupt_bytes(fmt):
    import zlib

    seed = zlib.crc32(fmt.encode()) & 0xFFFF  # stable, unlike str hash
    _fuzz(_image_variants()[fmt], decode_image, trials=30, seed=seed)


def test_audio_decoders_terminate_on_corrupt_bytes():
    from img2table_ray.imgops.adpcm import encode_wav_adpcm
    from img2table_ray.imgops.aiff import encode_aiff, encode_au
    from img2table_ray.imgops.flac import encode_flac
    from img2table_ray.imgops.g711 import encode_wav_g711
    from img2table_ray.pipelines.multimodal import AudioFeatureStage

    pcm = (np.sin(np.linspace(0, 440 * 2 * np.pi, 8000)) * 20000
           ).astype(np.int16)
    stage = AudioFeatureStage()
    for i, base in enumerate([
        encode_flac(pcm.reshape(-1, 1), 8000),
        encode_wav_adpcm(pcm, 8000, "ima"),
        encode_wav_g711(pcm, 8000, "ulaw"),
        encode_aiff(pcm.reshape(-1, 1), 8000),
        encode_au(pcm.reshape(-1, 1), 8000),
    ]):
        _fuzz(base, stage._decode, trials=20, seed=100 + i)


def test_video_decoders_terminate_on_corrupt_bytes():
    from img2table_ray.imgops.gif import encode_gif_anim
    from img2table_ray.pipelines.multimodal import (VideoFrameSampleStage,
                                                    synth_avi)

    small = _small_rgb()
    stage = VideoFrameSampleStage()
    for i, base in enumerate([
        synth_avi(1, "MJPG"),
        synth_avi(2, "DIB "),
        encode_gif_anim([small, small[:, ::-1]], [10, 10]),
    ]):
        _fuzz(base, stage._decode, trials=20, seed=200 + i)


def test_pdf_renderer_terminates_on_corrupt_bytes():
    from img2table_ray.extract.pdf import PdfiumRenderer

    pdf = open("img2table_ray/fixtures/test.pdf", "rb").read()
    r = PdfiumRenderer()
    _fuzz(pdf, r.render, trials=10, seed=300)


def test_container_walks_terminate_on_corrupt_bytes():
    # the ISO-BMFF sample-table walk originally looped on corrupt stsz/
    # stco/stsc/stts COUNT fields (a 4-byte count of up to 2^32 drove the
    # table loops regardless of the box's real extent) — found by this
    # sweep and fixed by bounding every declared count to its box
    import numpy as np

    from img2table_ray.imgops.isobmff import (synth_m4a, synth_mov_pcm,
                                              synth_mp4, synth_mp4_mjpeg)
    from img2table_ray.imgops.matroska import (synth_mkv_audio, synth_webm,
                                               synth_webm_mjpeg)
    from img2table_ray.imgops.mpegaudio import synth_mp3
    from img2table_ray.imgops.ogg import synth_ogg, synth_ogg_flac
    from img2table_ray.pipelines.multimodal import (AudioFeatureStage,
                                                    VideoFrameSampleStage)

    pcm = (np.sin(np.linspace(0, 440 * 2 * np.pi, 4000)) * 20000
           ).astype(np.int16)
    a, v = AudioFeatureStage(), VideoFrameSampleStage()
    cases = [
        (synth_mp4(1), v._decode),
        (synth_mp4_mjpeg(2), v._decode),
        (synth_webm(3), v._decode),
        (synth_webm_mjpeg(4), v._decode),
        (synth_mov_pcm(5, pcm.reshape(-1, 1), 8000), a._decode),
        (synth_m4a(6), a._decode),
        (synth_mkv_audio(7, pcm.reshape(-1, 1), 8000, "A_PCM/INT/LIT"),
         a._decode),
        (synth_ogg(8, "vorbis"), a._decode),
        (synth_ogg_flac(pcm.reshape(-1, 1), 8000, 9), a._decode),
        (synth_mp3(10), a._decode),
    ]
    for i, (base, fn) in enumerate(cases):
        _fuzz(base, fn, trials=25, seed=400 + i)


def test_apng_terminates_on_corrupt_bytes():
    from img2table_ray.pipelines.multimodal import (VideoFrameSampleStage,
                                                    synth_apng)

    v = VideoFrameSampleStage()
    _fuzz(synth_apng(11), v._decode, trials=40, seed=520)


def test_html_extractor_terminates_on_corrupt_bytes():
    from img2table_ray.extract.html_content import (main_content,
                                                    wrap_boilerplate)

    base = wrap_boilerplate(3, "some words of real content " * 8)

    def fn(payload: bytes) -> None:
        main_content(payload.decode("utf-8", "replace"))

    _fuzz(base.encode(), fn, trials=40, seed=500)


def test_url_canonicalizer_terminates_on_corrupt_bytes():
    from img2table_ray.functions.urlnorm import canonical_url, messy_url

    def fn(payload: bytes) -> None:
        canonical_url(payload.decode("utf-8", "replace"))

    _fuzz(messy_url(42).encode(), fn, trials=40, seed=510)
