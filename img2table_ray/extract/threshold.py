"""Adaptive thresholding with dark-background handling
(ref: src/img2table/tables/__init__.py:8-55), numpy-only.

The kernels run only on ink boxes; the exactness arguments are in the
``imgops/kernels.py`` module docstring.
"""

from __future__ import annotations

import numpy as np

from img2table_ray.imgops.ccl import connected_components_stats
from img2table_ray.imgops.kernels import (
    Box,
    gaussian_blur,
    ink_boxes,
    rgb2gray,
    sauvola_threshold,
)


def _sauvola255(gray: np.ndarray, window: int, box: Box) -> np.ndarray:
    return sauvola_threshold(gray, window, k=0.2, box=box).view(np.uint8) * np.uint8(255)


def _dark_areas(gray: np.ndarray, blur_size: int) -> np.ndarray:
    """gaussian_blur(gray, blur_size) <= 100, blurred only on the boxes of
    pixels <= 100 grown by the blur radius."""
    mask = np.zeros(gray.shape, bool)
    for box in ink_boxes(gray <= 100, blur_size // 2):
        y0, y1, x0, x1 = box
        np.less_equal(gaussian_blur(gray, blur_size, box=box), 100, out=mask[y0:y1, x0:x1])
    return mask


def dark_patches(stats: np.ndarray, char_length: float) -> np.ndarray:
    """[x, y, w, h] of the dark-area components (background row 0 skipped)
    that get the inverted threshold, in label order: filled to >= 50% of
    their box, shorter side >= ``char_length``, longer side >= 5x that."""
    s = stats[1:].astype(np.int64)
    w, h = s[:, 2], s[:, 3]
    short, long = np.minimum(w, h), np.maximum(w, h)
    patch = ((s[:, 4] / (w * h) >= 0.5) & (short >= char_length)
             & (long >= 5 * char_length))
    return s[patch, :4]


def threshold_dark_areas(img: np.ndarray, char_length: float) -> np.ndarray:
    """Sauvola threshold; dark-background regions get the inverted-image
    threshold patched in (ref tables/__init__.py:8-55).  Returns 0/255.

    Sauvola runs on the boxes of pixels below 255 (a 255 pixel is never
    on), the dark-area blur on the boxes of pixels <= 100 grown by the
    blur radius (elsewhere the blur is above 100), and the inverted
    Sauvola on the boxes of the components it patches."""
    gray = rgb2gray(img)

    # If image is mainly black, invert
    if np.mean(gray) <= 127:
        gray = 255 - gray

    thresh_kernel = int(char_length) // 2 * 2 + 1
    thresh = np.zeros(gray.shape, np.uint8)
    for box in ink_boxes(gray < 255, 0):
        y0, y1, x0, x1 = box
        thresh[y0:y1, x0:x1] = _sauvola255(gray, thresh_kernel, box)

    # Mask areas with dark background
    blur_size = min(255, int(2 * char_length) // 2 * 2 + 1)
    stats = connected_components_stats(_dark_areas(gray, blur_size))

    inverted = None
    for x, y, w, h in dark_patches(stats, char_length).tolist():
        if inverted is None:
            inverted = 255 - gray
        thresh[y : y + h, x : x + w] = _sauvola255(inverted, thresh_kernel,
                                                   (y, y + h, x, x + w))

    return thresh
