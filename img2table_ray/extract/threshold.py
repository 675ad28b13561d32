"""Adaptive thresholding with dark-background handling
(ref: src/img2table/tables/__init__.py:8-55), numpy-only.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from img2table_ray.imgops.ccl import connected_components_stats
from img2table_ray.imgops.kernels import (
    gaussian_blur,
    in_range_mask,
    rgb2gray,
    sauvola_threshold,
)


def threshold_dark_areas(img: np.ndarray, char_length: Optional[float]) -> np.ndarray:
    """Sauvola threshold; dark-background regions get the inverted-image
    threshold patched in (ref tables/__init__.py:8-55).  Returns 0/255."""
    gray = rgb2gray(img)

    # If image is mainly black, invert
    if np.mean(gray) <= 127:
        gray = 255 - gray

    thresh_kernel = int(char_length) // 2 * 2 + 1

    on = sauvola_threshold(gray, thresh_kernel, k=0.2)
    thresh = on.view(np.uint8) * np.uint8(255)
    binary_thresh = None

    # Mask areas with dark background
    blur_size = min(255, int(2 * char_length) // 2 * 2 + 1)
    blur = gaussian_blur(gray, blur_size)
    mask = in_range_mask(blur, 0, 100)

    stats = connected_components_stats(mask)

    for idx, row in enumerate(stats):
        x, y, w, h, area = (int(v) for v in row)
        if idx == 0:
            continue
        if area / (w * h) >= 0.5 and min(w, h) >= char_length and max(w, h) >= 5 * char_length:
            if binary_thresh is None:
                inv_on = sauvola_threshold(255 - gray, thresh_kernel, k=0.2)
                binary_thresh = inv_on.view(np.uint8) * np.uint8(255)
            thresh[y : y + h, x : x + w] = binary_thresh[y : y + h, x : x + w]

    return thresh
