"""Pure-numpy image-processing kernels replacing the OpenCV calls the
reference makes.  Each function documents the cv2 call it substitutes and
follows its arithmetic (fixed-point grayscale, border modes, anchor
conventions) closely enough to reproduce the reference's pytest goldens.

No OpenCV in the runtime: everything is integral-image / separable-filter
numpy, O(H*W) independent of kernel size.
"""

from __future__ import annotations

import numpy as np


def rgb2gray(img: np.ndarray) -> np.ndarray:
    """cv2.cvtColor(img, COLOR_RGB2GRAY) — fixed-point BT.601 luma:
    (R*4899 + G*9617 + B*1868 + 8192) >> 14 on uint8."""
    r = img[:, :, 0].astype(np.uint32)
    g = img[:, :, 1].astype(np.uint32)
    b = img[:, :, 2].astype(np.uint32)
    return ((r * 4899 + g * 9617 + b * 1868 + 8192) >> 14).astype(np.uint8)


def window_sum(img: np.ndarray, kw: int, kh: int,
               ax: int | None = None, ay: int | None = None) -> np.ndarray:
    """Windowed sum with out-of-image treated as 0; anchor defaults to
    (kw//2, kh//2) like cv2.getStructuringElement.

    Implementation: edge-padded integral image + pure slicing, int32
    accumulation for small-dtype inputs — the hot kernel of all morphology.
    (A separable two-pass variant with clipped-bound gathers was measured
    ~20% SLOWER on page-sized images: the per-column fancy gather costs
    more than the padded table saves.)"""
    if ax is None:
        ax = kw // 2
    if ay is None:
        ay = kh // 2
    h, w = img.shape
    dtype = np.int32 if img.dtype.kind in "ub" and img.size < 2 ** 22 else np.float64
    ii = np.zeros((h + 1, w + 1), dtype=dtype)
    np.cumsum(img, axis=0, out=ii[1:, 1:])
    np.cumsum(ii[1:, 1:], axis=1, out=ii[1:, 1:])
    # P[r, c] = ii[clip(r - ay, 0, h), clip(c - ax, 0, w)]
    P = np.pad(ii, ((ay, kh - 1 - ay), (ax, kw - 1 - ax)), mode="edge")
    return (P[kh : kh + h, kw : kw + w]
            - P[0:h, kw : kw + w] - P[kh : kh + h, 0:w] + P[0:h, 0:w])


def _slide_extreme_axis(x: np.ndarray, k: int, a: int, axis: int,
                        is_max: bool) -> np.ndarray:
    """Sliding max/min of a uint8 array along ``axis`` with window ``k``,
    anchor ``a`` (out[i] reduces input indices [i-a, i-a+k)); out-of-image
    contributes the reduction identity (0 for max, 255 for min), i.e.
    border pixels are ignored, cv2 default-border morphology semantics.

    Two regimes, both pure-uint8 (the int32 integral-image form this
    replaces moved ~5x the bytes and dominated page-level memory
    bandwidth at high actor counts):

    * k <= 8: reduce over k shifted slices of one padded copy;
    * k > 8: van Herk / Gil-Werman — two uint8 running-extreme passes
      over k-sized blocks + one elementwise combine, O(1) per pixel
      independent of k.
    """
    if k == 1:
        return x
    op = np.maximum if is_max else np.minimum
    ident = 0 if is_max else 255
    h, w = x.shape
    n = x.shape[axis]
    if k <= 8:
        shp = (h, n + k - 1) if axis == 1 else (n + k - 1, w)
        P = np.full(shp, ident, np.uint8)
        if axis == 1:
            P[:, a : a + n] = x
            out = P[:, 0:n].copy()
            for j in range(1, k):
                op(out, P[:, j : j + n], out=out)
        else:
            P[a : a + n, :] = x
            out = P[0:n, :].copy()
            for j in range(1, k):
                op(out, P[j : j + n, :], out=out)
        return out
    # van Herk: pad to a multiple of the block size m == k
    m = k
    L = n + k - 1
    L2 = ((L + m - 1) // m) * m
    shp = (h, L2) if axis == 1 else (L2, w)
    P = np.full(shp, ident, np.uint8)
    if axis == 1:
        P[:, a : a + n] = x
        blocks = P.reshape(h, L2 // m, m)
        F = op.accumulate(blocks, axis=2).reshape(h, L2)
        B = np.flip(op.accumulate(np.flip(blocks, 2), axis=2), 2).reshape(h, L2)
        return op(B[:, 0:n], F[:, k - 1 : k - 1 + n])
    P[a : a + n, :] = x
    blocks = P.reshape(L2 // m, m, w)
    F = op.accumulate(blocks, axis=1).reshape(L2, w)
    B = np.flip(op.accumulate(np.flip(blocks, 1), axis=1), 1).reshape(L2, w)
    return op(B[0:n, :], F[k - 1 : k - 1 + n, :])


def _as_binary255(binary: np.ndarray) -> np.ndarray:
    """0/255 uint8 copy of a 'binary' image (any nonzero counts as set,
    matching the counting form's ``binary > 0``)."""
    return np.where(binary != 0, np.uint8(255), np.uint8(0))


def dilate(binary: np.ndarray, kw: int, kh: int) -> np.ndarray:
    """cv2.dilate with a rect kernel on a 0/255 uint8 image.  OOB = ignored.

    cv2's documented formula uses src(x + x' - anchor) for BOTH erode and
    dilate, i.e. no kernel reflection — verified against the reference's
    line-detection golden, where even-sized kernels shift open/close output
    by +1 per operation.

    Rect SEs are separable: sliding max along x then y (identity 0 for the
    ignored border) equals the 2-D windowed max, and for 0/255 input the
    windowed max IS 'any pixel set' — bit-identical to the integral-image
    counting form at a fraction of the memory traffic."""
    b = _as_binary255(binary)
    b = _slide_extreme_axis(b, kw, kw // 2, axis=1, is_max=True)
    return _slide_extreme_axis(b, kh, kh // 2, axis=0, is_max=True)


def erode(binary: np.ndarray, kw: int, kh: int) -> np.ndarray:
    """cv2.erode with a rect kernel on a 0/255 image.  OOB treated as +inf
    (border ignored): a pixel survives iff every *in-image* window pixel is
    set — sliding min with identity 255 for out-of-image, separable."""
    b = _as_binary255(binary)
    b = _slide_extreme_axis(b, kw, kw // 2, axis=1, is_max=False)
    return _slide_extreme_axis(b, kh, kh // 2, axis=0, is_max=False)


def morph_open(binary: np.ndarray, kw: int, kh: int) -> np.ndarray:
    return dilate(erode(binary, kw, kh), kw, kh)


def morph_close(binary: np.ndarray, kw: int, kh: int) -> np.ndarray:
    return erode(dilate(binary, kw, kh), kw, kh)


def box_mean_replicate(img: np.ndarray, k: int) -> np.ndarray:
    """Normalized k x k box filter with BORDER_REPLICATE, float64 output —
    the mean filter inside cv2.ximgproc.niBlackThreshold.

    Separable cumsum passes (replicate padding commutes with per-axis box
    sums): no 2-D padded integral table, ~half the float64 traffic of the
    corner-gather form, and pure slicing instead of np.ix_ gathers."""
    pad = k // 2
    h, w = img.shape
    fp = np.pad(img.astype(np.float64), ((pad, pad), (0, 0)), mode="edge")
    cs = np.zeros((h + 2 * pad + 1, w), dtype=np.float64)
    np.cumsum(fp, axis=0, out=cs[1:])
    v = cs[k:] - cs[:-k]  # slices are views: subtraction must allocate
    vp = np.pad(v, ((0, 0), (pad, pad)), mode="edge")
    cs2 = np.zeros((h, w + 2 * pad + 1), dtype=np.float64)
    np.cumsum(vp, axis=1, out=cs2[:, 1:])
    out = cs2[:, k:] - cs2[:, :-k]
    out /= k * k
    return out


def sauvola_threshold(gray: np.ndarray, window: int, k: float = 0.2,
                      r: float = 128.0) -> np.ndarray:
    """Sauvola local threshold surface (cv2.ximgproc.niBlackThreshold with
    BINARIZATION_SAUVOLA): t = mean * (1 + k * (std / r - 1)).

    Computed in float32 like OpenCV's CV_32F path.  Returns the boolean
    'on' mask (gray <= t), matching the reference's THRESH_BINARY_INV use
    (src/img2table/tables/__init__.py:24-27)."""
    mean = box_mean_replicate(gray, window)
    sqmean = box_mean_replicate(gray.astype(np.float64) ** 2, window)
    var = np.maximum(sqmean - mean ** 2, 0.0)
    std = np.sqrt(var.astype(np.float32))
    t = mean.astype(np.float32) * (1.0 + k * (std / r - 1.0))
    return gray.astype(np.float32) <= t


def gaussian_kernel_1d(ksize: int, sigma: float = 0.0) -> np.ndarray:
    """cv2.getGaussianKernel: sigma<=0 -> 0.3*((ksize-1)*0.5 - 1) + 0.8."""
    if sigma <= 0:
        sigma = 0.3 * ((ksize - 1) * 0.5 - 1) + 0.8
    x = np.arange(ksize, dtype=np.float64) - (ksize - 1) / 2
    k = np.exp(-(x ** 2) / (2 * sigma ** 2))
    return k / k.sum()


def _reflect101_pad_1d(arr: np.ndarray, pad: int, axis: int) -> np.ndarray:
    return np.pad(arr, [(pad, pad) if a == axis else (0, 0) for a in range(arr.ndim)],
                  mode="reflect")


def gaussian_blur(img: np.ndarray, ksize: int, sigma: float = 0.0) -> np.ndarray:
    """cv2.GaussianBlur((k,k), sigma) on uint8 with BORDER_DEFAULT
    (reflect-101); rounded back to uint8."""
    k = gaussian_kernel_1d(ksize, sigma)
    pad = ksize // 2
    f = img.astype(np.float64)
    f = _reflect101_pad_1d(f, pad, axis=1)
    f = _convolve_axis(f, k, axis=1)
    f = _reflect101_pad_1d(f, pad, axis=0)
    f = _convolve_axis(f, k, axis=0)
    return np.clip(np.rint(f), 0, 255).astype(np.uint8)


def _convolve_axis(f: np.ndarray, k: np.ndarray, axis: int) -> np.ndarray:
    """'valid' correlation of a padded array along an axis.

    Cache-blocked: the k-tap accumulation walks the full image k times, so
    without blocking a 23-tap blur streams ~2k x image bytes through DRAM.
    Chunking rows (axis=1) / columns (axis=0) keeps each chunk + its output
    resident in L2 across all taps — identical arithmetic (per-element tap
    order unchanged, bit-exact), ~k x less memory traffic.  Bandwidth is
    the scaling ceiling of a saturated extraction pool."""
    n = len(k)
    # small images fit in LLC — blocking would only add per-chunk Python
    # overhead (measured slower below ~4 MB)
    blocked = f.nbytes > (4 << 20)
    if axis == 1:
        w_out = f.shape[1] - n + 1
        out = np.zeros((f.shape[0], w_out), dtype=np.float64)
        rows = (max(1, (192 * 1024) // (max(1, f.shape[1]) * 8))
                if blocked else f.shape[0])
        for r0 in range(0, f.shape[0], rows):
            blk = f[r0 : r0 + rows]
            ob = out[r0 : r0 + rows]
            for i in range(n):
                ob += k[i] * blk[:, i : i + w_out]
        return out
    h_out = f.shape[0] - n + 1
    out = np.zeros((h_out, f.shape[1]), dtype=np.float64)
    rows = (max(1, (192 * 1024) // (max(1, f.shape[1]) * 8))
            if blocked else h_out)
    for r0 in range(0, h_out, rows):
        ob = out[r0 : r0 + rows]
        ch = ob.shape[0]
        for i in range(n):
            ob += k[i] * f[r0 + i : r0 + i + ch, :]
    return out


def laplacian3_abs(gray: np.ndarray) -> np.ndarray:
    """cv2.Laplacian(gray, CV_64F, ksize=3) then cv2.convertScaleAbs:
    kernel [[2,0,2],[0,-8,0],[2,0,2]] (Sobel d2x + d2y), reflect-101
    border, |.| saturated to uint8.  Integer kernel on uint8 input ->
    exact in int16 (|values| <= 8*255)."""
    f = np.pad(gray, 1, mode="reflect").astype(np.int16)
    lap = (
        2 * (f[:-2, :-2] + f[:-2, 2:] + f[2:, :-2] + f[2:, 2:])
        - 8 * f[1:-1, 1:-1].astype(np.int16)
    )
    np.abs(lap, out=lap)
    return np.minimum(lap, 255).astype(np.uint8)


def bilateral3_color(img: np.ndarray, sigma_color: float = 40.0,
                     sigma_space: float = 80.0) -> np.ndarray:
    """cv2.bilateralFilter(img, d=3, 40, 80) on RGB uint8.

    d=3 -> radius 1; OpenCV keeps offsets with euclidean norm <= radius,
    i.e. the 4-neighborhood + centre.  Color weight uses the L1 distance
    over channels: exp(-0.5 * (|dr|+|dg|+|db|)^2 / sigma_color^2)."""
    h, w, _ = img.shape
    gauss_color = -0.5 / (sigma_color ** 2)
    gauss_space = -0.5 / (sigma_space ** 2)
    i16 = img.astype(np.int16)
    padded_i = np.pad(i16, ((1, 1), (1, 1), (0, 0)), mode="reflect")  # BORDER_DEFAULT
    # OpenCV precomputes color weights on integer L1 distances 0..765
    cw_table = np.exp(gauss_color * (np.arange(256 * 3, dtype=np.float32) ** 2))
    # flush subnormal weights to zero: high-contrast edges otherwise drag
    # float32 denormals through the accumulators (~100x slowdown measured);
    # a 1e-38 weight contributes ~1e-36 to a ~1e2 accumulator — far below
    # uint8 rounding resolution, so outputs are unchanged
    cw_table[cw_table < np.float32(1.2e-38)] = 0.0
    # planar accumulation (measured ~2.4x vs interleaved (H,W,3) broadcasts,
    # bit-identical): centre offset has weight exactly 1 (l1=0, exp(0)=1)
    nums = [img[:, :, c].astype(np.float32) for c in range(3)]
    den = np.ones((h, w), dtype=np.float32)
    l1 = np.empty((h, w), dtype=np.int16)
    d = np.empty((h, w), dtype=np.int16)
    for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        sw = np.float32(np.exp(gauss_space * (dy * dy + dx * dx)))
        nb = padded_i[1 + dy : 1 + dy + h, 1 + dx : 1 + dx + w, :]
        np.subtract(nb[:, :, 0], i16[:, :, 0], out=l1)
        np.abs(l1, out=l1)
        for c in (1, 2):
            np.subtract(nb[:, :, c], i16[:, :, c], out=d)
            np.abs(d, out=d)
            l1 += d
        wgt = cw_table[l1]
        wgt *= sw
        for c in range(3):
            nums[c] += nb[:, :, c].astype(np.float32) * wgt
        den += wgt
    out = np.empty((h, w, 3), dtype=np.uint8)
    for c in range(3):
        q = nums[c] / den
        # cv2 rounds to nearest on store
        out[:, :, c] = np.clip(np.rint(q), 0, 255).astype(np.uint8)
    return out


def in_range_mask(img: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """cv2.inRange(img, lo, hi) -> 0/255 uint8."""
    return (((img >= lo) & (img <= hi)) * 255).astype(np.uint8)


def adaptive_threshold_gaussian_inv(gray: np.ndarray, block: int, c: float) -> np.ndarray:
    """cv2.adaptiveThreshold(..., ADAPTIVE_THRESH_GAUSSIAN_C,
    THRESH_BINARY_INV, block, C): on iff src < mean_gauss - C (cv2 uses
    maxval when src > thresh for BINARY; INV flips: dst=255 iff
    src <= thresh - 1 ... cv2 computes idelta and a LUT; effectively
    dst = 255 iff src <= mean - C (integer thresholds))."""
    k = gaussian_kernel_1d(block)
    pad = block // 2
    # adaptiveThreshold uses BORDER_REPLICATE for the local mean
    f = np.pad(gray.astype(np.float64), ((0, 0), (pad, pad)), mode="edge")
    f = _convolve_axis(f, k, axis=1)
    f = np.pad(f, ((pad, pad), (0, 0)), mode="edge")
    f = _convolve_axis(f, k, axis=0)
    mean = np.rint(f)  # cv2 stores the blurred mean as uint8
    # cv2: dst = (src > mean - C) ? 0 : 255  for THRESH_BINARY_INV
    return np.where(gray.astype(np.float64) > mean - c, 0, 255).astype(np.uint8)
