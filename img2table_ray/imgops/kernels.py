"""Pure-numpy image-processing kernels replacing the OpenCV calls the
reference makes.  Each function documents the cv2 call it substitutes and
follows its arithmetic (fixed-point grayscale, border modes, anchor
conventions) closely enough to reproduce the reference's pytest goldens.

No OpenCV in the runtime.  Every kernel returns exactly the array of the
plain float64 / per-pixel form it stands for (those forms are kept as
oracles in tests/test_vectorized_kernels.py); the faster form is exact for
the reason given here.  Grayness arrives as ``img.ndim``: an (H, W) plane
is a gray page, the reference's (H, W, 3) page of three equal channels.

* ``rgb2gray``: a gray plane is its own gray image, because
  4899 + 9617 + 1868 = 2**14 makes the fixed-point luma of (v, v, v)
  exactly (v * 2**14 + 8192) >> 14 = v.
* ``_slide_extreme_axis`` (``dilate``/``erode``/``morph_*``): the max or
  min over a window of k is the max or min of two overlapping windows of
  the largest power of two p <= k, and windows of 2m are pairs of windows
  of m; max and min are exact in uint8, in any grouping.
* ``sauvola_threshold``: the window sums of gray and gray**2 are integers,
  so int32 integral images (int64 once window**2 * 65025 reaches 2**31)
  give the float64 cumsum differences exactly; a difference of wrapped
  int32 prefix sums is exact while the true window sum is below 2**31.
  The float tail is the float64/float32 expression of the reference form.
* ``bilateral3_gray``: the same float32 products and sums, element for
  element, on planar channels; a gray plane is filtered once with the L1
  colour distance 3 * |d| of three equal channels, and the filtered plane
  is its gray image (the luma of equal channels, as for ``rgb2gray``).
* ``gaussian_blur``/``adaptive_threshold_gaussian_inv``: the separable
  passes run in float32, whose result is within ``_tie_tol(n)`` of the
  float64 form; a pixel can round differently only if its float32 value
  lies that close to a half-integer, and those pixels alone are
  recomputed in float64 in the reference tap order.

Most of a document page is white paper, so the page kernels of
``extract/threshold.py`` and ``extract/lines.py`` run only on ``ink_boxes``
of the pixels that can change their output; outside, the array holds the
constant the full-page form provably gives there.  ``sauvola_threshold``,
``gaussian_blur``, ``bilateral3_gray`` and ``laplacian3_abs`` take a
``box`` and read the image through the full image's border index maps
(``_window``), with the same elementwise arithmetic, so a box is exactly
that part of the full-page result; the whole page is the one-box case.
A reflect-101 or replicate map sends a tap at most r pixels from its
pixel to a pixel at most r from it, so "every pixel within r" below
includes the border's reflected reads.

* Sauvola (boxes of gray < 255, no margin): a window of values in 0..255
  has std <= 127.5 < r = 128, so with k = 0.2 the threshold is at most
  mean * (1 + 0.2 * (127.5 / 128 - 1)) < 0.9993 * 255 < 255, float32
  rounding included; a 255 pixel is never on.
* Dark-area mask, blur <= 100 (boxes of gray <= 100 grown by the blur
  radius): farther out, every tap reads a pixel >= 101, and the blur is
  their weighted mean (weights >= 0 summing to 1 up to ~1e-15, float32
  error below ``_tie_tol``), which rounds to >= 101.
* Edge image, ``laplacian3_abs(bilateral3_gray(img))`` (boxes of
  non-white pixels grown by 2): the Laplacian reads the bilateral image at
  its pixel and four diagonal neighbours, each of which reads its
  4-neighbourhood: all within 2 pixels.  When those are all white
  (255 in every channel) the bilateral means are 255, their luma is 255,
  and 2 * 4 * 255 - 8 * 255 = 0.
"""

from __future__ import annotations

import numpy as np

# (y0, y1, x0, x1) of an image, ends exclusive
Box = tuple[int, int, int, int]

# float32 elements per cache block of the blocked filters: a block, its
# shifted reads and its temporaries stay resident in L2 across all taps
BLOCK = 1 << 15


def _is_gray(img: np.ndarray) -> bool:
    """True iff R == G == B at every pixel.  Compared in row blocks, so a
    colour page costs only the blocks up to its first colour pixel."""
    rows = max(1, BLOCK // max(1, img.shape[1]))
    for r0 in range(0, img.shape[0], rows):
        b = img[r0 : r0 + rows]
        if not (np.array_equal(b[:, :, 0], b[:, :, 1])
                and np.array_equal(b[:, :, 0], b[:, :, 2])):
            return False
    return True


def _luma(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(R*4899 + G*9617 + B*1868 + 8192) >> 14 of three uint8 planes."""
    r, g, b = (c.astype(np.uint32) for c in (r, g, b))
    return ((r * 4899 + g * 9617 + b * 1868 + 8192) >> 14).astype(np.uint8)


def rgb2gray(img: np.ndarray) -> np.ndarray:
    """cv2.cvtColor(img, COLOR_RGB2GRAY) — fixed-point BT.601 luma:
    (R*4899 + G*9617 + B*1868 + 8192) >> 14 on uint8; a gray plane is
    its own gray image."""
    if img.ndim == 2:
        return np.ascontiguousarray(img)
    return _luma(img[:, :, 0], img[:, :, 1], img[:, :, 2])


def luma_float(img: np.ndarray) -> np.ndarray:
    """0.299 R + 0.587 G + 0.114 B in float64 (not cv2's fixed point); a
    gray plane is each of R, G, B."""
    r, g, b = (img,) * 3 if img.ndim == 2 else img.transpose(2, 0, 1)[:3]
    return 0.299 * r + 0.587 * g + 0.114 * b


def _slide_extreme_axis(x: np.ndarray, k: int, a: int, axis: int,
                        is_max: bool) -> np.ndarray:
    """Sliding max/min of a uint8 array along ``axis`` with window ``k``,
    anchor ``a`` (out[i] reduces input indices [i-a, i-a+k)); out-of-image
    contributes the reduction identity (0 for max, 255 for min), i.e.
    border pixels are ignored, cv2 default-border morphology semantics.

    By doubling, all in uint8: windows of 2m are the extreme of two
    windows of m, ping-ponged between two identity-padded buffers, then
    one combine of two overlapping windows of the largest power of two
    p <= k.  log2(k) + 1 passes, each over contiguous shifted slices."""
    if k == 1:
        return x
    op = np.maximum if is_max else np.minimum
    n = x.shape[axis]

    def at(lo: int, hi: int) -> tuple:
        return (slice(None), slice(lo, hi)) if axis else (slice(lo, hi),)

    shp = list(x.shape)
    shp[axis] = n + k - 1
    src = np.full(shp, 0 if is_max else 255, np.uint8)
    src[at(a, a + n)] = x
    dst = np.empty_like(src) if k > 2 else None
    # src[i] holds the extreme of the padded input over [i, i + m)
    m = 1
    while 2 * m < k:
        length = n + k - 2 * m
        op(src[at(0, length)], src[at(m, m + length)], out=dst[at(0, length)])
        src, dst = dst, src
        m *= 2
    shp[axis] = n
    out = np.empty(shp, np.uint8)
    op(src[at(0, n)], src[at(k - m, k - m + n)], out=out)
    return out


def dilate(binary: np.ndarray, kw: int, kh: int) -> np.ndarray:
    """cv2.dilate with a rect kernel on a 0/255 uint8 image.  OOB = ignored.

    cv2's documented formula uses src(x + x' - anchor) for BOTH erode and
    dilate, i.e. no kernel reflection — verified against the reference's
    line-detection golden, where even-sized kernels shift open/close output
    by +1 per operation.

    Rect SEs are separable: sliding max along x then y (identity 0 for the
    ignored border) equals the 2-D windowed max, and for 0/255 input the
    windowed max IS 'any pixel set' (on other uint8 input it is cv2's own
    grey-level dilation)."""
    if kw == kh == 1:
        return binary.copy()
    b = _slide_extreme_axis(binary, kw, kw // 2, axis=1, is_max=True)
    return _slide_extreme_axis(b, kh, kh // 2, axis=0, is_max=True)


def erode(binary: np.ndarray, kw: int, kh: int) -> np.ndarray:
    """cv2.erode with a rect kernel on a 0/255 image.  OOB treated as +inf
    (border ignored): a pixel survives iff every *in-image* window pixel is
    set — sliding min with identity 255 for out-of-image, separable."""
    if kw == kh == 1:
        return binary.copy()
    b = _slide_extreme_axis(binary, kw, kw // 2, axis=1, is_max=False)
    return _slide_extreme_axis(b, kh, kh // 2, axis=0, is_max=False)


def morph_open(binary: np.ndarray, kw: int, kh: int) -> np.ndarray:
    return dilate(erode(binary, kw, kh), kw, kh)


def morph_close(binary: np.ndarray, kw: int, kh: int) -> np.ndarray:
    return erode(dilate(binary, kw, kh), kw, kh)


def ink_boxes(mask: np.ndarray, halo: int) -> list[Box]:
    """Boxes (y0, y1, x0, x1), ends exclusive, that cover every set pixel
    of an (H, W) mask with a margin of ``halo`` pixels, clipped to the
    mask; an (H, W, C) mask sets a pixel where any channel is set.

    One box per run of rows holding a set pixel, runs whose gap is at most
    2 * halo rows joined (their grown boxes would touch), each with the
    column span of its set pixels; the boxes are row-disjoint."""
    h, w = mask.shape[:2]
    rows = np.flatnonzero(mask.any(axis=tuple(range(1, mask.ndim))))
    if rows.size == 0:
        return []
    cut = np.flatnonzero(np.diff(rows) > 2 * halo + 1)
    boxes = []
    for y0, y1 in zip(rows[np.r_[0, cut + 1]], rows[np.r_[cut, rows.size - 1]] + 1):
        # channels reduced after rows: a reduction over a 3-long inner
        # axis of the whole page is ~40x slower
        cols = np.flatnonzero(mask[y0:y1].any(axis=0).reshape(w, -1).any(axis=1))
        boxes.append((max(0, int(y0) - halo), min(h, int(y1) + halo),
                      max(0, int(cols[0]) - halo), min(w, int(cols[-1]) + 1 + halo)))
    return boxes


def _window(img: np.ndarray, box: Box | None, pad: int,
            mode: str) -> np.ndarray:
    """Rows y0 - pad .. y1 + pad and columns x0 - pad .. x1 + pad of a 2-D
    image (the whole image when ``box`` is None), read through the full
    image's np.pad index maps: ``np.pad(np.arange(h), pad, mode)`` ("reflect"
    = reflect-101, "edge" = replicate).  A margin inside the image is a
    view.  An overhang lies past an image border, where the clipped slice
    ends as the image does, so np.pad of the slice by its overhangs reads
    the same maps, except for a reflection longer than the slice: np.pad's
    repeated reflection depends on both sides' widths, so that (tiny) case
    gathers through the maps themselves."""
    h, w = img.shape
    y0, y1, x0, x1 = box or (0, h, 0, w)
    win = img[max(0, y0 - pad) : min(h, y1 + pad), max(0, x0 - pad) : min(w, x1 + pad)]
    over = ((max(0, pad - y0), max(0, y1 + pad - h)),
            (max(0, pad - x0), max(0, x1 + pad - w)))
    if mode == "reflect" and (max(over[0]) >= win.shape[0] or max(over[1]) >= win.shape[1]):
        rmap = np.pad(np.arange(h), pad, mode=mode)[y0 : y1 + 2 * pad]
        cmap = np.pad(np.arange(w), pad, mode=mode)[x0 : x1 + 2 * pad]
        return img[rmap[:, None], cmap]
    return np.pad(win, over, mode=mode) if any(map(any, over)) else win


def _window_sums(p: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer k x k window sums of p and p**2 over the (hp - k + 1,
    wp - k + 1) positions where the window fits in the (hp, wp) uint8 ``p``.

    Rows first (one cumsum along the fast axis over both planes side by
    side), then columns as one ``np.add`` per row: numpy's cumsum along
    axis 0 walks the array column by column (46.5 against 8.4 ms on the
    1200 x 2660 int32 sums of a 1.5 Mpx page)."""
    hp, wp = p.shape
    h, w = hp - k + 1, wp - k + 1
    dt = np.int32 if k * k * 65025 < 2 ** 31 else np.int64
    cs = np.empty((hp, 2, wp + 1), dt)
    cs[:, :, 0] = 0
    cs[:, 0, 1:] = p
    np.multiply(p, p, out=cs[:, 1, 1:], dtype=dt)
    np.cumsum(cs[:, :, 1:], axis=2, out=cs[:, :, 1:])
    rows = (cs[:, :, k:] - cs[:, :, :-k]).reshape(hp, 2 * w)
    vs = np.empty((hp + 1, 2 * w), dt)
    vs[0] = 0
    for i in range(hp):
        np.add(vs[i], rows[i], out=vs[i + 1])
    s = (vs[k:] - vs[:-k]).reshape(h, 2, w)
    return s[:, 0], s[:, 1]


def sauvola_threshold(gray: np.ndarray, window: int, k: float = 0.2,
                      r: float = 128.0,
                      box: Box | None = None) -> np.ndarray:
    """Sauvola local threshold surface (cv2.ximgproc.niBlackThreshold with
    BINARIZATION_SAUVOLA): t = mean * (1 + k * (std / r - 1)).

    Window means of a k x k box with BORDER_REPLICATE in float64 (exact
    integer sums / window**2), the rest in float32 like OpenCV's CV_32F
    path; evaluated in row blocks that stay in cache.  Returns the boolean
    'on' mask (gray <= t), matching the reference's THRESH_BINARY_INV use
    (src/img2table/tables/__init__.py:24-27), of the whole page or of
    ``box`` (y0, y1, x0, x1) of it."""
    h, w = gray.shape
    y0, y1, x0, x1 = box or (0, h, 0, w)
    s1, s2 = _window_sums(_window(gray, box, window // 2, "edge"), window)
    n = window * window
    g = gray[y0:y1, x0:x1]
    on = np.empty(g.shape, dtype=bool)
    rows = max(1, BLOCK // max(1, x1 - x0))
    for r0 in range(0, y1 - y0, rows):
        blk = slice(r0, r0 + rows)
        mean = s1[blk] / n
        var = s2[blk] / n
        var -= mean ** 2
        np.maximum(var, 0.0, out=var)
        std = np.sqrt(var.astype(np.float32))
        t = mean.astype(np.float32) * (1.0 + k * (std / r - 1.0))
        np.less_equal(g[blk], t, out=on[blk])
    return on


def gaussian_kernel_1d(ksize: int, sigma: float = 0.0) -> np.ndarray:
    """cv2.getGaussianKernel: sigma<=0 -> 0.3*((ksize-1)*0.5 - 1) + 0.8."""
    if sigma <= 0:
        sigma = 0.3 * ((ksize - 1) * 0.5 - 1) + 0.8
    x = np.arange(ksize, dtype=np.float64) - (ksize - 1) / 2
    k = np.exp(-(x ** 2) / (2 * sigma ** 2))
    return k / k.sum()


def _tie_tol(n: int) -> float:
    """Bound on |float32 form - float64 form| of an n-tap separable blur
    of uint8 values (``_taps32``).  With u = 2**-24 and c = n // 2, each
    pass's float32 result is within (c + 3) * u of the exact sum relative
    to its <= 255 value (kernel rounding, pair sum and product per term, c
    additions), and the second pass carries the first one's error once
    more (the kernel sums to 1): at most (2c + 6) * u * 255 =
    (n + 5) * u * 255 in all.  The float64 form is off by at most
    (2n + 2) * 2**-53 * 255.  (2n + 2) * u * 256 exceeds their sum for
    every odd n >= 3; for n = 1 the kernel is [1.0] and both are exact."""
    return (2 * n + 2) * 2.0 ** -24 * 256


def _taps32(src: np.ndarray, k32: np.ndarray, stride: int,
            out: np.ndarray) -> None:
    """out[j] = sum_i k32[i] * src[j + i * stride] on flat float32 arrays,
    k32 symmetric of odd length: centre tap, then one product per pair of
    taps.  Cache-blocked; every operand is a contiguous 1-D slice."""
    n = len(k32)
    c = n // 2
    tmp = np.empty(min(BLOCK, out.size), np.float32)
    for j0 in range(0, out.size, BLOCK):
        j1 = min(out.size, j0 + BLOCK)
        acc, t = out[j0:j1], tmp[: j1 - j0]
        np.multiply(src[j0 + c * stride : j1 + c * stride], k32[c], out=acc)
        for i in range(c):
            a, b = i * stride, (n - 1 - i) * stride
            np.add(src[j0 + a : j1 + a], src[j0 + b : j1 + b], out=t)
            t *= k32[i]
            acc += t


def _gaussian32(p: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Separable blur in float32 with kernel ``k`` (odd length n) of the
    positions where it fits in the 2-D uint8 ``p``, an image read with an
    (n - 1) / 2 margin (``_window``): an (hp - n + 1, wp) array whose first
    wp - n + 1 columns are the result (the rest is finite junk of the flat
    row-major passes)."""
    n = len(k)
    hp, wp = p.shape
    k32 = k.astype(np.float32)
    rows = np.empty((hp, wp), np.float32)
    flat = rows.reshape(-1)
    _taps32(p.astype(np.float32).reshape(-1), k32, 1, flat[: flat.size - (n - 1)])
    flat[flat.size - (n - 1) :] = 0
    v = np.empty((hp - n + 1, wp), np.float32)
    _taps32(flat, k32, wp, v.reshape(-1))
    return v


def _gaussian_rint(p: np.ndarray, ksize: int, sigma: float) -> np.ndarray:
    """rint of the separable Gaussian of the positions where the kernel
    fits in the 2-D uint8 window ``p`` (``_window``: an image read through
    its border's index maps with a ksize // 2 margin), exactly as the
    float64 form rounds it: row pass, then column pass, each tap-ordered
    from 0 (``_convolve_axis``).  ksize odd, as cv2 requires.

    Float32 passes (``_gaussian32``); pixels within ``_tie_tol`` of a
    half-integer are recomputed in float64.  When those are many
    (band * ksize >= pixels), the whole window takes the float64 form
    instead, so no image costs much more than that form alone."""
    if ksize % 2 == 0:
        raise ValueError(f"Gaussian ksize must be odd, got {ksize}")
    k = gaussian_kernel_1d(ksize, sigma)
    n = ksize
    h, w = p.shape[0] - n + 1, p.shape[1] - n + 1
    v = _gaussian32(p, k)
    wp = v.shape[1]
    out = np.rint(v)
    # |v - rint(v)| is exact; it exceeds 0.5 - tol iff v lies within tol
    # of a half-integer
    np.subtract(v, out, out=v)
    np.abs(v, out=v)
    ys, xs = np.divmod(np.flatnonzero(v.reshape(-1) > 0.5 - _tie_tol(n)), wp)
    ys, xs = ys[xs < w], xs[xs < w]
    if ys.size * n >= h * w:
        f = _convolve_axis(p.astype(np.float64), k, axis=1)
        return np.rint(_convolve_axis(f, k, axis=0))
    out = out[:, :w]
    step = max(1, (1 << 18) // (n * n))
    taps = np.arange(n)
    for s in range(0, ys.size, step):
        y, x = ys[s : s + step], xs[s : s + step]
        g = p[(y[:, None] + taps)[:, :, None],
              (x[:, None] + taps)[:, None, :]].astype(np.float64)
        r = np.zeros(g.shape[:2])
        for j in range(n):
            r += k[j] * g[:, :, j]
        acc = np.zeros(len(y))
        for i in range(n):
            acc += k[i] * r[:, i]
        out[y, x] = np.rint(acc)
    return out


def gaussian_blur(img: np.ndarray, ksize: int, sigma: float = 0.0,
                  box: Box | None = None) -> np.ndarray:
    """cv2.GaussianBlur((k,k), sigma) on uint8 with BORDER_DEFAULT
    (reflect-101); rounded back to uint8.  The whole image, or ``box``
    (y0, y1, x0, x1) of it."""
    out = _gaussian_rint(_window(img, box, ksize // 2, "reflect"), ksize, sigma)
    # a weighted mean of 0..255 with weights >= 0 is never below 0
    return np.minimum(out, 255, out=out).astype(np.uint8)


def _convolve_axis(f: np.ndarray, k: np.ndarray, axis: int) -> np.ndarray:
    """'valid' correlation of a padded float64 array along an axis, taps
    accumulated in order from 0: the float64 form the Gaussian kernels
    reproduce, run whole only when too many pixels are near ties."""
    n = len(k)
    if axis == 1:
        w_out = f.shape[1] - n + 1
        out = np.zeros((f.shape[0], w_out), dtype=np.float64)
        for i in range(n):
            out += k[i] * f[:, i : i + w_out]
        return out
    h_out = f.shape[0] - n + 1
    out = np.zeros((h_out, f.shape[1]), dtype=np.float64)
    for i in range(n):
        out += k[i] * f[i : i + h_out, :]
    return out


def laplacian3_abs(gray: np.ndarray,
                   box: Box | None = None) -> np.ndarray:
    """cv2.Laplacian(gray, CV_64F, ksize=3) then cv2.convertScaleAbs:
    kernel [[2,0,2],[0,-8,0],[2,0,2]] (Sobel d2x + d2y), reflect-101
    border, |.| saturated to uint8, of the whole image or ``box`` (y0, y1,
    x0, x1) of it.  Integer kernel on uint8 input -> exact in int16
    (|values| <= 8*255)."""
    f = _window(gray, box, 1, "reflect").astype(np.int16)
    lap = (
        2 * (f[:-2, :-2] + f[:-2, 2:] + f[2:, :-2] + f[2:, 2:])
        - 8 * f[1:-1, 1:-1].astype(np.int16)
    )
    np.abs(lap, out=lap)
    return np.minimum(lap, 255).astype(np.uint8)


def _bilateral3_planes(img: np.ndarray, sigma_color: float, sigma_space: float,
                       box: Box | None = None) -> list[np.ndarray]:
    """cv2.bilateralFilter(img, d=3, sigma_color, sigma_space) on RGB
    uint8, as uint8 planes: one for a gray plane, else R, G, B; of the
    whole image or ``box`` (y0, y1, x0, x1) of it.

    d=3 -> radius 1; OpenCV keeps offsets with euclidean norm <= radius,
    i.e. the 4-neighborhood + centre.  Color weight uses the L1 distance
    over channels: exp(-0.5 * (|dr|+|dg|+|db|)^2 / sigma_color^2).

    Each channel is padded (reflect-101, BORDER_DEFAULT) once, as int16
    and float32 planes read through flat row-major offsets (+-1, +-row),
    in cache blocks with preallocated buffers.  A gray plane has the L1
    distance 3 * |d| of three equal channels."""
    y0, y1, x0, x1 = box or (0, img.shape[0], 0, img.shape[1])
    h, w = y1 - y0, x1 - x0
    gauss_color = -0.5 / (sigma_color ** 2)
    gauss_space = -0.5 / (sigma_space ** 2)
    # OpenCV precomputes color weights on integer L1 distances 0..765
    cw_table = np.exp(gauss_color * (np.arange(256 * 3, dtype=np.float32) ** 2))
    # flush subnormal weights to zero: high-contrast edges otherwise drag
    # float32 denormals through the accumulators (~100x slowdown measured);
    # a 1e-38 weight contributes ~1e-36 to a ~1e2 accumulator — far below
    # uint8 rounding resolution, so outputs are unchanged
    cw_table[cw_table < np.float32(1.2e-38)] = 0.0
    gray = img.ndim == 2
    w2 = w + 2
    pi = [_window(c, box, 1, "reflect").astype(np.int16).reshape(-1)
          for c in ([img] if gray else img.transpose(2, 0, 1))]
    pf = [p.astype(np.float32) for p in pi]
    res = [np.empty((h + 2) * w2, np.float32) for _ in pi]
    offsets = [(np.float32(np.exp(gauss_space * (dy * dy + dx * dx))), dy * w2 + dx)
               for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1))]
    size = min(BLOCK, h * w2)
    l1, d = np.empty(size, np.int16), np.empty(size, np.int16)
    wgt, prod, den = (np.empty(size, np.float32) for _ in range(3))
    # flat positions of rows 1..h of the padded grid, pad columns included
    lo, hi = w2 + 1, (h + 1) * w2 - 1
    for s in range(lo, hi, BLOCK):
        e = min(hi, s + BLOCK)
        L1, D, W, P, DEN = l1[: e - s], d[: e - s], wgt[: e - s], prod[: e - s], den[: e - s]
        # centre offset has weight exactly 1 (l1=0, exp(0)=1)
        DEN[:] = 1
        nums = [r[s:e] for r in res]
        for num, p in zip(nums, pf):
            num[:] = p[s:e]
        for sw, off in offsets:
            for c, p in enumerate(pi):
                dst = D if c else L1
                np.subtract(p[s + off : e + off], p[s:e], out=dst)
                np.abs(dst, out=dst)
                if c:
                    L1 += D
            if gray:
                L1 *= 3
            np.take(cw_table, L1, out=W)
            W *= sw
            for num, p in zip(nums, pf):
                np.multiply(p[s + off : e + off], W, out=P)
                num += P
            DEN += W
        for num in nums:
            num /= DEN
            # cv2 rounds to nearest on store; a weighted mean of 0..255
            # with weights >= 0 is never below 0
            np.rint(num, out=num)
            np.minimum(num, 255, out=num)
    return [r.reshape(h + 2, w2)[1 : h + 1, 1 : w + 1].astype(np.uint8)
            for r in res]


def bilateral3_gray(img: np.ndarray, sigma_color: float = 40.0,
                    sigma_space: float = 80.0,
                    box: Box | None = None) -> np.ndarray:
    """cv2.bilateralFilter(img, d=3, 40, 80) then cv2.cvtColor(RGB2GRAY):
    the filtered plane of a gray plane is its gray image, else the luma
    of the three filtered planes (``_bilateral3_planes``); of the whole
    image or ``box`` of it."""
    planes = _bilateral3_planes(img, sigma_color, sigma_space, box)
    return planes[0] if len(planes) == 1 else _luma(*planes)


def adaptive_threshold_gaussian_inv(gray: np.ndarray, block: int, c: float) -> np.ndarray:
    """cv2.adaptiveThreshold(..., ADAPTIVE_THRESH_GAUSSIAN_C,
    THRESH_BINARY_INV, block, C): on iff src < mean_gauss - C (cv2 uses
    maxval when src > thresh for BINARY; INV flips: dst=255 iff
    src <= thresh - 1 ... cv2 computes idelta and a LUT; effectively
    dst = 255 iff src <= mean - C (integer thresholds))."""
    # adaptiveThreshold uses BORDER_REPLICATE for the local mean, and cv2
    # stores the blurred mean as uint8
    mean = _gaussian_rint(_window(gray, None, block // 2, "edge"), block,
                          0.0).astype(np.float64)
    # cv2: dst = (src > mean - C) ? 0 : 255  for THRESH_BINARY_INV
    return np.where(gray.astype(np.float64) > mean - c, 0, 255).astype(np.uint8)
