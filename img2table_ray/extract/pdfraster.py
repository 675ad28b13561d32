"""Pure-Python 200-DPI PDF page rasterizer (vector layer).

The reference renders PDF pages with pypdfium2 at 200 DPI
(``/root/reference/src/img2table/document/pdf.py:46-67``) and runs its
pixel pipeline (threshold -> line detection -> cell grid) on the
raster.  pypdfium2 is absent from this container, so this module
rasterizes the page's VECTOR content itself:

* path fills (``m l c v y h re`` + ``f/f*/B/B*/b/b*``) via a numpy
  scanline fill (even-odd and nonzero winding);
* strokes (``S/s``) as filled quads of the CTM-scaled line width;
* clip paths (``W``/``W*``): rectangles as bbox fast path, arbitrary
  paths rasterized to an antialiased coverage mask that gates fills,
  strokes and image blits;
* image XObjects (Flate or DCT-coded, gray/RGB/CMYK) sampled through
  the inverse CTM; Form XObjects recurse with their matrix;
* text ink: REAL glyph outlines for all three embedded font program
  kinds — CFF/Type1C via ``extract/cff.py`` (Type 2 charstrings),
  TrueType via ``extract/ttf.py`` (FontFile2 glyf quadratics), and
  Type 1 via ``extract/type1.py`` (FontFile eexec + Type 1
  charstrings) — filled nonzero-winding through a per-(font, code,
  matrix) bitmap cache; only fonts WITHOUT a parseable embedded
  program fall back to per-character boxes with stroke topology and
  class-varying heights (both properties are load-bearing against the
  metrics dot/dashed-line filters).

Path fills and strokes render ANTIALIASED area coverage like pdfium
(exact fractional x coverage, sub-scanline y, linear blend) — the e2e
test pins this module against the reference's own fixture asserts
(``/root/reference/tests/document/pdf/test_pdf.py:49-73``) EXACTLY,
including the bboxes: per-page table count, title, row/column shape,
bbox.  Glyph bitmaps and the box-ink fallback stay hard/binary (the
metrics dot/dashed-line filters key on their topology); glyph placement
models SUB-PIXEL PHASE: the glyph origin quantizes to
1/``GLYPH_PHASE_STEPS`` of a device pixel and the outline is rasterized
at that fractional offset (one cached bitmap per (font, code, matrix,
phase)), so two runs of the same text offset by half a pixel produce
different ink — matching pdfium's placement behavior at the bitmap's
binary threshold (round 5; previously origins rounded to whole pixels).
"""

from __future__ import annotations

import math

import numpy as np

from img2table_ray.imgops.kernels import luma_float
from img2table_ray.imgops.limits import bounded_decompress

from img2table_ray.extract.pdftext import (
    PdfDocument,
    PdfTextError,
    _Kw,
    _Lexer,
    _Stream,
    _mul,
    page_chars,
)


class PdfRasterError(ValueError):
    pass


_BEZIER_STEPS = 16

# Sub-pixel glyph placement: the glyph origin's fractional part is
# quantized to 1/GLYPH_PHASE_STEPS of a device pixel and rasterized into
# the cached bitmap at that offset.  4 matches common rasterizer practice
# (FreeType/pdfium LCD-off phase counts); 1 degrades to legacy
# whole-pixel placement (used by tests to demonstrate the delta).
GLYPH_PHASE_STEPS = 4


def _flatten_bezier(p0, p1, p2, p3):
    """Cubic bezier -> list of points (excludes p0)."""
    pts = []
    for i in range(1, _BEZIER_STEPS + 1):
        t = i / _BEZIER_STEPS
        mt = 1.0 - t
        x = (mt**3 * p0[0] + 3 * mt * mt * t * p1[0]
             + 3 * mt * t * t * p2[0] + t**3 * p3[0])
        y = (mt**3 * p0[1] + 3 * mt * mt * t * p1[1]
             + 3 * mt * t * t * p2[1] + t**3 * p3[1])
        pts.append((x, y))
    return pts


def _clip_intersect(a, b):
    """Intersect two clips.  A clip is None, an (x0, y0, x1, y1) rect, or
    a 5-tuple (x0, y0, x1, y1, (r0, c0, mask)) carrying an antialiased
    coverage mask for non-rectangular paths."""
    if a is None:
        return b
    if b is None:
        return a
    x0, y0 = max(a[0], b[0]), max(a[1], b[1])
    x1, y1 = min(a[2], b[2]), min(a[3], b[3])
    if len(a) == 4 and len(b) == 4:
        return (x0, y0, x1, y1)
    if x1 <= x0 or y1 <= y0:
        return (x0, y0, x1, y1)  # empty; mask irrelevant
    r0, c0 = int(math.floor(y0)), int(math.floor(x0))
    r1, c1 = int(math.ceil(y1)), int(math.ceil(x1))
    mask = np.ones((r1 - r0, c1 - c0), np.float32)
    for clip in (a, b):
        if len(clip) == 5:
            mr0, mc0, m = clip[4]
            # multiply the overlapping region; outside the mask = 0
            sub = np.zeros_like(mask)
            ra = max(r0, mr0)
            rb = min(r1, mr0 + m.shape[0])
            ca = max(c0, mc0)
            cb = min(c1, mc0 + m.shape[1])
            if rb > ra and cb > ca:
                sub[ra - r0 : rb - r0, ca - c0 : cb - c0] = \
                    m[ra - mr0 : rb - mr0, ca - mc0 : cb - mc0]
            mask *= sub
    return (x0, y0, x1, y1, (r0, c0, mask))


def _clip_mask_row(clip, r: int, xlo: int, xhi: int):
    """Coverage multiplier of clip's mask for row ``r``, columns
    [xlo, xhi) — or None when the clip has no mask."""
    if clip is None or len(clip) == 4:
        return None
    r0, c0, mask = clip[4]
    out = np.zeros(xhi - xlo, np.float32)
    if 0 <= r - r0 < mask.shape[0]:
        ca = max(xlo, c0)
        cb = min(xhi, c0 + mask.shape[1])
        if cb > ca:
            out[ca - xlo : cb - xlo] = mask[r - r0, ca - c0 : cb - c0]
    return out


def _render_coverage(subpaths, evenodd: bool, w: int, h: int, aa: int = 4):
    """Rasterize a path's antialiased coverage; returns
    (r0, c0, mask float32) or None for an empty path."""
    edges = []
    for sp in subpaths:
        n = len(sp)
        if n < 3:
            continue
        for i in range(n):
            x0, y0 = sp[i]
            x1, y1 = sp[(i + 1) % n]
            if y0 != y1:
                edges.append((x0, y0, x1, y1))
    if not edges:
        return None
    e = np.asarray(edges, np.float64)
    ex0, ey0, ex1, ey1 = e[:, 0], e[:, 1], e[:, 2], e[:, 3]
    r0 = max(0, int(math.floor(e[:, [1, 3]].min())))
    r1 = min(h, int(math.ceil(e[:, [1, 3]].max())))
    c0 = max(0, int(math.floor(e[:, [0, 2]].min())))
    c1 = min(w, int(math.ceil(e[:, [0, 2]].max())))
    if r1 <= r0 or c1 <= c0:
        return None
    inv_dy = 1.0 / (ey1 - ey0)
    slope = (ex1 - ex0) * inv_dy
    mask = np.zeros((r1 - r0, c1 - c0), np.float32)
    inv_aa = 1.0 / aa
    for r in range(r0, r1):
        row = mask[r - r0]
        for i in range(aa):
            yc = r + (2 * i + 1) * inv_aa * 0.5
            for xa, xb in _scan_spans(ex0, ey0, ex1, ey1, slope, yc,
                                      evenodd, float(c0), float(c1)):
                a0 = int(math.floor(xa))
                b0 = min(c1 - 1, int(math.floor(xb)))
                if a0 == b0:
                    row[a0 - c0] += xb - xa
                    continue
                row[a0 - c0] += a0 + 1 - xa
                row[a0 + 1 - c0 : b0 - c0] += 1.0
                row[b0 - c0] += xb - b0
        np.clip(row * inv_aa, 0.0, 1.0, out=row)
    return r0, c0, mask


def _scan_spans(ex0, ey0, ex1, ey1, slope, yc, evenodd, cx0, cx1):
    """Crossing spans of one scanline (device x intervals)."""
    m = (ey0 <= yc) != (ey1 <= yc)
    if not m.any():
        return ()
    xs = ex0[m] + (yc - ey0[m]) * slope[m]
    if evenodd:
        xs = np.sort(xs)
        pairs = zip(xs[0::2], xs[1::2])
    else:
        wind = np.where(ey1[m] > ey0[m], 1, -1)
        order = np.argsort(xs, kind="stable")
        xs = xs[order]
        acc = np.cumsum(wind[order])
        pairs = []
        start = None
        for i in range(len(xs)):
            if start is None and acc[i] != 0:
                start = xs[i]
            elif start is not None and acc[i] == 0:
                pairs.append((start, xs[i]))
                start = None
    out = []
    for xa, xb in pairs:
        xa = max(xa, cx0)
        xb = min(xb, cx1)
        if xb > xa:
            out.append((xa, xb))
    return out


def _fill_subpaths(canvas: np.ndarray, subpaths, gray: int, evenodd: bool,
                   clip, aa: int = 4) -> None:
    """Scanline-fill closed subpaths (device coords) onto ``canvas``.

    ``aa`` >= 2 renders ANTIALIASED area coverage the way pdfium does
    (exact fractional coverage along x, ``aa`` sub-scanlines along y,
    linear blend) — load-bearing for the reference bbox parity: pdfium's
    partially-covered border pixels survive the downstream threshold and
    widen thin table rules by one pixel on fractional edges.  ``aa=1``
    keeps the hard pixel-center rule (used for glyph bitmaps, whose
    binary topology the metrics filters depend on)."""
    h, w = canvas.shape
    edges = []
    for sp in subpaths:
        n = len(sp)
        if n < 3:
            continue
        for i in range(n):
            x0, y0 = sp[i]
            x1, y1 = sp[(i + 1) % n]
            if y0 != y1:
                edges.append((x0, y0, x1, y1))
    if not edges:
        return
    e = np.asarray(edges, np.float64)
    ex0, ey0, ex1, ey1 = e[:, 0], e[:, 1], e[:, 2], e[:, 3]
    ymin = max(0.0, e[:, [1, 3]].min())
    ymax = min(float(h), e[:, [1, 3]].max())
    cx0, cy0, cx1, cy1 = (0.0, 0.0, float(w), float(h))
    if clip is not None:
        cx0, cy0, cx1, cy1 = clip[:4]
        ymin = max(ymin, cy0)
        ymax = min(ymax, cy1)
    r0 = max(0, int(math.floor(ymin)))
    r1 = min(h - 1, int(math.ceil(ymax)) - 1)
    inv_dy = 1.0 / (ey1 - ey0)
    slope = (ex1 - ex0) * inv_dy

    if aa <= 1:  # hard pixel-center fill
        masked = clip is not None and len(clip) == 5
        for r in range(r0, r1 + 1):
            for xa, xb in _scan_spans(ex0, ey0, ex1, ey1, slope, r + 0.5,
                                      evenodd, cx0, cx1):
                c0 = max(0, int(math.ceil(xa - 0.5)))
                c1 = min(w, int(math.ceil(xb - 0.5)))
                if c1 <= c0:
                    continue
                if masked:
                    mrow = _clip_mask_row(clip, r, c0, c1)
                    sel = mrow >= 0.5
                    canvas[r, c0:c1][sel] = gray
                else:
                    canvas[r, c0:c1] = gray
        return

    # antialiased: accumulate exact-x coverage over aa sub-scanlines
    xlo = max(0, int(math.floor(max(cx0, float(e[:, [0, 2]].min())))))
    xhi = min(w, int(math.ceil(min(cx1, float(e[:, [0, 2]].max())))) + 1)
    if xhi <= xlo:
        return
    cov = np.zeros(xhi - xlo, np.float64)
    inv_aa = 1.0 / aa
    for r in range(r0, r1 + 1):
        cov[:] = 0.0
        touched = False
        for i in range(aa):
            yc = r + (2 * i + 1) * inv_aa * 0.5
            if yc < cy0 or yc >= cy1:
                continue
            for xa, xb in _scan_spans(ex0, ey0, ex1, ey1, slope, yc,
                                      evenodd, cx0, cx1):
                touched = True
                a0 = max(xlo, int(math.floor(xa)))
                b0 = min(xhi - 1, int(math.floor(xb)))
                if a0 == b0:
                    cov[a0 - xlo] += xb - xa
                    continue
                cov[a0 - xlo] += a0 + 1 - xa
                cov[a0 + 1 - xlo : b0 - xlo] += 1.0
                if b0 < xhi:
                    cov[b0 - xlo] += xb - b0
        if not touched:
            continue
        c = cov * inv_aa
        np.clip(c, 0.0, 1.0, out=c)
        mrow = _clip_mask_row(clip, r, xlo, xhi)
        if mrow is not None:
            c = c * mrow
        m = c > 0
        if m.any():
            row = canvas[r, xlo:xhi]
            old = row[m].astype(np.float64)  # canvas is uint8: blend in float
            row[m] = np.rint(old + (gray - old) * c[m]).astype(canvas.dtype)


def _fill_rect(canvas: np.ndarray, x0, y0, x1, y1, gray: int, clip,
               aa: bool = True) -> None:
    if clip is not None and len(clip) == 5:
        # masked clip: route through the path filler (mask-aware)
        quad = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
        _fill_subpaths(canvas, [quad], gray, False, clip,
                       aa=4 if aa else 1)
        return
    if clip is not None:
        x0, y0 = max(x0, clip[0]), max(y0, clip[1])
        x1, y1 = min(x1, clip[2]), min(y1, clip[3])
    h, w = canvas.shape
    if not aa:  # hard pixel-center rule (synthetic text-ink boxes)
        c0 = max(0, int(math.ceil(x0 - 0.5)))
        c1 = min(w, int(math.ceil(x1 - 0.5)))
        r0 = max(0, int(math.ceil(y0 - 0.5)))
        r1 = min(h, int(math.ceil(y1 - 0.5)))
        if c1 > c0 and r1 > r0:
            canvas[r0:r1, c0:c1] = gray
        return
    if x1 <= x0 or y1 <= y0:
        return
    c0 = max(0, int(math.floor(x0)))
    c1 = min(w, int(math.ceil(x1)))
    r0 = max(0, int(math.floor(y0)))
    r1 = min(h, int(math.ceil(y1)))
    if c1 <= c0 or r1 <= r0:
        return
    colcov = np.clip(np.minimum(np.arange(c0, c1) + 1.0, x1)
                     - np.maximum(np.arange(c0, c1), x0), 0.0, 1.0)
    rowcov = np.clip(np.minimum(np.arange(r0, r1) + 1.0, y1)
                     - np.maximum(np.arange(r0, r1), y0), 0.0, 1.0)
    cov = rowcov[:, None] * colcov[None, :]
    region = canvas[r0:r1, c0:c1]
    old = region.astype(np.float64)  # canvas is uint8: blend in float
    region[:] = np.rint(old + (gray - old) * cov).astype(canvas.dtype)


def _is_axis_rect(sp) -> bool:
    """True iff the subpath's points are exactly the 4 distinct corners
    of an axis-aligned rectangle (a trailing close-point duplicate is
    tolerated; a closed triangle with a repeated corner is NOT — it has
    2 distinct x and y values but only 3 distinct corners)."""
    pts = [(round(p[0], 6), round(p[1], 6)) for p in sp]
    if len(pts) == 5 and pts[0] == pts[-1]:
        pts = pts[:-1]
    if len(pts) != 4:
        return False
    xs = {p[0] for p in pts}
    ys = {p[1] for p in pts}
    if len(xs) != 2 or len(ys) != 2:
        return False
    x0, x1 = sorted(xs)
    y0, y1 = sorted(ys)
    return set(pts) == {(x0, y0), (x1, y0), (x1, y1), (x0, y1)}


def _luminance(comps) -> int:
    """Color components (1=gray, 3=RGB, 4=CMYK) -> 0..255 gray."""
    vals = [float(v) for v in comps if isinstance(v, (int, float))]
    if not vals:
        return 0
    if len(vals) >= 4:
        c, m_, y_, k = vals[-4:]
        r, g, b = (1 - min(1, c + k)), (1 - min(1, m_ + k)), (1 - min(1, y_ + k))
    elif len(vals) >= 3:
        r, g, b = vals[-3:]
    else:
        r = g = b = vals[-1]
    lum = 0.299 * r + 0.587 * g + 0.114 * b
    return int(round(max(0.0, min(1.0, lum)) * 255))


def _ncomponents(doc: PdfDocument, cspace) -> int:
    cs = doc.resolve(cspace)
    if isinstance(cs, list):
        head = str(doc.resolve(cs[0])) if cs else ""
        if head == "ICCBased" and len(cs) > 1:
            icc = doc.resolve(cs[1])
            d = icc.dict if isinstance(icc, _Stream) else (icc or {})
            return int(doc.resolve(d.get("N")) or 3)
        if head == "Indexed":
            return -1  # palette — handled as unsupported
        if head in ("CalRGB", "Lab"):
            return 3
        if head == "CalGray":
            return 1
    name = str(cs) if cs is not None else "DeviceRGB"
    return {"DeviceGray": 1, "DeviceRGB": 3, "DeviceCMYK": 4}.get(name, 3)


def _decode_image_xobject(doc: PdfDocument, xo: _Stream):
    """Image XObject -> (H, W) uint8 gray, or None if undecodable."""
    d = xo.dict
    width = int(doc.resolve(d.get("Width")) or 0)
    height = int(doc.resolve(d.get("Height")) or 0)
    bpc = int(doc.resolve(d.get("BitsPerComponent")) or 8)
    if width <= 0 or height <= 0:
        return None
    filt = doc.resolve(d.get("Filter"))
    filters = [str(f) for f in (filt if isinstance(filt, list) else
                                ([filt] if filt is not None else []))]
    try:
        if filters and filters[-1] == "DCTDecode":
            from img2table_ray.imgops.jpeg import decode_jpeg

            data = xo.raw
            for f in filters[:-1]:
                if f == "FlateDecode":
                    data = bounded_decompress(data, what="PDF image stream")
                else:
                    return None
            return np.clip(luma_float(decode_jpeg(data)), 0,
                           255).astype(np.uint8)
        if filters in ([], ["FlateDecode"]):
            data = (xo.raw if not filters else
                    bounded_decompress(xo.raw, what="PDF image stream"))
            ncomp = _ncomponents(doc, d.get("ColorSpace"))
            if ncomp < 1 or bpc != 8:
                return None
            need = width * height * ncomp
            if len(data) < need:
                return None
            a = np.frombuffer(data[:need], np.uint8).reshape(height, width,
                                                             ncomp)
            if ncomp == 1:
                return a[..., 0].copy()
            if ncomp == 3:
                return np.clip(luma_float(a), 0, 255).astype(np.uint8)
            # CMYK
            rgb = 255 - np.minimum(255, a[..., :3].astype(np.int32)
                                   + a[..., 3:4].astype(np.int32))
            return np.clip(luma_float(rgb), 0, 255).astype(np.uint8)
    except Exception:
        return None
    return None


def _blit_image(canvas: np.ndarray, img, ctm, clip) -> None:
    """Draw an image (or, when ``img is None``, a neutral gray box) mapped
    from the unit square through ``ctm`` (device coords)."""
    h, w = canvas.shape
    corners = [(ctm[0] * x + ctm[2] * y + ctm[4],
                ctm[1] * x + ctm[3] * y + ctm[5])
               for x, y in ((0, 0), (1, 0), (0, 1), (1, 1))]
    xs = [p[0] for p in corners]
    ys = [p[1] for p in corners]
    x0, x1 = max(0.0, min(xs)), min(float(w), max(xs))
    y0, y1 = max(0.0, min(ys)), min(float(h), max(ys))
    if clip is not None:
        x0, y0 = max(x0, clip[0]), max(y0, clip[1])
        x1, y1 = min(x1, clip[2]), min(y1, clip[3])
    c0, c1 = int(math.ceil(x0 - 0.5)), int(math.ceil(x1 - 0.5))
    r0, r1 = int(math.ceil(y0 - 0.5)), int(math.ceil(y1 - 0.5))
    c0, r0 = max(0, c0), max(0, r0)
    c1, r1 = min(w, c1), min(h, r1)
    if c1 <= c0 or r1 <= r0:
        return
    clip_gate = None  # non-rect clip: hard >= .5 gate over the region
    if clip is not None and len(clip) == 5:
        clip_gate = np.stack([_clip_mask_row(clip, r, c0, c1) >= 0.5
                              for r in range(r0, r1)])
        if not clip_gate.any():
            return
    if img is None:
        region = canvas[r0:r1, c0:c1]
        dim = np.minimum(region, 200)
        if clip_gate is not None:
            region[clip_gate] = dim[clip_gate]
        else:
            region[:] = dim
        return
    a, b, c, d, e, f = ctm
    det = a * d - b * c
    if abs(det) < 1e-12:
        return
    ia, ib, ic, id_ = d / det, -b / det, -c / det, a / det
    # float32/int32 throughout: this sandbox faults fresh pages at
    # ~7.5 MB/s, and float64 temporaries over a full-page region cost
    # seconds of first-touch alone (profiled)
    cols = (np.arange(c0, c1, dtype=np.float32) + np.float32(0.5)
            - np.float32(e))
    rows = (np.arange(r0, r1, dtype=np.float32) + np.float32(0.5)
            - np.float32(f))
    u = cols[None, :] * np.float32(ia) + rows[:, None] * np.float32(ic)
    v = cols[None, :] * np.float32(ib) + rows[:, None] * np.float32(id_)
    inside = (u >= 0) & (u < 1) & (v >= 0) & (v < 1)
    if clip_gate is not None:
        inside &= clip_gate
    ih, iw = img.shape
    px = np.clip((u * iw).astype(np.int32), 0, iw - 1)
    # unit-square v=1 is the image's TOP row (PDF image space)
    py = np.clip(((np.float32(1.0) - v) * ih).astype(np.int32), 0, ih - 1)
    region = canvas[r0:r1, c0:c1]
    region[inside] = img[py[inside], px[inside]]


class _Raster:
    """One page's interpreter state + canvas."""

    def __init__(self, doc: PdfDocument, page: dict, dpi: float) -> None:
        self.doc = doc
        self.dpi = dpi
        mb = [float(doc.resolve(v)) for v in
              (doc.resolve(page.get("MediaBox")) or [0, 0, 612, 792])]
        self.mb = mb
        s = dpi / 72.0
        self.width = int(round((mb[2] - mb[0]) * s))
        self.height = int(round((mb[3] - mb[1]) * s))
        # page /Rotate composes into the base CTM the way pdfium's
        # page.render does (the reference raster IS rotated; only the
        # TEXT layer mirrors the reference's no-rotation quirk,
        # pdftext.py:804).  90/270 swap the device dimensions.
        try:
            rot = int(doc.resolve(page.get("Rotate")) or 0) % 360
        except (TypeError, ValueError):
            rot = 0
        if rot in (90, 270):
            self.width, self.height = self.height, self.width
        if not (0 < self.width <= 20000 and 0 < self.height <= 20000):
            raise PdfRasterError(f"unreasonable page raster "
                                 f"{self.width}x{self.height}")
        self.canvas = np.full((self.height, self.width), 255, np.uint8)
        # base CTM: user space -> device pixels, y flipped, then the
        # clockwise display rotation (derived by rotating the unrotated
        # device raster: 90 cw maps (r,c) -> (c, H-r))
        if rot == 90:
            self.base = (0.0, s, s, 0.0, -mb[1] * s, -mb[0] * s)
        elif rot == 180:
            self.base = (-s, 0.0, 0.0, s, mb[2] * s, -mb[1] * s)
        elif rot == 270:
            self.base = (0.0, -s, -s, 0.0, mb[3] * s, mb[2] * s)
        else:
            self.base = (s, 0.0, 0.0, -s, -mb[0] * s, mb[3] * s)
        self._glyph_cache: dict = {}

    # -- interpreter -------------------------------------------------------

    def run(self, content: bytes, resources: dict, ctm) -> None:
        doc = self.doc
        resources = doc.resolve(resources) or {}
        xobjs = doc.resolve(resources.get("XObject")) or {}
        lex = _Lexer(content)
        stack: list = []
        gs: list = []
        fill_gray = 0
        stroke_gray = 0
        lw = 1.0
        clip = None
        pend_clip = None  # 'W' or 'W*' pending until the next paint op
        path: list = []       # finished subpaths (device coords)
        cur: list = []        # open subpath
        start_pt = None
        pt = None

        def dev(x, y, m):
            return (m[0] * x + m[2] * y + m[4], m[1] * x + m[3] * y + m[5])

        def end_subpath():
            nonlocal cur
            if len(cur) >= 2:
                path.append(cur)
            cur = []

        def path_bbox():
            pts = [p for sp in path for p in sp] + cur
            if not pts:
                return None
            xs = [p[0] for p in pts]
            ys = [p[1] for p in pts]
            return (min(xs), min(ys), max(xs), max(ys))

        def do_fill(evenodd: bool):
            end_subpath()
            rects = [sp for sp in path if _is_axis_rect(sp)]
            if len(rects) == len(path) and not (evenodd and len(path) > 1):
                for sp in path:
                    xs = [p[0] for p in sp]
                    ys = [p[1] for p in sp]
                    _fill_rect(self.canvas, min(xs), min(ys), max(xs),
                               max(ys), fill_gray, clip)
            else:
                _fill_subpaths(self.canvas, path, fill_gray, evenodd, clip)

        def do_stroke():
            end_subpath()
            lin = ctm[:4]
            scale = math.sqrt(abs(lin[0] * lin[3] - lin[1] * lin[2]))
            wdev = max(lw * scale, 1.0)
            half = wdev / 2.0
            for sp in path:
                segs = list(zip(sp, sp[1:]))
                if len(sp) > 2 and sp[0] != sp[-1]:
                    pass  # open subpath: no closing segment for S
                for (x0, y0), (x1, y1) in segs:
                    if abs(x1 - x0) < 1e-9 or abs(y1 - y0) < 1e-9:
                        _fill_rect(self.canvas, min(x0, x1) - half,
                                   min(y0, y1) - half, max(x0, x1) + half,
                                   max(y0, y1) + half, stroke_gray, clip)
                    else:
                        dx, dy = x1 - x0, y1 - y0
                        n = math.hypot(dx, dy)
                        ox, oy = -dy / n * half, dx / n * half
                        quad = [(x0 + ox, y0 + oy), (x1 + ox, y1 + oy),
                                (x1 - ox, y1 - oy), (x0 - ox, y0 - oy)]
                        _fill_subpaths(self.canvas, [quad], stroke_gray,
                                       False, clip)

        def finish_paint():
            nonlocal path, cur, clip, pend_clip, start_pt, pt
            if pend_clip is not None:
                end_subpath()
                bb = path_bbox()
                if bb is not None:
                    if all(_is_axis_rect(sp) for sp in path):
                        clip = _clip_intersect(clip, bb)
                    else:
                        # non-rect clip: antialiased coverage mask
                        covm = _render_coverage(path, pend_clip == "W*",
                                                self.width, self.height)
                        if covm is None:
                            clip = _clip_intersect(clip, bb)
                        else:
                            clip = _clip_intersect(clip, bb + (covm,))
                pend_clip = None
            path = []
            cur = []
            start_pt = pt = None

        def nums(k):
            out = [v for v in stack if isinstance(v, (int, float))]
            return out[-k:] if len(out) >= k else out

        while True:
            tok = lex.token()
            if tok is None:
                break
            if not isinstance(tok, _Kw):
                stack.append(tok)
                continue
            op = str(tok)
            try:
                if op == "q":
                    gs.append((ctm, fill_gray, stroke_gray, lw, clip))
                elif op == "Q":
                    if gs:
                        ctm, fill_gray, stroke_gray, lw, clip = gs.pop()
                elif op == "cm":
                    v = nums(6)
                    if len(v) == 6:
                        ctm = _mul(tuple(float(x) for x in v), ctm)
                elif op == "m":
                    v = nums(2)
                    if len(v) == 2:
                        end_subpath()
                        pt = dev(float(v[0]), float(v[1]), ctm)
                        start_pt = pt
                        cur = [pt]
                elif op == "l":
                    v = nums(2)
                    if len(v) == 2 and pt is not None:
                        pt = dev(float(v[0]), float(v[1]), ctm)
                        cur.append(pt)
                elif op in ("c", "v", "y"):
                    if pt is not None:
                        v = nums(6 if op == "c" else 4)
                        ps = [dev(float(v[i]), float(v[i + 1]), ctm)
                              for i in range(0, len(v) - 1, 2)]
                        if op == "c" and len(ps) == 3:
                            p1, p2, p3 = ps
                        elif op == "v" and len(ps) == 2:
                            p1, (p2, p3) = pt, (ps[0], ps[1])
                        elif op == "y" and len(ps) == 2:
                            p1, p2, p3 = ps[0], ps[1], ps[1]
                        else:
                            stack.clear()
                            continue
                        cur.extend(_flatten_bezier(pt, p1, p2, p3))
                        pt = p3
                elif op == "h":
                    if cur and start_pt is not None:
                        cur.append(start_pt)
                        pt = start_pt
                    end_subpath()
                elif op == "re":
                    v = nums(4)
                    if len(v) == 4:
                        x, y, rw, rh = (float(x) for x in v)
                        end_subpath()
                        quad = [dev(x, y, ctm), dev(x + rw, y, ctm),
                                dev(x + rw, y + rh, ctm), dev(x, y + rh, ctm)]
                        path.append(quad)
                        start_pt = pt = quad[0]
                elif op in ("f", "F", "f*"):
                    do_fill(op == "f*")
                    finish_paint()
                elif op in ("B", "B*", "b", "b*"):
                    if op in ("b", "b*") and cur and start_pt is not None:
                        cur.append(start_pt)
                    do_fill(op in ("B*", "b*"))
                    do_stroke()
                    finish_paint()
                elif op in ("S", "s"):
                    if op == "s" and cur and start_pt is not None:
                        cur.append(start_pt)
                    do_stroke()
                    finish_paint()
                elif op == "n":
                    end_subpath()
                    finish_paint()
                elif op in ("W", "W*"):
                    pend_clip = op
                elif op == "w":
                    v = nums(1)
                    if v:
                        lw = float(v[0])
                elif op == "g":
                    fill_gray = _luminance(nums(1))
                elif op == "G":
                    stroke_gray = _luminance(nums(1))
                elif op == "rg":
                    fill_gray = _luminance(nums(3))
                elif op == "RG":
                    stroke_gray = _luminance(nums(3))
                elif op == "k":
                    fill_gray = _luminance(nums(4))
                elif op == "K":
                    stroke_gray = _luminance(nums(4))
                elif op in ("sc", "scn"):
                    fill_gray = _luminance(stack)
                elif op in ("SC", "SCN"):
                    stroke_gray = _luminance(stack)
                elif op == "BI":
                    # inline image: skip dict + binary payload.  The
                    # bytes b'EI' can occur INSIDE the payload, so the
                    # match must be delimiter-bounded — whitespace
                    # before, whitespace/EOF/delimiter after (ADVICE
                    # r3); scan starts after the ID data marker
                    ws = b"\x00\t\n\x0c\r "
                    idm = content.find(b"ID", lex.i)
                    j = lex.i if idm < 0 else idm + 3
                    while True:
                        j = content.find(b"EI", j)
                        if j < 0:
                            j = len(content)
                            break
                        ok_before = j == 0 or content[j - 1] in ws
                        ok_after = (j + 2 >= len(content)
                                    or content[j + 2] in ws + b"[]<>()/%")
                        if ok_before and ok_after:
                            break
                        j += 2
                    lex.i = min(len(content), j + 2)
                elif op == "Do":
                    name = str(stack[-1]) if stack else ""
                    xo = doc.resolve(xobjs.get(name))
                    if isinstance(xo, _Stream):
                        sub = str(doc.resolve(xo.dict.get("Subtype")) or "")
                        if sub == "Image":
                            img = _decode_image_xobject(doc, xo)
                            _blit_image(self.canvas, img, ctm, clip)
                        elif sub == "Form":
                            mtx = doc.resolve(xo.dict.get("Matrix"))
                            m2 = ctm
                            if isinstance(mtx, list) and len(mtx) == 6:
                                m2 = _mul(tuple(float(doc.resolve(x))
                                                for x in mtx), ctm)
                            try:
                                self.run(xo.decoded(),
                                         xo.dict.get("Resources") or resources,
                                         m2)
                            except (PdfTextError, PdfRasterError):
                                pass
            finally:
                stack.clear()

    # -- text ink ------------------------------------------------------

    # per-character vertical ink extent as a fraction of the loose charbox
    # (top = ascent line, bottom = descent line, baseline ~0.80).  Heights
    # MUST vary by character class: uniform boxes on a text line look like
    # a dashed rule to the downstream remove_dotted_lines filter
    # (extract/metrics.py:57), which then deletes the whole line's
    # contours — real glyphs never trigger it because ascenders/descenders
    # break both the w/h>=2 shape test and the midline-alignment chain.
    _DESCENDERS = frozenset("gjpqy")
    _XHEIGHT = frozenset("aceimnorsuvwxz")
    _BASE_PUNCT = frozenset(".,:;_")
    _MID_PUNCT = frozenset("-–—~=·*")

    def _ink_extent(self, ch: str) -> tuple[float, float]:
        if ch in self._XHEIGHT:
            return (0.42, 0.80)
        if ch in self._DESCENDERS:
            return (0.42, 0.96)
        if ch in self._BASE_PUNCT:
            return (0.68, 0.82)
        if ch in self._MID_PUNCT:
            return (0.50, 0.62)
        if ch in "'\"`^":
            return (0.12, 0.30)
        return (0.12, 0.80)  # capitals, digits, ascenders, symbols

    def _glyph_providers(self, page: dict) -> dict:
        """font resource name -> callable(code) -> outline or None.
        Outlines come from embedded FontFile3 (CFF/Type1C) programs;
        code routing prefers the PDF /Encoding /Differences names, then
        the CFF's built-in encoding."""
        from img2table_ray.extract.cff import CffError, CffFont

        doc = self.doc
        out: dict = {}
        res = doc.resolve(page.get("Resources")) or {}
        fonts = doc.resolve(res.get("Font")) or {}
        from img2table_ray.extract.ttf import TtfError, TtfFont

        for name, f in fonts.items():
            try:
                fd = doc.resolve(f) or {}
                desc = doc.resolve(fd.get("FontDescriptor")) or {}
                ff3 = doc.resolve(desc.get("FontFile3"))
                ff2 = doc.resolve(desc.get("FontFile2"))
                ff1 = doc.resolve(desc.get("FontFile"))
            except (PdfTextError, Exception):
                continue
            diff_names: dict[int, str] = {}
            enc = doc.resolve(fd.get("Encoding"))
            if isinstance(enc, dict):
                diffs = doc.resolve(enc.get("Differences")) or []
                code = 0
                for item in diffs:
                    if isinstance(item, (int, float)):
                        code = int(item)
                    else:
                        diff_names[code] = str(item)
                        code += 1
            if isinstance(ff3, _Stream):
                try:
                    cf = CffFont(ff3.decoded())
                except (CffError, Exception):
                    continue

                def provider(code: int, cf=cf, names=diff_names):
                    n = names.get(code)
                    if n is not None:
                        g = cf.glyph_by_name(n)
                        if g is not None:
                            return g
                    return cf.glyph_by_code(code)

                out[name] = provider
            elif isinstance(ff2, _Stream):
                # TrueType program: route code -> unicode (via the PDF
                # font's encoding/ToUnicode) -> cmap -> glyph
                try:
                    from img2table_ray.extract.pdftext import _Font

                    tf = TtfFont(ff2.decoded())
                    dec = _Font(doc, fd)
                except (TtfError, PdfTextError, Exception):
                    continue

                def provider(code: int, tf=tf, dec=dec):
                    ch = dec.decode(code)
                    if not ch:
                        return None
                    return tf.glyph_for_char(ch[0])

                out[name] = provider
            elif isinstance(ff1, _Stream):
                from img2table_ray.extract.type1 import Type1Error, Type1Font

                try:
                    t1 = Type1Font(ff1.decoded())
                except (Type1Error, Exception):
                    continue

                def provider(code: int, t1=t1, names=diff_names):
                    n = names.get(code)
                    if n is not None:
                        g = t1.glyph_by_name(n)
                        if g is not None:
                            return g
                    return t1.glyph_by_code(code)

                out[name] = provider
        return out

    def _glyph_bitmap(self, key, outline, lin, phase=(0.0, 0.0)):
        """Rasterize one glyph once per (font, code, linear matrix,
        sub-pixel phase): returns (mask bool array, x_off, y_off)
        relative to the glyph origin's integer part in device space.
        Repeated characters then BLIT instead of re-running the scanline
        fill (document text reuses a few dozen distinct glyphs thousands
        of times; the phase key multiplies distinct entries by at most
        GLYPH_PHASE_STEPS^2)."""
        hit = self._glyph_cache.get(key)
        if hit is not None:
            return hit
        a, b, c, d = lin
        phx, phy = phase

        def pt(x, y):
            return (a * x + c * y + phx, b * x + d * y + phy)

        subpaths = []
        for cont in outline:
            if len(cont) < 2:
                continue
            cur = [pt(cont[0][1], cont[0][2])]
            for seg in cont[1:]:
                if seg[0] == "l":
                    cur.append(pt(seg[1], seg[2]))
                else:
                    p0 = cur[-1]
                    cur.extend(_flatten_bezier(
                        p0, pt(seg[1], seg[2]), pt(seg[3], seg[4]),
                        pt(seg[5], seg[6])))
            subpaths.append(cur)
        if not subpaths:
            self._glyph_cache[key] = None
            return None
        xs = [p[0] for sp in subpaths for p in sp]
        ys = [p[1] for sp in subpaths for p in sp]
        x0 = math.floor(min(xs)) - 1
        y0 = math.floor(min(ys)) - 1
        w = int(math.ceil(max(xs))) - x0 + 2
        h = int(math.ceil(max(ys))) - y0 + 2
        if w <= 0 or h <= 0 or w * h > 1 << 22:
            self._glyph_cache[key] = None
            return None
        tmp = np.full((h, w), 255, np.uint8)
        shifted = [[(x - x0, y - y0) for x, y in sp] for sp in subpaths]
        _fill_subpaths(tmp, shifted, 0, False, None, aa=1)
        entry = (tmp < 128, x0, y0)
        if len(self._glyph_cache) < 4096:
            self._glyph_cache[key] = entry
        return entry

    def _fill_glyph(self, key, outline, trm) -> None:
        """Fill one glyph outline (font units) through trm -> user space
        -> device (nonzero winding, the PostScript/CFF fill rule) via the
        per-glyph bitmap cache; the glyph origin's fractional part is
        QUANTIZED to 1/GLYPH_PHASE_STEPS of a pixel and baked into the
        cached bitmap (VERDICT r4 §next-4 — sub-pixel phase), so e.g. a
        run at x=10.5 inks a genuinely different pattern than one at
        x=10.0 instead of collapsing to the same whole-pixel blit."""
        steps = GLYPH_PHASE_STEPS
        m = _mul(_mul((0.001, 0.0, 0.0, 0.001, 0.0, 0.0), trm), self.base)
        lin = (m[0], m[1], m[2], m[3])
        qx = round(m[4] * steps) / steps
        qy = round(m[5] * steps) / steps
        ix, iy = int(math.floor(qx)), int(math.floor(qy))
        phx, phy = qx - ix, qy - iy
        ck = key + (round(m[0], 4), round(m[1], 4), round(m[2], 4),
                    round(m[3], 4), int(round(phx * steps)),
                    int(round(phy * steps)))
        ent = self._glyph_bitmap(ck, outline, lin, (phx, phy))
        if ent is None:
            return
        mask, x0, y0 = ent
        gh, gw = mask.shape
        cx = ix + x0
        cy = iy + y0
        ch, cw = self.canvas.shape
        sx0, sy0 = max(0, -cx), max(0, -cy)
        dx0, dy0 = max(0, cx), max(0, cy)
        dx1, dy1 = min(cw, cx + gw), min(ch, cy + gh)
        if dx1 <= dx0 or dy1 <= dy0:
            return
        sub = mask[sy0 : sy0 + (dy1 - dy0), sx0 : sx0 + (dx1 - dx0)]
        region = self.canvas[dy0:dy1, dx0:dx1]
        region[sub] = 0

    def draw_text_ink(self, page: dict) -> None:
        """Paint character ink: REAL outlines from embedded CFF fonts
        where available; otherwise inset per-character boxes with
        stroke topology and class-varying heights (see ``_ink_extent`` —
        both properties are load-bearing against the metrics filters)."""
        glyphs: list = []

        def sink(fname, font, code, trm):
            glyphs.append((fname, font, code, trm))

        try:
            page_chars(self.doc, page, glyph_sink=sink)
            providers = self._glyph_providers(page)
        except PdfTextError:
            return
        for fname, font, code, trm in glyphs:
            value = font.decode(code) if font is not None else ""
            if not value or not value.strip():
                continue
            prov = providers.get(fname)
            outline = prov(code) if prov is not None else None
            if outline:
                self._fill_glyph((fname, code), outline, trm)
                continue
            self._box_ink(font, code, trm, value)

    def _box_ink(self, font, code: int, trm, value: str) -> None:
        """Fallback ink for fonts without a parseable embedded program:
        the char cell through trm, inset, stroke topology."""
        w0 = float(font.width(code)) / 1000.0
        asc = float(font.ascent) / 1000.0
        desc = float(font.descent) / 1000.0
        m = _mul(trm, self.base)
        corners = [(m[0] * x + m[2] * y + m[4], m[1] * x + m[3] * y + m[5])
                   for x, y in ((0.0, desc), (0.0, asc), (w0, desc),
                                (w0, asc))]
        xs = [p[0] for p in corners]
        ys = [p[1] for p in corners]
        dx0, dx1 = min(xs), max(xs)
        dy0, dy1 = min(ys), max(ys)
        bw = dx1 - dx0
        bh = dy1 - dy0
        if bw <= 0 or bh <= 0:
            return
        ix = max(min(bw * 0.12, 1.5), bw * 0.06)
        f0, f1 = self._ink_extent(value[0])
        gx0, gx1 = dx0 + ix, dx1 - ix
        gy0, gy1 = dy0 + f0 * bh, dy0 + f1 * bh
        gw, gh = gx1 - gx0, gy1 - gy0
        if gw < 4.0 or gh < 4.0:
            # too small for stroke topology: solid mark
            _fill_rect(self.canvas, gx0, gy0, gx1, gy1, 0, None, aa=False)
            return
        # glyph-like "H" topology: two vertical strokes + a crossbar.
        # A SOLID box reads as a round dot to remove_dots
        # (extract/metrics.py:26: roundness>=0.7 with no inner gaps)
        # and whole text lines vanish from the metrics; strokes with a
        # counter (inner gap) survive like real glyph ink does.
        bar = max(1.2, gw * 0.22)
        _fill_rect(self.canvas, gx0, gy0, gx0 + bar, gy1, 0, None, aa=False)
        _fill_rect(self.canvas, gx1 - bar, gy0, gx1, gy1, 0, None, aa=False)
        cb = {  # crossbar position varies per class, like real glyphs
            "asc": (0.25, 0.45), "x": (0.40, 0.62), "desc": (0.55, 0.78),
        }["desc" if value[0] in self._DESCENDERS
          else ("x" if value[0] in self._XHEIGHT else "asc")]
        _fill_rect(self.canvas, gx0, gy0 + cb[0] * gh, gx1,
                   gy0 + cb[1] * gh, 0, None, aa=False)


def render_pdf(data: bytes, pages: list[int] | None = None,
               dpi: float = 200.0) -> list[np.ndarray]:
    """Rasterize selected pages of a PDF -> list of (H, W) uint8 gray
    planes (``api.PDF.images`` gives the reference's (H, W, 3) RGB).

    Vector-layer rendering (see module docstring); raises
    :class:`PdfRasterError` / :class:`PdfTextError` on undecodable files.
    """
    doc = PdfDocument(data)
    all_pages = doc.pages()
    idxs = range(len(all_pages)) if pages is None else pages
    out = []
    for i in idxs:
        if not 0 <= i < len(all_pages):
            raise PdfRasterError(f"page {i} out of range")
        page = all_pages[i]
        r = _Raster(doc, page, dpi)
        try:
            content = doc.content_bytes(page)
        except PdfTextError:
            content = b""
        r.run(content, page.get("Resources") or {}, r.base)
        r.draw_text_ink(page)
        out.append(r.canvas)
    return out
