"""Differential pins for vectorized kernels against their loop forms.

The vectorized implementations (imgops/ccl.py, extract/metrics.py,
extract/borderless/whitespaces.py, extract/borderless/rlsa.py) replaced
straight ports of the reference's numba kernels.  Each test re-states the LOOP form inline
(matching the reference line-for-line) and asserts bit-identical output
on randomized inputs, so any future change to the vectorized code that
drifts from the reference semantics fails here rather than only in the
end-to-end goldens.

The image kernels of imgops/kernels.py (morphology, Sauvola, bilateral,
Gaussian, grayscale) are pinned the same way against the plain forms they
replaced: van Herk sliding extremes, float64 box means, interleaved
bilateral reads and float64 separable Gaussians.

The page kernels run on ink boxes (``kernels.ink_boxes``): the threshold of
extract/threshold.py and the edge image of extract/lines.py are pinned
against the full-page forms they replaced (``_threshold_dark_areas_full_page``,
``_edge_image_full_page``) on edge-case pages and on a small generated
corpus of every container format.

Connected components (both entry points) and identify_cells are pinned
against the forms they replaced: the row-diff run extraction with np.unique
renumbering (``_ccl_run_diff``) and the h-line pair loop with its sorted
dedup passes (``_identify_cells_loop``).

The VP8 loop filter's wavefront and the whole-plane chroma upsampler are
pinned against the per-macroblock raster loop and the per-row upsampler
they replaced (``_loop_filter_raster``, ``_fancy_upsample_loop``).
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from img2table_ray.extract.borderless import rlsa
from img2table_ray.extract.borderless.whitespaces import compute_whitespaces
from img2table_ray.extract.metrics import create_character_thresh
from img2table_ray.imgops import kernels, vp8
from img2table_ray.extract.cells import identify_cells
from img2table_ray.imgops.ccl import (
    connected_components_stats,
    connected_components_with_stats,
)


def _ccl_bfs(binary: np.ndarray):
    """8-connectivity flood fill, raster-order first-appearance labels —
    the observable behavior of cv2.connectedComponentsWithStats."""
    h, w = binary.shape
    fg = binary > 0
    labels = np.zeros((h, w), dtype=np.int32)
    comp_stats = [[0, 0, w, h, 0]]
    nxt = 1
    for sy in range(h):
        for sx in range(w):
            if not fg[sy, sx] or labels[sy, sx]:
                continue
            stack = [(sy, sx)]
            labels[sy, sx] = nxt
            x1 = x2 = sx
            y1 = y2 = sy
            area = 0
            while stack:
                y, x = stack.pop()
                area += 1
                x1, x2 = min(x1, x), max(x2, x)
                y1, y2 = min(y1, y), max(y2, y)
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx_ = y + dy, x + dx
                        if (0 <= ny < h and 0 <= nx_ < w and fg[ny, nx_]
                                and not labels[ny, nx_]):
                            labels[ny, nx_] = nxt
                            stack.append((ny, nx_))
            comp_stats.append([x1, y1, x2 - x1 + 1, y2 - y1 + 1, area])
            nxt += 1
    stats = np.array(comp_stats, dtype=np.int32)
    stats[0, 4] = h * w - int(stats[1:, 4].sum())
    return nxt, labels, stats


def test_ccl_matches_bfs_flood_fill():
    rng = np.random.default_rng(11)
    for _ in range(60):
        h, w = rng.integers(1, 40, 2)
        img = (rng.random((h, w)) < rng.uniform(0.1, 0.8)).astype(np.uint8) * 255
        n1, l1, s1 = connected_components_with_stats(img)
        n2, l2, s2 = _ccl_bfs(img)
        assert n1 == n2
        assert np.array_equal(l1, l2)
        assert np.array_equal(s1, s2)


def _cct_loop(thresh, stats, discarded_stats, char_length):
    """Reference loop form (src/img2table/tables/metrics.py:205-248)."""
    character_thresh = np.zeros_like(thresh)
    chars = []
    for idx in range(len(stats)):
        x, y, w, h, area = (int(v) for v in stats[idx])
        chars.append([x, y, w, h, area])
        character_thresh[y:y + h, x:x + w] = thresh[y:y + h, x:x + w]
        for jdx in range(1, len(discarded_stats)):
            cx, cy, cw, ch, carea = (int(v) for v in discarded_stats[jdx])
            y_overlap = min(cy + ch, y + h) - max(cy, y)
            if y_overlap < 0.5 * min(ch, h):
                continue
            if max(ch, cw) > 3 * max(h, w):
                continue
            distance = min(abs(cx - x), abs(cx - x - w),
                           abs(cx + cw - x), abs(cx + cw - x - w))
            if y_overlap > 0 and distance <= char_length:
                chars.append([cx, cy, cw, ch, carea])
                character_thresh[cy:cy + ch, cx:cx + cw] = \
                    thresh[cy:cy + ch, cx:cx + cw]
    chars_arr = (np.array(chars, dtype=np.int32) if chars
                 else np.empty((0, 5), dtype=np.int32))
    return character_thresh, chars_arr


def test_create_character_thresh_matches_loop_form():
    rng = np.random.default_rng(5)
    for _ in range(120):
        H, W = 60, 90
        thresh = (rng.random((H, W)) < 0.3).astype(np.uint8) * 255
        nk, nd = rng.integers(0, 10, 2)

        def rand_stats(n):
            if n == 0:
                return np.empty((0, 5), dtype=np.int32)
            x = rng.integers(0, W - 10, n)
            y = rng.integers(0, H - 10, n)
            w = rng.integers(1, 12, n)
            h = rng.integers(1, 12, n)
            return np.stack([x, y, w, h, w * h], axis=1).astype(np.int32)

        stats, disc = rand_stats(nk), rand_stats(nd)
        cl = float(rng.uniform(1, 8))
        t1, c1 = create_character_thresh(thresh, stats, disc, cl)
        t2, c2 = _cct_loop(thresh, stats, disc, cl)
        assert np.array_equal(t1, t2)
        assert c1.shape == c2.shape and np.array_equal(c1, c2)


def _ws_loop(elements_array, min_width, min_height, total_height, continuous):
    """Reference loop form of the x-interval sweep
    (src/img2table/tables/processing/borderless_tables/whitespaces.py:11-116)."""
    x_vals = set()
    for idx in range(elements_array.shape[0]):
        x1, y1, x2, y2, ym = elements_array[idx]
        x_vals.add(x1)
        x_vals.add(x2)
    x_sorted = sorted(x_vals)

    final = []
    for idx in range(len(x_sorted) - 1):
        x_min, x_max = x_sorted[idx], x_sorted[idx + 1]
        if x_max - x_min < min_width:
            continue
        list_ws, prev_y = [], 10 ** 6
        for idx_el in range(elements_array.shape[0]):
            x1, y1, x2, y2, ym = elements_array[idx_el]
            overlap = min(x_max, x2) - max(x_min, x1)
            if overlap > 0:
                if y1 - prev_y >= min_height:
                    list_ws.append([x_min, prev_y, x_max, y1])
                prev_y = y2
        if continuous:
            y_min, y_max = -1000, -1000
            for x1_ws, y1_ws, x2_ws, y2_ws in list_ws:
                if y1_ws == y_max:
                    y_min, y_max = min(y1_ws, y_min), max(y2_ws, y_max)
                else:
                    if y_max - y_min >= total_height:
                        final.append([[int(x_min), int(y_min), int(x_max), int(y_max)]])
                    y_min, y_max = y1_ws, y2_ws
            if y_max - y_min >= total_height:
                final.append([[int(x_min), int(y_min), int(x_max), int(y_max)]])
        else:
            nb_ws, tot_h, min_h, max_h = 0, 0, 10 ** 6, 0
            ws_group = []
            for x1_ws, y1_ws, x2_ws, y2_ws in list_ws:
                nb_ws += 1
                tot_h += y2_ws - y1_ws
                min_h, max_h = min(y1_ws, min_h), max(y2_ws, max_h)
                ws_group.append([int(x_min), int(y1_ws), int(x_max), int(y2_ws)])
            if (tot_h >= total_height and tot_h >= 0.8 * (max_h - min_h)
                    and (nb_ws == 1 or x_max - x_min >= 2 * min_width)):
                final.append(ws_group)

    if continuous:
        dedup = []
        x1p, y1p, x2p, y2p = 0, 0, 0, 0
        for idx in range(len(final)):
            x1, y1, x2, y2 = final[idx][0]
            if x1 == x2p and y1 == y1p and y2 == y2p:
                x2p = x2
            else:
                if x2p - x1p >= min_width and idx > 0:
                    dedup.append([[x1p, y1p, x2p, y2p]])
                x1p, y1p, x2p, y2p = x1, y1, x2, y2
        if x2p - x1p >= min_width:
            dedup.append([[x1p, y1p, x2p, y2p]])
        return dedup
    return final


def test_compute_whitespaces_matches_loop_form():
    rng = np.random.default_rng(9)
    for trial in range(120):
        n = int(rng.integers(1, 25))
        x1 = rng.integers(0, 80, n)
        w = rng.integers(1, 20, n)
        y1 = rng.integers(0, 60, n)
        h = rng.integers(1, 15, n)
        arr = np.stack([x1, y1, x1 + w, y1 + h], axis=1).astype(np.float64)
        arr = np.c_[arr, (arr[:, 1] + arr[:, 3]) / 2]
        arr = arr[arr[:, 4].argsort(kind="stable")]
        min_width = float(rng.uniform(0, 6))
        min_height = float(rng.uniform(0.5, 6))
        total_height = float(rng.uniform(0, 30))
        continuous = bool(trial % 2)
        got = compute_whitespaces(arr, min_width, min_height, total_height,
                                  continuous=continuous)
        want = _ws_loop(arr, min_width, min_height, total_height, continuous)
        assert got == want


def _adaptive_rlsa_loop(cc, cc_stats, a, th, c):
    """Row-loop form of adaptive_rlsa (ref rlsa.py:54-118): one pass per
    image row, one ``np.unique`` per candidate gap."""
    rsla_img = (cc > 0).astype(np.uint8)
    h, w = cc.shape
    x1s = cc_stats[:, 0]
    y1s = cc_stats[:, 1]
    ws = cc_stats[:, 2]
    hs = cc_stats[:, 3]

    for row in range(h):
        cc_row = cc[row]
        cols = np.nonzero(cc_row)[0]
        if len(cols) < 2:
            continue
        labs = cc_row[cols]
        prev_cols, cur_cols = cols[:-1], cols[1:]
        prev_labs, cur_labs = labs[:-1], labs[1:]

        # same-label fills (gap inside one CC, e.g. hollow glyphs);
        # obstacle pixels (-1) never fill — the reference skips them before
        # the same-label branch (rlsa.py:80-82)
        same = (prev_labs == cur_labs) & (prev_labs != -1)
        for p, q in zip(prev_cols[same], cur_cols[same]):
            rsla_img[row, p:q] = 1

        # candidate pairs: different labels, neither is an obstacle (-1)
        cand = (~same) & (prev_labs != -1) & (cur_labs != -1)
        if not cand.any():
            continue
        pl = prev_labs[cand].astype(np.int64)
        cl = cur_labs[cand].astype(np.int64)
        p = prev_cols[cand]
        q = cur_cols[cand]
        length = q - p - 1
        hc, hp = hs[cl], hs[pl]
        height_ratio = np.maximum(hc, hp) / np.maximum(np.minimum(hc, hp), 1)
        h_overlap = np.minimum(y1s[cl] + hc, y1s[pl] + hp) - np.maximum(y1s[cl], y1s[pl])
        ok = (
            (length <= a * np.minimum(hc, hp))
            & (height_ratio <= th)
            & (h_overlap >= c * np.minimum(hc, hp))
        )
        if not ok.any():
            continue
        ylo = max(0, row - 2)
        yhi = min(row + 3, h)
        for i in np.where(ok)[0]:
            # no-other-CC check in the +-2 row band between the two CCs
            window = cc[ylo:yhi, p[i] + 1 : q[i]]
            allowed = {-1, 0, int(cl[i]), int(pl[i])}
            others = np.unique(window)
            if all(int(v) in allowed for v in others):
                rsla_img[row, p[i] : q[i]] = 1
    return rsla_img


def window_sum(img: np.ndarray, kw: int, kh: int,
               ax: int | None = None, ay: int | None = None) -> np.ndarray:
    """Windowed sum with out-of-image treated as 0; anchor defaults to
    (kw//2, kh//2) like cv2.getStructuringElement.

    Implementation: edge-padded integral image + pure slicing, int32
    accumulation for small-dtype inputs."""
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


def _find_obstacles_loop(img, min_width):
    """Column-loop form of find_obstacles (ref rlsa.py:121-159)."""
    mask = np.zeros(img.shape, dtype=bool)
    min_width = int(np.ceil(min_width))
    h, w = img.shape
    if w <= min_width:
        return mask
    # windowed any over [col, col+min_width) for cols 0..w-min_width-1
    on = (img > 0).astype(np.uint8)
    s = window_sum(on, min_width, 1, ax=0, ay=0)  # anchor at window start
    has = s[:, : w - min_width] > 0  # (h, w-min_width)

    for col in range(w - min_width):
        rows = np.nonzero(has[:, col])[0]
        prev = -1
        for r in rows:
            if r - prev - 1 > h / 5:
                mask[prev + 1 : r, col : col + min_width] = True
            prev = r
        # trailing gap (reference keeps the last loop row h-1)
        if (h - 1) - prev > h / 5:
            mask[prev + 1 : h, col : col + min_width] = True
    return mask


RLSA_PARAMS = [(1, 3.5, 0.4), (5, 3.5, 0.4), (1.25, 3.5, 0.4), (40, 1e9, -1e9)]
OBSTACLE_WIDTHS = [1, 2.5, 7, 11]


def _random_labels(rng, h, w, obstacles):
    """CCL labels of a sparse random glyph image, some zeroed as noise,
    optionally with -1 obstacle pixels laid over them."""
    img = np.zeros((h, w), dtype=np.uint8)
    for _ in range(int(rng.integers(1, 30))):
        y, x = rng.integers(0, h), rng.integers(0, w)
        gh, gw = rng.integers(1, 8, 2)
        img[y : y + gh, x : x + gw] = 255
    img[rng.random((h, w)) < 0.05] = 0
    _, cc, stats = connected_components_with_stats(img)
    drop = rng.random(len(stats)) < 0.1
    drop[0] = False
    cc[drop[cc]] = 0
    if obstacles:
        cc[rng.random((h, w)) < rng.uniform(0.01, 0.2)] = -1
        y, x = rng.integers(0, h), rng.integers(0, w)
        cc[:, x : x + int(rng.integers(1, 4))] = -1
        cc[y : y + int(rng.integers(1, 3)), :] = -1
    return cc, stats


@pytest.mark.parametrize("obstacles", [False, True])
@pytest.mark.parametrize("params", RLSA_PARAMS)
def test_adaptive_rlsa_matches_loop_form(params, obstacles):
    rng = np.random.default_rng(17)
    for _ in range(60):
        h, w = (int(v) for v in rng.integers(1, 60, 2))
        cc, stats = _random_labels(rng, h, w, obstacles)
        got = rlsa.adaptive_rlsa(cc, stats, *params)
        want = _adaptive_rlsa_loop(cc, stats, *params)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_find_obstacles_matches_loop_form():
    rng = np.random.default_rng(23)
    for _ in range(80):
        h, w = (int(v) for v in rng.integers(1, 70, 2))
        img = (rng.random((h, w)) < rng.uniform(0, 0.3)).astype(np.uint8) * 255
        for mw in OBSTACLE_WIDTHS + [w, w + 3]:
            assert np.array_equal(rlsa.find_obstacles(img, mw),
                                  _find_obstacles_loop(img, mw))


def test_rlsa_edge_cases():
    stats = np.array([[0, 0, 5, 5, 25], [0, 0, 1, 1, 1], [1, 0, 1, 1, 1]],
                     dtype=np.int32)
    label_images = [
        np.zeros((0, 0), dtype=np.int32),
        np.zeros((0, 5), dtype=np.int32),
        np.zeros((5, 0), dtype=np.int32),
        np.array([[1, 2, 0, 0, 1, 1, 0, 2]], dtype=np.int32),   # one row
        np.array([[1], [2], [0], [1]], dtype=np.int32),         # one column
        np.array([[1, 2, 1, -1, 2, 2, -1, -1]], dtype=np.int32),  # zero-length gaps
        np.full((3, 4), -1, dtype=np.int32),
        # a run that ends at the last column and one at column 0 of the next
        # row do not pair, whatever their labels
        np.array([[0, 0, 1], [1, 0, 0], [0, 2, 2], [2, 0, 0]], dtype=np.int32),
        np.array([[1, 1, 0], [1, 0, 0], [0, 2, 0], [2, 0, 2]], dtype=np.int32),
        # a gap whose endpoint pixel is -1 while the rest of its run is positive
        np.array([[1, 1, -1, 0, 0, 1, 1, 0, 2, -1, 0, 2]], dtype=np.int32),
        np.array([[1, 0, 0, -1, 1, 1, 0, 0, -1, 2, 0, 2]], dtype=np.int32),
        # rows that are entirely -1, between rows that fill
        np.array([[1, 0, 1, 0, 2], [-1, -1, -1, -1, -1], [2, 0, 0, 1, 1],
                  [-1, -1, -1, -1, -1]], dtype=np.int32),
    ]
    for cc in label_images:
        for params in RLSA_PARAMS:
            assert np.array_equal(rlsa.adaptive_rlsa(cc, stats, *params),
                                  _adaptive_rlsa_loop(cc, stats, *params))

    full = np.full((20, 9), 255, dtype=np.uint8)      # no column has a gap
    empty = np.zeros((20, 9), dtype=np.uint8)        # every column is all gap
    part = empty.copy()
    part[[0, 19], :] = 255                           # gaps touch neither edge
    part[5, 3] = 255
    # zero runs of exactly h/5 = 4 rows (not a gap) and of 5 rows (a gap),
    # inside a column and touching the set rows -1 and h on either side
    fifth = full.copy()
    fifth[1:5, 0] = fifth[10:15, 0] = 0
    fifth[:4, 2] = fifth[16:, 4] = 0
    fifth[:5, 6] = fifth[15:, 7] = 0
    # zero runs from row 0 to h - 1 and from both ends of a column
    ends = empty.copy()
    ends[9, 1] = ends[[3, 16], 5] = 255
    images = [full, empty, part, fifth, ends, empty[:1], empty[:, :1],
              full[:1], empty[:0]]
    for img in images:
        for mw in OBSTACLE_WIDTHS + [img.shape[1], img.shape[1] + 1]:
            assert np.array_equal(rlsa.find_obstacles(img, mw),
                                  _find_obstacles_loop(img, mw))


BORDERLESS_FIXTURES = ["borderless.png", "test.png", "dark.png"]
# two of tests/test_borderless_pins.py's line-free grids (seeds 1 and 3)
LINE_FREE_PAGES = ["line_free_3x4_1000005", "line_free_3x4_3000016"]


def _table_image(name):
    from img2table_ray.extract.document import TableImage
    from img2table_ray.fixtures import fixture_bytes
    from img2table_ray.imgops.png import decode_image

    if name.startswith("line_free_"):
        from img2table_ray.sources.pages import synth_table_image
        from test_borderless_pins import _line_free

        shape, idx = name.split("_")[2:]
        img, hocr = synth_table_image(*(int(v) for v in shape.split("x")), int(idx))
        return TableImage(img=_line_free(img, hocr))
    return TableImage(img=decode_image(fixture_bytes(name)))


@pytest.mark.parametrize("name", ["test.png", "borderless.png"])
def test_table_image_reads_gray_page_as_plane(name):
    """TableImage keeps an R == G == B page as its contiguous channel 0 and
    a colour page as it is; the plane and its three-channel copy give the
    same page extraction, bordered and borderless."""
    from img2table_ray.extract.document import (TableImage,
                                                extract_tables_from_image)

    img = _fixture_rgb(name)
    plane = np.ascontiguousarray(img[:, :, 0])
    ti = TableImage(img=_replicated(plane))
    assert ti.img.ndim == 2 and ti.img.flags.c_contiguous
    assert np.array_equal(ti.img, plane)
    assert TableImage(img=img).img is img
    for borderless in (False, True):
        assert (extract_tables_from_image(plane, borderless_tables=borderless)
                == extract_tables_from_image(_replicated(plane),
                                             borderless_tables=borderless))


@pytest.mark.parametrize("name", BORDERLESS_FIXTURES + LINE_FREE_PAGES)
def test_rlsa_matches_loop_form_on_fixture_intermediates(name, monkeypatch):
    """Every adaptive_rlsa / find_obstacles input the borderless path builds
    for a vendored page or a line-free pin page, checked against the loop
    forms."""
    calls = {"rlsa": [], "obstacles": []}
    rlsa_fn, obstacles_fn = rlsa.adaptive_rlsa, rlsa.find_obstacles

    def record_rlsa(cc, cc_stats, a, th, c):
        calls["rlsa"].append((cc.copy(), cc_stats.copy(), a, th, c))
        return rlsa_fn(cc=cc, cc_stats=cc_stats, a=a, th=th, c=c)

    def record_obstacles(img, min_width):
        calls["obstacles"].append((img.copy(), min_width))
        return obstacles_fn(img=img, min_width=min_width)

    monkeypatch.setattr(rlsa, "adaptive_rlsa", record_rlsa)
    monkeypatch.setattr(rlsa, "find_obstacles", record_obstacles)
    _table_image(name).extract_tables(borderless_tables=True)
    assert calls["rlsa"] and calls["obstacles"]
    for cc, stats, a, th, c in calls["rlsa"]:
        assert np.array_equal(rlsa_fn(cc, stats, a, th, c),
                              _adaptive_rlsa_loop(cc, stats, a, th, c))
    for img, mw in calls["obstacles"]:
        assert np.array_equal(obstacles_fn(img, mw), _find_obstacles_loop(img, mw))


@pytest.mark.parametrize("name", BORDERLESS_FIXTURES)
def test_borderless_tables_match_loop_forms(name, monkeypatch):
    got = _table_image(name).extract_tables(borderless_tables=True)
    monkeypatch.setattr(rlsa, "adaptive_rlsa", _adaptive_rlsa_loop)
    monkeypatch.setattr(rlsa, "find_obstacles", _find_obstacles_loop)
    assert got == _table_image(name).extract_tables(borderless_tables=True)


# ---- image kernels (imgops/kernels.py) against the forms they replaced ----

def _rgb2gray_fixed_point(img):
    r = img[:, :, 0].astype(np.uint32)
    g = img[:, :, 1].astype(np.uint32)
    b = img[:, :, 2].astype(np.uint32)
    return ((r * 4899 + g * 9617 + b * 1868 + 8192) >> 14).astype(np.uint8)


def _slide_extreme_axis_van_herk(x: np.ndarray, k: int, a: int, axis: int,
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
    return np.where(binary != 0, np.uint8(255), np.uint8(0))


def _dilate_binary255(binary, kw, kh):
    b = _as_binary255(binary)
    b = _slide_extreme_axis_van_herk(b, kw, kw // 2, axis=1, is_max=True)
    return _slide_extreme_axis_van_herk(b, kh, kh // 2, axis=0, is_max=True)


def _erode_binary255(binary, kw, kh):
    b = _as_binary255(binary)
    b = _slide_extreme_axis_van_herk(b, kw, kw // 2, axis=1, is_max=False)
    return _slide_extreme_axis_van_herk(b, kh, kh // 2, axis=0, is_max=False)


def box_mean_replicate(img: np.ndarray, k: int) -> np.ndarray:
    """Normalized k x k box filter with BORDER_REPLICATE, float64 output —
    the mean filter inside cv2.ximgproc.niBlackThreshold."""
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


def _sauvola_float64(gray, window, k=0.2, r=128.0):
    mean = box_mean_replicate(gray, window)
    sqmean = box_mean_replicate(gray.astype(np.float64) ** 2, window)
    var = np.maximum(sqmean - mean ** 2, 0.0)
    std = np.sqrt(var.astype(np.float32))
    t = mean.astype(np.float32) * (1.0 + k * (std / r - 1.0))
    return gray.astype(np.float32) <= t


def _bilateral_interleaved(img, sigma_color=40.0, sigma_space=80.0):
    """cv2.bilateralFilter(img, d=3, 40, 80): neighbours read from one
    interleaved (H, W, 3) int16 padded copy."""
    h, w, _ = img.shape
    gauss_color = -0.5 / (sigma_color ** 2)
    gauss_space = -0.5 / (sigma_space ** 2)
    i16 = img.astype(np.int16)
    padded_i = np.pad(i16, ((1, 1), (1, 1), (0, 0)), mode="reflect")  # BORDER_DEFAULT
    cw_table = np.exp(gauss_color * (np.arange(256 * 3, dtype=np.float32) ** 2))
    cw_table[cw_table < np.float32(1.2e-38)] = 0.0
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
        out[:, :, c] = np.clip(np.rint(q), 0, 255).astype(np.uint8)
    return out


def _convolve_axis_float64(f, k, axis):
    """'valid' correlation along an axis, taps accumulated from 0 (the
    per-element order of the blocked form the Gaussian kernels replaced)."""
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


def _gaussian_float64(img, ksize, mode, sigma=0.0):
    """Unrounded float64 separable Gaussian, border ``mode`` as np.pad
    names it ("reflect" = reflect-101, "edge" = replicate)."""
    k = kernels.gaussian_kernel_1d(ksize, sigma)
    pad = ksize // 2
    f = np.pad(img.astype(np.float64), ((0, 0), (pad, pad)), mode=mode)
    f = _convolve_axis_float64(f, k, axis=1)
    f = np.pad(f, ((pad, pad), (0, 0)), mode=mode)
    return _convolve_axis_float64(f, k, axis=0)


def _gaussian_blur_float64(img, ksize, sigma=0.0):
    f = _gaussian_float64(img, ksize, "reflect", sigma)
    return np.clip(np.rint(f), 0, 255).astype(np.uint8)


def _adaptive_threshold_float64(gray, block, c):
    mean = np.rint(_gaussian_float64(gray, block, "edge"))
    return np.where(gray.astype(np.float64) > mean - c, 0, 255).astype(np.uint8)


IMAGE_FIXTURES = ["test.png", "dark.png", "borderless.png", "blank.png",
                  "contours.png", "titles.jpg", "test.pdf"]


def _fixture_rgb(name):
    """A vendored image as (H, W, 3) RGB, or the first page of a vendored
    PDF as the renderer draws it (200 dpi), copied into three channels."""
    from img2table_ray.extract.pdfraster import render_pdf
    from img2table_ray.fixtures import fixture_bytes
    from img2table_ray.imgops.png import decode_image

    if name.endswith(".pdf"):
        return _replicated(render_pdf(fixture_bytes(name), pages=[0])[0])
    return decode_image(fixture_bytes(name))


def _replicated(plane):
    """A gray plane copied into three interleaved channels: the page the
    reference's cv2 calls see."""
    return np.repeat(plane[:, :, None], 3, axis=2)


def _random_rgb(rng, n, max_side=48):
    """Colour, gray-replicated and two-equal-channel images, 1x1 and
    one-pixel-thin shapes included."""
    shapes = [(1, 1), (1, 7), (7, 1), (2, 2), (1, 60), (60, 1)]
    shapes += [tuple(int(v) for v in rng.integers(1, max_side, 2)) for _ in range(n)]
    for i, (h, w) in enumerate(shapes):
        img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        if i % 3 == 0:
            img[:, :, 1] = img[:, :, 2] = img[:, :, 0]
        elif i % 3 == 1:
            img[:, :, 2] = img[:, :, 0]
        yield img


def _assert_same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_rgb2gray_matches_fixed_point_form():
    """RGB pages, and each gray plane against the fixed-point luma of its
    three-channel copy."""
    rng = np.random.default_rng(31)
    for img in _random_rgb(rng, 40):
        _assert_same(kernels.rgb2gray(img), _rgb2gray_fixed_point(img))
        _assert_same(kernels.rgb2gray(img[:, :, 0]),
                     _rgb2gray_fixed_point(_replicated(img[:, :, 0])))
    for name in IMAGE_FIXTURES:
        img = _fixture_rgb(name)
        gray = _replicated(img[:, :, 0])
        _assert_same(kernels.rgb2gray(img), _rgb2gray_fixed_point(img))
        _assert_same(kernels.rgb2gray(gray), _rgb2gray_fixed_point(gray))
        _assert_same(kernels.rgb2gray(img[:, :, 0]), _rgb2gray_fixed_point(gray))
        # one colour pixel in the first or the last row block
        for y, x in ((0, 0), (-1, -1)):
            tinted = gray.copy()
            tinted[y, x, 1] ^= 1
            assert not kernels._is_gray(tinted)
            _assert_same(kernels.rgb2gray(tinted), _rgb2gray_fixed_point(tinted))


SLIDE_WINDOWS = [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 20, 37, 64, 150]


def test_slide_extreme_matches_van_herk():
    rng = np.random.default_rng(37)
    for trial in range(40):
        h, w = (int(v) for v in rng.integers(1, 70, 2))
        if trial % 2:
            x = rng.integers(0, 256, (h, w), dtype=np.uint8)
        else:
            x = (rng.random((h, w)) < 0.3).astype(np.uint8) * 255
        for k in SLIDE_WINDOWS:
            a = int(rng.integers(0, k))
            for axis in (0, 1):
                for is_max in (True, False):
                    _assert_same(
                        kernels._slide_extreme_axis(x, k, a, axis, is_max),
                        _slide_extreme_axis_van_herk(x, k, a, axis, is_max))


MORPH_WINDOWS = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3), (3, 3),
                 (4, 6), (9, 2), (2, 9), (15, 15), (16, 1), (1, 33), (40, 7)]
MORPH_OPS = [
    ("dilate", _dilate_binary255),
    ("erode", _erode_binary255),
    ("morph_open", lambda b, kw, kh: _dilate_binary255(_erode_binary255(b, kw, kh), kw, kh)),
    ("morph_close", lambda b, kw, kh: _erode_binary255(_dilate_binary255(b, kw, kh), kw, kh)),
]


def test_morphology_matches_binary255_forms():
    """Every caller passes 0/255 images; the dropped 0/255 copy was the
    identity on them, and a k = 1 window still returns a fresh array."""
    rng = np.random.default_rng(41)
    images = [(rng.random((h, w)) < p).astype(np.uint8) * 255
              for h, w, p in [(1, 1, 0.5), (1, 30, 0.5), (30, 1, 0.5),
                              (25, 40, 0.1), (40, 25, 0.6), (64, 64, 0.3)]]
    images.append(kernels.sauvola_threshold(
        _rgb2gray_fixed_point(_fixture_rgb("test.png")), 11).view(np.uint8) * np.uint8(255))
    for img in images:
        before = img.copy()
        for kw, kh in MORPH_WINDOWS:
            for name, oracle in MORPH_OPS:
                got = getattr(kernels, name)(img, kw, kh)
                _assert_same(got, oracle(img, kw, kh))
                assert not np.shares_memory(got, img)
        assert np.array_equal(img, before)


def test_title_dilation_equals_four_dilations():
    """``titles.get_contours_cell`` dilates once by 4 * (k - 1) + 1 where
    the reference dilates four times by k; equal for the odd sizes it is
    called with (9 by ``get_title_tables``, 15 by default), including
    ink on the borders and crops smaller than the window."""
    import inspect

    from img2table_ray.extract import titles

    default = inspect.signature(titles.get_contours_cell).parameters["kernel_size"].default
    rng = np.random.default_rng(43)
    for k in (9, default):
        size = 4 * (k - 1) + 1
        for h, w, p in [(1, 1, 1.0), (1, 50, 0.05), (50, 1, 0.05), (7, 9, 0.2),
                        (40, 90, 0.01), (90, 40, 0.03), (120, 160, 0.002)]:
            img = (rng.random((h, w)) < p).astype(np.uint8) * 255
            img[0, rng.integers(w)] = img[-1, rng.integers(w)] = 255
            img[rng.integers(h), 0] = img[rng.integers(h), -1] = 255
            four = img
            for _ in range(4):
                four = kernels.dilate(four, k, k)
            _assert_same(kernels.dilate(img, size, size), four)

    # the whole function against its four-dilation form, on title crops
    # of a fixture page, ink touching the crop borders
    from img2table_ray.core.common import merge_contours
    from img2table_ray.core.objects import Cell
    from img2table_ray.imgops.ccl import connected_components_stats

    page = _fixture_rgb("test.png")
    for k, (x1, y1, x2, y2) in itertools.product(
            (9, default), [(0, 0, 400, 60), (30, 10, 200, 45), (100, 0, 700, 200)]):
        crop = kernels.rgb2gray(page[y1:y2, x1:x2])
        d = kernels.adaptive_threshold_gaussian_inv(kernels.gaussian_blur(crop, 5), 11, 30)
        for _ in range(4):
            d = kernels.dilate(d, k, k)
        stats = connected_components_stats(d)
        expected = merge_contours([Cell(x1=int(x) + x1, y1=int(y) + y1, x2=int(x + w) + x1,
                                        y2=int(y + h) + y1) for x, y, w, h, _ in stats[1:]])
        got = titles.get_contours_cell(img=page, cell=Cell(x1=x1, y1=y1, x2=x2, y2=y2),
                                       margin=0, blur_size=5, kernel_size=k)
        assert got == expected


SAUVOLA_WINDOWS = [1, 3, 5, 11, 23, 61, 181, 183]


def test_sauvola_matches_box_mean_form():
    rng = np.random.default_rng(43)
    for img in _random_rgb(rng, 30):
        gray = _rgb2gray_fixed_point(img)
        for window in SAUVOLA_WINDOWS:
            _assert_same(kernels.sauvola_threshold(gray, window),
                         _sauvola_float64(gray, window))
    # prefix sums past 2**31 wrap in int32; window sums stay exact
    bright = np.full((2000, 40), 255, np.uint8)
    bright[::7, ::3] = 0
    assert 2000 * 23 * 65025 > 2 ** 31
    _assert_same(kernels.sauvola_threshold(bright, 23),
                 _sauvola_float64(bright, 23))
    # a window of 183 on a bright page sums gray**2 past 2**31: int64 sums
    # (int32 would wrap the sum itself and drop the sparse 204s)
    bright = np.full((200, 200), 255, np.uint8)
    bright[7::25, 7::25] = 204
    assert 183 * 183 * 65025 >= 2 ** 31
    for window in (181, 183):
        _assert_same(kernels.sauvola_threshold(bright, window),
                     _sauvola_float64(bright, window))


@pytest.mark.parametrize("name", IMAGE_FIXTURES)
def test_threshold_kernels_match_on_fixture(name):
    gray = _rgb2gray_fixed_point(_fixture_rgb(name))
    for window in (11, 23):
        _assert_same(kernels.sauvola_threshold(gray, window),
                     _sauvola_float64(gray, window))
        _assert_same(kernels.sauvola_threshold(255 - gray, window),
                     _sauvola_float64(255 - gray, window))
    for ksize in (5, 9, 23):
        blur = kernels.gaussian_blur(gray, ksize)
        _assert_same(blur, _gaussian_blur_float64(gray, ksize))
    crop = gray[100:180, 200:520]
    _assert_same(kernels.adaptive_threshold_gaussian_inv(crop, 11, 30),
                 _adaptive_threshold_float64(crop, 11, 30))


def _assert_bilateral_same(img):
    """Every filtered channel, and the gray image of the filtered page,
    exactly as the interleaved form gives them; a gray plane against the
    interleaved form of its three-channel copy."""
    want = _bilateral_interleaved(_replicated(img) if img.ndim == 2 else img)
    planes = kernels._bilateral3_planes(img, 40.0, 80.0)
    assert len(planes) == (1 if img.ndim == 2 else 3)
    for c in range(3):
        _assert_same(planes[c % len(planes)], want[:, :, c])
    _assert_same(kernels.bilateral3_gray(img), _rgb2gray_fixed_point(want))


def test_bilateral_matches_interleaved_form():
    rng = np.random.default_rng(47)
    for img in _random_rgb(rng, 40):
        _assert_bilateral_same(img)
        _assert_bilateral_same(img[:, :, 0])
    # hard edges: weights underflow to the flushed-to-zero table entries
    edges = np.zeros((30, 30, 3), np.uint8)
    edges[:, ::2] = 255
    edges[::3, :, 1] = 128
    _assert_bilateral_same(edges)


@pytest.mark.parametrize("name", IMAGE_FIXTURES)
def test_bilateral_matches_on_fixture(name):
    img = _fixture_rgb(name)
    _assert_bilateral_same(img)
    _assert_bilateral_same(np.repeat(img[:, :, :1], 3, axis=2))
    _assert_bilateral_same(np.ascontiguousarray(img[:, :, 0]))
    # one colour pixel in the last row: the page is not gray
    tinted = np.repeat(img[:, :, :1], 3, axis=2)
    tinted[-1, -1, 2] ^= 1
    assert not kernels._is_gray(tinted)
    _assert_bilateral_same(tinted)


def test_gaussian_matches_float64_form_every_odd_ksize():
    """Odd ksize 3..255 on images thinner and smaller than the kernel
    (np.pad's repeated reflection) as well as larger ones."""
    rng = np.random.default_rng(53)
    images = [rng.integers(0, 256, shape, dtype=np.uint8)
              for shape in [(1, 1), (1, 9), (9, 1), (3, 40), (40, 3), (31, 47)]]
    for ksize in range(3, 256, 2):
        for img in images:
            _assert_same(kernels.gaussian_blur(img, ksize),
                         _gaussian_blur_float64(img, ksize))
    for img in images:
        for block in (3, 11, 31):
            for c in (30, 2.5, -7):
                _assert_same(kernels.adaptive_threshold_gaussian_inv(img, block, c),
                             _adaptive_threshold_float64(img, block, c))


def _blocks(h, w, a, b):
    """One-grey-level steps: a checkerboard of a x b blocks of 100 and 101.
    Its blurs land on or next to half-integers."""
    return (100 + np.add.outer(np.arange(h) // a, np.arange(w) // b) % 2).astype(np.uint8)


def _tie_stress():
    """Noise with four 32x32 step patches: enough band pixels to matter,
    few enough that they are recomputed one by one."""
    img = np.random.default_rng(59).integers(0, 256, (240, 480), dtype=np.uint8)
    for i, (a, b) in enumerate([(1, 1), (2, 2), (1, 3), (2, 1)]):
        img[40:72, 40 + 100 * i : 72 + 100 * i] = _blocks(32, 32, a, b)
    return img


def _float32_pass(img, ksize, mode):
    return kernels._gaussian32(np.pad(img, ksize // 2, mode=mode),
                               kernels.gaussian_kernel_1d(ksize))[:, :img.shape[1]]


@pytest.mark.parametrize("ksize", [3, 5, 9, 11, 23, 51])
def test_gaussian_tie_band_recomputes_exactly(ksize):
    img = _tie_stress()
    for mode in ("reflect", "edge"):
        v32 = _float32_pass(img, ksize, mode)
        band = np.abs(v32 - np.floor(v32) - 0.5) < kernels._tie_tol(ksize)
        assert band.sum() * ksize < img.size  # the per-pixel recompute path
        if ksize in (9, 23, 51):
            # float32 alone rounds some pixels the other way
            f64 = _gaussian_float64(img, ksize, mode)
            assert (np.rint(v32) != np.rint(f64)).any()
    _assert_same(kernels.gaussian_blur(img, ksize),
                 _gaussian_blur_float64(img, ksize))
    _assert_same(kernels.adaptive_threshold_gaussian_inv(img, ksize, 0),
                 _adaptive_threshold_float64(img, ksize, 0))


@pytest.mark.parametrize("a,b", [(1, 1), (1, 2), (2, 2), (1, 3)])
def test_gaussian_whole_image_ties_take_float64_form(a, b):
    """A page of one-level steps: nearly every pixel is in the band, so the
    whole image takes the float64 form."""
    img = _blocks(64, 128, a, b)
    v32 = _float32_pass(img, 23, "reflect")
    assert (np.abs(v32 - np.floor(v32) - 0.5) < kernels._tie_tol(23)).sum() * 23 >= img.size
    _assert_same(kernels.gaussian_blur(img, 23), _gaussian_blur_float64(img, 23))
    _assert_same(kernels.adaptive_threshold_gaussian_inv(img, 23, 1),
                 _adaptive_threshold_float64(img, 23, 1))


@pytest.mark.parametrize("name", IMAGE_FIXTURES)
def test_gaussian_float32_error_below_tie_tol(name):
    """The float32 passes stay inside the band that decides which pixels
    are recomputed, by the margin the written bound claims."""
    gray = _rgb2gray_fixed_point(_fixture_rgb(name))
    for ksize in (5, 9, 23, 51):
        v32 = _float32_pass(gray, ksize, "reflect")
        err = np.abs(v32.astype(np.float64) - _gaussian_float64(gray, ksize, "reflect"))
        assert err.max() < kernels._tie_tol(ksize)


# ---- connected components and cell identification (imgops/ccl.py,
# extract/cells.py) against the forms they replaced ----

def _ccl_run_diff(binary: np.ndarray):
    """The row-diff run extraction with full label image and np.unique
    renumbering that ``imgops/ccl.py`` used before its flat scan."""
    h, w = binary.shape
    fg = binary > 0

    # --- extract runs per row (vectorized over the whole image) ---
    padded = np.zeros((h, w + 2), dtype=bool)
    padded[:, 1:-1] = fg
    diff = np.diff(padded.astype(np.int8), axis=1)
    starts_r, starts_c = np.where(diff == 1)   # run starts (col index in image coords)
    ends_r, ends_c = np.where(diff == -1)      # run ends (exclusive)
    # diff guarantees starts and ends pair up row by row in order
    n_runs = len(starts_r)
    if n_runs == 0:
        labels = np.zeros((h, w), dtype=np.int32)
        stats = np.array([[0, 0, w, h, h * w]], dtype=np.int32)
        return 1, labels, stats

    run_row = starts_r
    run_x1 = starts_c
    run_x2 = ends_c  # exclusive

    # --- union runs between consecutive rows (8-connectivity) ---
    # Vectorized adjacency: runs are raster-sorted, so with a row-keyed
    # coordinate (row*W2 + x, W2 > max x) ONE global searchsorted pair finds,
    # for every run, the index range of previous-row runs whose x-interval
    # touches it (diagonal contact included).  Only the union-find over the
    # resulting pair list is a Python loop (~one iteration per contact).
    parent = np.arange(n_runs, dtype=np.int64)

    W2 = w + 2
    prev_key_x2 = (run_row + 1) * W2 + run_x2  # prev-row runs shifted down
    prev_key_x1 = (run_row + 1) * W2 + run_x1
    lo = np.searchsorted(prev_key_x2, run_row * W2 + run_x1 - 1, side="right")
    hi = np.searchsorted(prev_key_x1, run_row * W2 + run_x2 + 1, side="left")
    counts = np.maximum(hi - lo, 0)
    total_pairs = int(counts.sum())
    if total_pairs:
        a_idx = np.repeat(np.arange(n_runs), counts)
        cum = np.concatenate(([0], np.cumsum(counts)[:-1]))
        b_idx = (np.arange(total_pairs, dtype=np.int64)
                 - np.repeat(cum, counts) + np.repeat(lo, counts))
        # Vectorized min-label union (Shiloach–Vishkin shape): hook each
        # edge's larger current label onto the smaller, then pointer-jump
        # to compress; O(E) numpy work per round, rounds ~ O(log n).
        # Which run ends up the root does not matter — final labels are
        # renumbered by raster order of each component's first run below.
        while True:
            pa = parent[a_idx]
            pb = parent[b_idx]
            lo_lab = np.minimum(pa, pb)
            hi_lab = np.maximum(pa, pb)
            before = parent.copy()
            np.minimum.at(parent, hi_lab, lo_lab)
            while True:
                pp = parent[parent]
                if np.array_equal(pp, parent):
                    break
                parent = pp
            if np.array_equal(parent, before):
                break

    roots = parent

    # --- renumber components in raster order of first run ---
    # first occurrence order of roots in run order (runs already raster-sorted)
    _, first_idx, inv = np.unique(roots, return_index=True, return_inverse=True)
    order = np.argsort(first_idx)  # component rank by first run position
    rank_of_unique = np.empty_like(order)
    rank_of_unique[order] = np.arange(len(order))
    comp = rank_of_unique[inv] + 1  # 1-based labels, raster order
    n_comp = len(order)

    # --- stats per component ---
    run_len = run_x2 - run_x1
    x1s = np.full(n_comp + 1, w, dtype=np.int64)
    x2s = np.zeros(n_comp + 1, dtype=np.int64)
    y1s = np.full(n_comp + 1, h, dtype=np.int64)
    y2s = np.zeros(n_comp + 1, dtype=np.int64)
    areas = np.zeros(n_comp + 1, dtype=np.int64)
    np.minimum.at(x1s, comp, run_x1)
    np.maximum.at(x2s, comp, run_x2)
    np.minimum.at(y1s, comp, run_row)
    np.maximum.at(y2s, comp, run_row + 1)
    np.add.at(areas, comp, run_len)

    stats = np.zeros((n_comp + 1, 5), dtype=np.int32)
    stats[0] = [0, 0, w, h, h * w - int(areas[1:].sum())]
    stats[1:, 0] = x1s[1:]
    stats[1:, 1] = y1s[1:]
    stats[1:, 2] = x2s[1:] - x1s[1:]
    stats[1:, 3] = y2s[1:] - y1s[1:]
    stats[1:, 4] = areas[1:]

    # --- label image (vectorized run expansion, no per-run Python) ---
    labels = np.zeros(h * w, dtype=np.int32)
    total = int(run_len.sum())
    cum = np.concatenate(([0], np.cumsum(run_len)[:-1]))
    offsets = np.arange(total, dtype=np.int64) - np.repeat(cum, run_len)
    flat_idx = np.repeat(run_row.astype(np.int64) * w + run_x1, run_len) + offsets
    labels[flat_idx] = np.repeat(comp.astype(np.int32), run_len)

    return n_comp + 1, labels.reshape(h, w), stats


def _identify_cells_loop(h_lines_arr: np.ndarray, v_lines_arr: np.ndarray) -> np.ndarray:
    """The pair-loop form ``extract/cells.py`` used before it was
    vectorized (ref cells/identification.py:9-90)."""
    potential_cells = []
    n = h_lines_arr.shape[0]
    for i in range(n):
        x1i, y1i, x2i, y2i = (int(v) for v in h_lines_arr[i])
        for j in range(n):
            x1j, y1j, x2j, y2j = (int(v) for v in h_lines_arr[j])
            if y1i >= y1j:
                continue
            denom = (x2i - x1i) or 1
            l_corresponds = -0.02 <= (x1i - x1j) / denom <= 0.02
            r_corresponds = -0.02 <= (x2i - x2j) / denom <= 0.02
            l_contained = (x1i <= x1j <= x2i) or (x1j <= x1i <= x2j)
            r_contained = (x1i <= x2j <= x2i) or (x1j <= x2i <= x2j)
            if (l_corresponds or l_contained) and (r_corresponds or r_contained):
                potential_cells.append([max(x1i, x1j), min(x2i, x2j), y1i, y2j])

    if not potential_cells:
        return np.empty((0, 4), dtype=np.int64)

    # Two-pass dedup: keep lowest lower bound per (x1, x2, y1), then highest
    # upper bound per (x1, x2, y2) (ref identification.py:39-60)
    potential_cells = sorted(potential_cells)
    dedup_upper = []
    prev = (0, 0, 0)
    for x1, x2, y1, y2 in potential_cells:
        if (x1, x2, y1) != prev:
            dedup_upper.append([x1, x2, y2, -y1])
        prev = (x1, x2, y1)

    dedup_upper = sorted(dedup_upper)
    dedup_lower = []
    prev = (0, 0, 0)
    for x1, x2, y2, neg_y1 in dedup_upper:
        if (x1, x2, y2) != prev:
            dedup_lower.append([x1, x2, -neg_y1, y2])
        prev = (x1, x2, y2)

    cells = []
    for x1, x2, y1, y2 in dedup_lower:
        margin = max(5, (x2 - x1) * 0.025)
        delimiters = []
        for j in range(v_lines_arr.shape[0]):
            x1v, y1v, x2v, y2v = (int(v) for v in v_lines_arr[j])
            if x1 - margin <= x1v <= x2 + margin:
                overlap = min(y2, y2v) - max(y1, y1v)
                tolerance = max(5, min(10, 0.1 * (y2 - y1)))
                if y2 - y1 - overlap <= tolerance:
                    delimiters.append(x1v)
        if len(delimiters) >= 2:
            delimiters = sorted(delimiters)
            for d1, d2 in zip(delimiters, delimiters[1:]):
                cells.append([d1, y1, d2, y2])

    return np.array(cells, dtype=np.int64) if cells else np.empty((0, 4), dtype=np.int64)


def _assert_ccl_same(binary):
    n, labels, stats = connected_components_with_stats(binary)
    n0, labels0, stats0 = _ccl_run_diff(binary)
    assert n == n0 == len(stats0)
    _assert_same(labels, labels0)
    _assert_same(stats, stats0)
    _assert_same(connected_components_stats(binary), stats0)


@pytest.mark.parametrize("density", [0.01, 0.05, 0.2, 0.5, 0.7, 0.9])
def test_ccl_matches_run_diff_form_on_random_masks(density):
    rng = np.random.default_rng(int(density * 100))
    for _ in range(40):
        h, w = (int(v) for v in rng.integers(1, 70, 2))
        _assert_ccl_same((rng.random((h, w)) < density).astype(np.uint8) * 255)


def test_ccl_edge_masks():
    rng = np.random.default_rng(3)
    masks = [np.zeros((0, 0), np.uint8), np.zeros((0, 6), np.uint8),
             np.zeros((6, 0), np.uint8)]
    for h, w in [(1, 1), (1, 9), (9, 1), (13, 17), (1, 200), (200, 1)]:
        masks += [np.zeros((h, w), np.uint8), np.full((h, w), 255, np.uint8),
                  (rng.random((h, w)) < 0.5).astype(np.uint8) * 255]
    for mask in masks:
        _assert_ccl_same(mask)
    # every pixel set is one component covering the page
    n, _, stats = connected_components_with_stats(np.full((13, 17), 255, np.uint8))
    assert n == 2 and stats[1].tolist() == [0, 0, 17, 13, 13 * 17]


def test_ccl_checkerboard_joins_by_diagonals():
    for h, w in [(2, 2), (7, 9), (31, 30)]:
        board = (np.add.outer(np.arange(h), np.arange(w)) % 2 == 0)
        mask = board.astype(np.uint8) * 255
        _assert_ccl_same(mask)
        assert len(connected_components_stats(mask)) == 2


def _serpentine(h, w):
    """Full-width bars on even rows, joined at alternating ends."""
    mask = np.zeros((h, w), np.uint8)
    mask[0::2, 1:-1] = 255
    mask[1::4, -2] = 255
    mask[3::4, 1] = 255
    return mask


def _comb(h, w):
    """Teeth hanging from a bottom spine: the first run of the component
    is a tooth tip, far from most runs in union order."""
    mask = np.zeros((h, w), np.uint8)
    mask[-1] = 255
    for k, x in enumerate(range(0, w, 2)):
        mask[h - 1 - (k * 7) % h :, x] = 255
    return mask


@pytest.mark.parametrize("build", [_serpentine, _comb])
def test_ccl_long_chains(build):
    for h, w in [(3, 5), (41, 12), (200, 37)]:
        mask = build(h, w)
        _assert_ccl_same(mask)
        assert len(connected_components_stats(mask)) == 2
        rot = np.ascontiguousarray(mask[::-1, ::-1])
        _assert_ccl_same(rot)


def test_ccl_rows_do_not_wrap():
    """A run that ends at column w - 1 and one that starts at column 0 on
    the next row are adjacent in a flat buffer, not on the page."""
    rng = np.random.default_rng(41)
    for w in [1, 2, 3, 4, 10, 33]:
        mask = np.zeros((12, w), np.uint8)
        mask[0::2, w - 1] = 255
        mask[1::2, 0] = 255
        _assert_ccl_same(mask)
        n = len(connected_components_stats(mask))
        assert n == (2 if w <= 2 else 13)
        for _ in range(10):
            mask = (rng.random((9, w)) < 0.3).astype(np.uint8) * 255
            mask[:, [0, w - 1]] = 255 * (rng.random((9, 2)) < 0.7)
            _assert_ccl_same(mask)


CCL_CALLERS = ["threshold", "metrics", "lines", "rotation", "borderless",
               "borderless.rlsa"]


@pytest.mark.parametrize("name", ["test.png", "dark.png", "borderless.png",
                                  "test.pdf"])
def test_ccl_and_cells_match_old_forms_on_fixture_intermediates(name, monkeypatch):
    """Every mask the page path labels (rotation, bordered and borderless
    detection) and every identify_cells input, against the old forms."""
    import importlib

    from img2table_ray.extract import cells
    from img2table_ray.extract.document import extract_tables_from_image

    masks, lines = [], []

    def recording(fn):
        def wrapper(binary):
            masks.append(binary.copy())
            return fn(binary)
        return wrapper

    for caller in CCL_CALLERS:
        module = importlib.import_module(f"img2table_ray.extract.{caller}")
        for entry in ("connected_components_with_stats", "connected_components_stats"):
            if hasattr(module, entry):
                monkeypatch.setattr(module, entry, recording(getattr(module, entry)))
    identify = cells.identify_cells

    def record_cells(h_lines_arr, v_lines_arr):
        lines.append((h_lines_arr.copy(), v_lines_arr.copy()))
        return identify(h_lines_arr, v_lines_arr)

    monkeypatch.setattr(cells, "identify_cells", record_cells)
    extract_tables_from_image(_fixture_rgb(name), implicit_rows=True,
                              borderless_tables=True, detect_rotation=True)
    assert len(masks) >= 5 and lines
    for mask in masks:
        _assert_ccl_same(mask)
    for h_arr, v_arr in lines:
        _assert_same(identify(h_arr, v_arr), _identify_cells_loop(h_arr, v_arr))


def _random_lines(rng, n, span):
    x1 = rng.integers(0, span, n)
    y = rng.integers(0, span, n)
    return np.stack([x1, y, x1 + rng.integers(0, span, n),
                     y + rng.integers(0, 3, n)], axis=1).astype(np.int64)


def _assert_cells_same(h_arr, v_arr):
    _assert_same(identify_cells(h_arr, v_arr), _identify_cells_loop(h_arr, v_arr))


def test_identify_cells_matches_loop_form_on_random_lines():
    """Few distinct coordinates, so equal y1 values, shared (x1, x2, y1)
    groups and duplicate delimiter x positions are common."""
    rng = np.random.default_rng(7)
    for _ in range(400):
        span = int(rng.choice([4, 12, 60, 400]))
        h_arr = _random_lines(rng, int(rng.integers(0, 25)), span)
        m = int(rng.integers(0, 15))
        xv = rng.choice(rng.integers(0, 2 * span, 4), m)
        yv = rng.integers(0, span, m)
        v_arr = np.stack([xv, yv, xv, yv + rng.integers(0, 2 * span, m)],
                         axis=1).astype(np.int64)
        _assert_cells_same(h_arr, v_arr)


def test_identify_cells_ratio_exactly_at_tolerance():
    """Left and right offsets of k / (50 k), exactly +-0.02 of the line
    width, and one unit either side of it."""
    rng = np.random.default_rng(13)
    for width in [50, 100, 150, 250, 350, 49, 51]:
        offsets = [-width // 50 - 1, -width // 50, 0, width // 50, width // 50 + 1]
        for _ in range(20):
            n = int(rng.integers(2, 8))
            x0 = 100 + rng.choice(offsets, n)
            x1 = x0 + width + rng.choice(offsets, n)
            y = np.sort(rng.choice(np.arange(0, 400, 40), n))
            h_arr = np.stack([x0, y, x1, y], axis=1).astype(np.int64)
            xv = np.array([100, 100 + width // 2, 100 + width, 100 + width])
            v_arr = np.stack([xv, np.zeros(4, int), xv, np.full(4, 400)],
                             axis=1).astype(np.int64)
            _assert_cells_same(h_arr, v_arr)
    # a 2 px offset on a 100 px line is exactly 0.02: the pair corresponds
    h_arr = np.array([[100, 0, 200, 0], [98, 50, 300, 50]], dtype=np.int64)
    v_arr = np.array([[100, 0, 100, 50], [200, 0, 200, 50]], dtype=np.int64)
    assert identify_cells(h_arr, v_arr).tolist() == [[100, 0, 200, 50]]


def test_identify_cells_keeps_seed_quirk():
    """The reference seeds both dedup passes with the key (0, 0, 0), so a
    first group with that key is dropped: the band x 0..0, y 0..10 would
    otherwise find delimiters at x = 0 and x = 3."""
    h_arr = np.array([[0, 0, 0, 0], [0, 10, 0, 10]], dtype=np.int64)
    v_arr = np.array([[0, 0, 0, 10], [3, 0, 3, 10]], dtype=np.int64)
    assert _identify_cells_loop(h_arr, v_arr).shape == (0, 4)
    _assert_cells_same(h_arr, v_arr)
    rng = np.random.default_rng(19)
    for _ in range(200):
        h_arr = np.concatenate([np.array([[0, 0, 0, 0]]),
                                _random_lines(rng, int(rng.integers(1, 8)), 6)])
        v_arr = np.stack([np.arange(4), np.zeros(4, int), np.arange(4),
                          np.full(4, 8)], axis=1).astype(np.int64)
        _assert_cells_same(h_arr, v_arr)


@pytest.mark.parametrize("name", BORDERLESS_FIXTURES)
def test_compute_img_metrics_leaves_thresh_unchanged(name):
    from img2table_ray.extract.metrics import compute_img_metrics
    from img2table_ray.extract.threshold import threshold_dark_areas

    thresh = threshold_dark_areas(img=_table_image(name).img, char_length=11)
    before = thresh.copy()
    assert compute_img_metrics(thresh=thresh)[0] is not None
    _assert_same(thresh, before)


# ---------------------------------------------------------------------------
# Page kernels on ink boxes (imgops/kernels.py ink_boxes, extract/threshold.py,
# extract/lines.py) against the full-page forms they replaced: the old
# ``threshold_dark_areas`` body and the old edge image of ``detect_lines``,
# verbatim.
# ---------------------------------------------------------------------------

def in_range_mask(img: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """cv2.inRange(img, lo, hi) -> 0/255 uint8."""
    return ((img >= lo) & (img <= hi)).view(np.uint8) * np.uint8(255)


def _threshold_dark_areas_full_page(img, char_length):
    """Sauvola threshold; dark-background regions get the inverted-image
    threshold patched in (ref tables/__init__.py:8-55).  Returns 0/255."""
    gray = kernels.rgb2gray(img)

    # If image is mainly black, invert
    if np.mean(gray) <= 127:
        gray = 255 - gray

    thresh_kernel = int(char_length) // 2 * 2 + 1

    on = kernels.sauvola_threshold(gray, thresh_kernel, k=0.2)
    thresh = on.view(np.uint8) * np.uint8(255)
    binary_thresh = None

    # Mask areas with dark background
    blur_size = min(255, int(2 * char_length) // 2 * 2 + 1)
    blur = kernels.gaussian_blur(gray, blur_size)
    mask = in_range_mask(blur, 0, 100)

    stats = connected_components_stats(mask)

    for idx, row in enumerate(stats):
        x, y, w, h, area = (int(v) for v in row)
        if idx == 0:
            continue
        if area / (w * h) >= 0.5 and min(w, h) >= char_length and max(w, h) >= 5 * char_length:
            if binary_thresh is None:
                inv_on = kernels.sauvola_threshold(255 - gray, thresh_kernel, k=0.2)
                binary_thresh = inv_on.view(np.uint8) * np.uint8(255)
            thresh[y : y + h, x : x + w] = binary_thresh[y : y + h, x : x + w]

    return thresh


def _edge_image_full_page(img):
    gray = kernels.bilateral3_gray(img, 40.0, 80.0)

    edge_img = kernels.laplacian3_abs(gray)
    return edge_img


def _patches(img, char_length):
    """How many dark components the full-page form patches."""
    gray = kernels.rgb2gray(img)
    if np.mean(gray) <= 127:
        gray = 255 - gray
    blur_size = min(255, int(2 * char_length) // 2 * 2 + 1)
    stats = connected_components_stats(in_range_mask(kernels.gaussian_blur(gray, blur_size), 0, 100))
    return sum(area / (w * h) >= 0.5 and min(w, h) >= char_length
               and max(w, h) >= 5 * char_length for x, y, w, h, area in stats[1:])


def _assert_page_same(img, char_lengths=(11,)):
    """The threshold (and its dark-area mask) at each char_length and the
    edge image of a page, exactly as the full-page forms give them."""
    from img2table_ray.extract.lines import edge_image
    from img2table_ray.extract.threshold import _dark_areas, threshold_dark_areas

    gray = kernels.rgb2gray(img)
    if np.mean(gray) <= 127:
        gray = 255 - gray
    for char_length in char_lengths:
        _assert_same(threshold_dark_areas(img, char_length),
                     _threshold_dark_areas_full_page(img, char_length))
        blur_size = min(255, int(2 * char_length) // 2 * 2 + 1)
        _assert_same(_dark_areas(gray, blur_size),
                     in_range_mask(kernels.gaussian_blur(gray, blur_size), 0, 100) > 0)
    _assert_same(edge_image(img), _edge_image_full_page(img))


def _ink(rng, shape, p=0.5, hi=256):
    """Random ink (values 0..hi-1) on a fraction p of a white page."""
    page = np.full(shape, 255, np.uint8)
    on = rng.random(shape[:2]) < p
    page[on] = rng.integers(0, hi, (int(on.sum()),) + shape[2:], dtype=np.uint8)
    return page


def test_ink_boxes_cover_set_pixels_and_join_gaps():
    rng = np.random.default_rng(61)
    for trial in range(200):
        h, w = (int(v) for v in rng.integers(1, 40, 2))
        mask = rng.random((h, w)) < rng.choice([0.0, 0.01, 0.05, 0.3])
        halo = int(rng.integers(0, 5))
        boxes = kernels.ink_boxes(mask, halo)
        covered = np.zeros_like(mask)
        for y0, y1, x0, x1 in boxes:
            assert 0 <= y0 < y1 <= h and 0 <= x0 < x1 <= w
            covered[y0:y1, x0:x1] = True
            # each box is its set pixels' bounding box grown by the halo
            ys, xs = np.nonzero(mask[y0:y1, x0:x1])
            assert (y0, y1) == (max(0, y0 + ys.min() - halo), min(h, y0 + ys.max() + 1 + halo))
            assert (x0, x1) == (max(0, x0 + xs.min() - halo), min(w, x0 + xs.max() + 1 + halo))
        assert not (mask & ~covered).any()
        # a channel axis sets a pixel where any channel is set
        channels = np.zeros((h, w, 3), bool)
        channels[..., int(rng.integers(0, 3))] = mask
        assert kernels.ink_boxes(channels, halo) == boxes
        # row-disjoint, in order, and apart by more than the joining gap
        for (_, a1, _, _), (b0, _, _, _) in zip(boxes, boxes[1:]):
            assert a1 < b0
    for halo in (0, 1, 2, 11):
        for gap, n_boxes in ((2 * halo, 1), (2 * halo + 1, 2)):
            mask = np.zeros((gap + 2, 3), bool)
            mask[0, 0] = mask[-1, 2] = True
            assert len(kernels.ink_boxes(mask, halo)) == n_boxes
    assert kernels.ink_boxes(np.zeros((5, 7), bool), 3) == []
    assert kernels.ink_boxes(np.zeros((0, 7), bool), 3) == []


def _random_box(rng, h, w):
    y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
    return y0, int(rng.integers(y0 + 1, h + 1)), x0, int(rng.integers(x0 + 1, w + 1))


def test_box_kernels_match_whole_page():
    """A box of each kernel is exactly that part of its whole-page result,
    through both borders and the repeated reflection of pages smaller than
    the kernel; boxes touch every border."""
    rng = np.random.default_rng(67)
    for img in _random_rgb(rng, 24, max_side=40):
        h, w = img.shape[:2]
        gray = _rgb2gray_fixed_point(img)
        boxes = [(0, h, 0, w), (0, 1, 0, 1), (h - 1, h, w - 1, w)]
        boxes += [_random_box(rng, h, w) for _ in range(4)]
        cases = [(kernels.sauvola_threshold, gray, (p,)) for p in (1, 3, 11, 23)]
        cases += [(kernels.gaussian_blur, gray, (p,)) for p in (1, 3, 23, 81)]
        cases += [(kernels.bilateral3_gray, img, ()), (kernels.bilateral3_gray, gray, ()),
                  (kernels.laplacian3_abs, gray, ())]
        for fn, src, args in cases:
            want = fn(src, *args)
            for y0, y1, x0, x1 in boxes:
                _assert_same(fn(src, *args, box=(y0, y1, x0, x1)), want[y0:y1, x0:x1])
        # the read window is the full image's index maps
        for (y0, y1, x0, x1), pad, mode in itertools.product(
                boxes, (0, 1, 5, 60), ("reflect", "edge")):
            rmap = np.pad(np.arange(h), pad, mode=mode)[y0 : y1 + 2 * pad]
            cmap = np.pad(np.arange(w), pad, mode=mode)[x0 : x1 + 2 * pad]
            _assert_same(kernels._window(gray, (y0, y1, x0, x1), pad, mode),
                         gray[rmap[:, None], cmap])


def test_blank_page():
    from img2table_ray.extract.lines import edge_image
    from img2table_ray.extract.threshold import threshold_dark_areas

    for img in (np.full((40, 70, 3), 255, np.uint8), np.full((40, 70), 255, np.uint8)):
        _assert_page_same(img, (6, 11, 40))
        assert not threshold_dark_areas(img, 11).any() and not edge_image(img).any()


@pytest.mark.parametrize("where", ["top", "bottom", "left", "right", "top-left",
                                   "top-right", "bottom-left", "bottom-right"])
def test_ink_touching_borders_and_corners(where):
    """A dark block and a lone pixel against each border and corner."""
    rng = np.random.default_rng(71)
    h, w = 90, 120
    ys = slice(0, 30) if "top" in where else slice(h - 30, h) if "bottom" in where else slice(30, 60)
    xs = slice(0, 70) if "left" in where else slice(w - 70, w) if "right" in where else slice(25, 95)
    for colour in (False, True):
        img = _ink(rng, (h, w, 3) if colour else (h, w), p=0.0)
        img[ys, xs] = rng.integers(0, 60, img[ys, xs].shape, dtype=np.uint8)
        img[ys, xs][::5, ::4] = 255
        _assert_page_same(img, (6, 11, 23))
        dot = np.full((h, w), 255, np.uint8)
        dot[ys.start if "bottom" not in where else h - 1,
            xs.start if "right" not in where else w - 1] = 0
        _assert_page_same(dot, (6, 11))


def test_thin_pages():
    """1x1, 1xN and Nx1 pages: white, black and random ink."""
    rng = np.random.default_rng(73)
    for shape in [(1, 1), (1, 2), (1, 57), (57, 1), (2, 1), (3, 90), (90, 3)]:
        for img in (np.full(shape, 255, np.uint8), np.zeros(shape, np.uint8),
                    _ink(rng, shape), _ink(rng, shape + (3,), p=0.3)):
            _assert_page_same(img, (1, 6, 11, 40))


def test_blur_wider_than_page():
    """char_length 40 blurs with a 81-pixel kernel: on a 30-pixel page the
    border maps reflect more than once."""
    rng = np.random.default_rng(79)
    for shape in [(30, 30), (30, 200), (200, 30)]:
        img = _ink(rng, shape, p=0.02)
        img[5:12, 3:26] = rng.integers(0, 90, (7, 23), dtype=np.uint8)
        _assert_page_same(img, (40, 90))


@pytest.mark.parametrize("char_length", [6, 11, 40])
def test_row_gaps_at_twice_the_halo(char_length):
    """Two inked rows whose gap is exactly 2 * halo rows (one box) and
    2 * halo + 1 rows (two boxes), for the dark-area blur's halo, the edge
    image's (2) and Sauvola's (0)."""
    radius = min(255, int(2 * char_length) // 2 * 2 + 1) // 2
    for halo in (radius, 2, 0):
        for gap in (2 * halo, 2 * halo + 1):
            for value in (0, 100, 200, 254):
                img = np.full((gap + 2 * halo + 30, 64), 255, np.uint8)
                y = halo + 10
                img[y, 5:50] = value
                img[y + gap + 1, 20:60] = value
                _assert_page_same(img, (char_length,))


def test_dark_page_is_inverted():
    rng = np.random.default_rng(83)
    img = np.zeros((120, 160), np.uint8)
    img[10:110:12, 10:150] = 255                       # light text lines
    img[60:70, 40:120] = rng.integers(0, 256, (10, 80), dtype=np.uint8)
    assert kernels.rgb2gray(img).mean() <= 127
    _assert_page_same(img, (6, 11))
    _assert_page_same(np.repeat(img[:, :, None], 3, axis=2), (11,))


def test_inverted_sauvola_patch():
    """A dark banner with light text, large enough for the dark-area test:
    the full-page form patches it with the inverted threshold."""
    rng = np.random.default_rng(89)
    img = _ink(rng, (200, 300), p=0.01)
    img[40:90, 20:280] = 30
    img[55:75, 40:260][:, ::7] = 230
    for char_length in (6, 11):
        assert _patches(img, char_length) >= 1
    _assert_page_same(img, (6, 11))
    tinted = np.repeat(img[:, :, None], 3, axis=2)
    tinted[150:160, 10:20, 0] = 0
    _assert_page_same(tinted, (11,))


def test_rgb_channel_at_254():
    """Pixels with one channel at 254 are white to the gray image but not to
    the edge image."""
    rng = np.random.default_rng(97)
    img = np.full((60, 80, 3), 255, np.uint8)
    for c in range(3):
        ys, xs = rng.integers(0, 60, 12), rng.integers(0, 80, 12)
        img[ys, xs, c] = 254
    img[0, 0, 2] = img[-1, -1, 0] = 254
    img[30:34, 10:70, 1] = 0
    assert kernels.rgb2gray(img).min() < 255
    _assert_page_same(img, (6, 11))
    faint = np.full((60, 80, 3), 255, np.uint8)
    faint[20, 30, 1] = faint[0, 79, 2] = 254
    _assert_page_same(faint, (11,))


def test_254_beside_white():
    rng = np.random.default_rng(101)
    img = np.full((70, 90), 255, np.uint8)
    img[rng.random((70, 90)) < 0.05] = 254
    img[0, :] = 254
    img[:, -1] = 254
    img[35, 40:60] = 0
    _assert_page_same(img, (6, 11))
    _assert_page_same(np.repeat(img[:, :, None], 3, axis=2), (11,))


def _corpus_pages(tmp_dir):
    """Every page of a 32-row generated ``pages`` table (PNG, multi-page
    PNG, PDF, baseline and arithmetic JPEG, LZW and fax TIFF, GIF, lossless
    and lossy WebP, the replicated fixtures), decoded as the page stages
    decode them."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq

    from img2table_ray.sources.pages import generate_pages
    from img2table_ray.stages.extractor import decode_page, explode_pages, probe_batch

    generate_pages(str(tmp_dir), 32, rows_per_file=64)
    table = pa.concat_tables([pq.read_table(f) for f in
                              sorted(glob.glob(f"{tmp_dir}/pages/*.parquet"))])
    rows = explode_pages(probe_batch(table))
    pages = {}
    for data, page, kind in zip(rows["html"].to_pylist(), rows["page"].to_pylist(),
                                rows["doc_kind"].to_pylist()):
        pages.setdefault((data, page), kind)
    return [(kind, decode_page(data, page)) for (data, page), kind in pages.items()]


def test_page_kernels_match_full_page_on_corpus(tmp_path):
    """The threshold at char_length 11 and at the page's own char_length,
    and the edge image, on every corpus page and vendored image fixture, as
    the page path passes them (an R == G == B page as its channel 0)."""
    from img2table_ray.extract.metrics import compute_img_metrics
    from img2table_ray.extract.threshold import threshold_dark_areas

    pages = _corpus_pages(tmp_path)
    kinds = {kind for kind, _ in pages}
    assert {"png", "jpeg", "tiff", "gif", "webp", "pdf"} <= kinds
    pages += [(name, _fixture_rgb(name)) for name in IMAGE_FIXTURES]
    for _, img in pages:
        if img.ndim == 3 and kernels._is_gray(img):
            img = np.ascontiguousarray(img[:, :, 0])
        char_length = compute_img_metrics(thresh=threshold_dark_areas(img, 11))[0]
        _assert_page_same(img, (11,) if char_length is None else (11, char_length))


# ---------------------------------------------------------------------------
# VP8 loop filter and chroma upsampler: the per-macroblock raster loop and
# the per-row upsampler that imgops/vp8.py replaced, verbatim.  Their
# docstrings are the old ones: batching whole MB rows or columns does change
# bits, while the anti-diagonal wavefront of ``_Recon.loop_filter`` keeps
# every two edge steps that share a pixel in raster order.
# ---------------------------------------------------------------------------


def _s8(x: np.ndarray) -> np.ndarray:
    # direct ufuncs (np.clip's wrapper dominates at filter-edge sizes)
    return np.maximum(np.minimum(x, 127), -128)


def _filter_limits(level: int, sharpness: int) -> tuple[int, int, int, int]:
    interior = level
    if sharpness:
        interior >>= 2 if sharpness > 4 else 1
        interior = min(interior, 9 - sharpness)
    interior = max(1, interior)
    hev = 2 if level >= 40 else (1 if level >= 15 else 0)  # keyframe rule
    mb_edge = (level + 2) * 2 + interior
    sub_edge = level * 2 + interior
    return interior, hev, mb_edge, sub_edge


def _clip_u8(x: np.ndarray) -> np.ndarray:
    """In-place clip of an owned temp to [0, 255] via direct ufuncs
    (np.clip's fromnumeric wrapper costs ~4x per call at 16-elem sizes)."""
    np.maximum(x, 0, out=x)
    np.minimum(x, 255, out=x)
    return x


def _normal_filter_edge(px: list[np.ndarray], interior: int, hev_t: int,
                        edge_limit: int, mb_edge: bool,
                        ext_mask=None) -> None:
    """Normal loop filter across one edge.  ``px`` is [p3..p0, q0..q3],
    eight int32 arrays (mutated in place — views write through),
    vectorized along the edge; ``ext_mask`` restricts application (used
    by the batched whole-frame passes)."""
    p3, p2, p1, p0, q0, q1, q2, q3 = px
    d0 = p0 - q0
    d1 = p1 - q1
    # early-outs, load-bearing for throughput on document images: a
    # uniform edge (d0 == d1 == 0 everywhere) filters to itself (every
    # update term is a function of w = 3*d0' + d1'), and an edge whose
    # outer threshold fails everywhere never writes
    if not d0.any() and not d1.any():
        return
    np.abs(d0, out=d0)
    np.abs(d1, out=d1)
    d1 >>= 1
    d0 *= 2
    d0 += d1
    thresh = d0 <= edge_limit
    if ext_mask is not None:
        thresh &= ext_mask
    if not thresh.any():
        return
    ap1p0 = np.abs(p1 - p0)
    aq1q0 = np.abs(q1 - q0)
    mask = thresh
    mask &= np.abs(p3 - p2) <= interior
    mask &= np.abs(p2 - p1) <= interior
    mask &= ap1p0 <= interior
    mask &= aq1q0 <= interior
    mask &= np.abs(q2 - q1) <= interior
    mask &= np.abs(q3 - q2) <= interior
    hev = ap1p0 > hev_t
    hev |= aq1q0 > hev_t
    # signed-8-bit domain
    P1, P0, Q0, Q1 = p1 - 128, p0 - 128, q0 - 128, q1 - 128
    qp = Q0 - P0
    qp *= 3
    w = _s8(P1 - Q1)
    w += qp
    w = _s8(w)  # == both branches' w (identical expression, RFC §15.3)
    f1 = _s8(w + 4)
    f1 >>= 3
    f2 = _s8(w + 3)
    f2 >>= 3
    # the signed-domain round trip cancels exactly in the updates:
    # clip(Q0 - f + 128) == clip(q0 - f) etc. in int32 arithmetic
    use = mask & hev
    if use.any():
        q0[use] = _clip_u8(q0[use] - f1[use])
        p0[use] = _clip_u8(p0[use] + f2[use])
    use2 = mask
    use2 &= ~hev
    if not use2.any():
        return
    if mb_edge:
        a1 = 27 * w
        a1 += 63
        a1 >>= 7
        a2 = 18 * w
        a2 += 63
        a2 >>= 7
        a3 = 9 * w
        a3 += 63
        a3 >>= 7
        q0[use2] = _clip_u8(q0[use2] - a1[use2])
        p0[use2] = _clip_u8(p0[use2] + a1[use2])
        q1[use2] = _clip_u8(q1[use2] - a2[use2])
        p1[use2] = _clip_u8(p1[use2] + a2[use2])
        q2[use2] = _clip_u8(q2[use2] - a3[use2])
        p2[use2] = _clip_u8(p2[use2] + a3[use2])
    else:
        ws = _s8(qp)  # qp == 3*(Q0-P0), unshared since _s8 copies
        f1s = _s8(ws + 4)
        f1s >>= 3
        f2s = _s8(ws + 3)
        f2s >>= 3
        q0[use2] = _clip_u8(q0[use2] - f1s[use2])
        p0[use2] = _clip_u8(p0[use2] + f2s[use2])
        f1s += 1
        f1s >>= 1
        q1[use2] = _clip_u8(q1[use2] - f1s[use2])
        p1[use2] = _clip_u8(p1[use2] + f1s[use2])


def _simple_filter_edge(px: list[np.ndarray], edge_limit: int,
                        ext_mask=None) -> None:
    """Simple loop filter (Y only): adjusts p0/q0."""
    p1, p0, q0, q1 = px
    d0 = p0 - q0
    d1 = p1 - q1
    if not d0.any() and not d1.any():  # uniform edge: w == 0, no-op
        return
    np.abs(d0, out=d0)
    np.abs(d1, out=d1)
    d1 >>= 1
    d0 *= 2
    d0 += d1
    mask = d0 <= edge_limit
    if ext_mask is not None:
        mask &= ext_mask
    if not mask.any():
        return
    P1, P0, Q0, Q1 = p1 - 128, p0 - 128, q0 - 128, q1 - 128
    qp = Q0 - P0
    qp *= 3
    w = _s8(P1 - Q1)
    w += qp
    w = _s8(w)
    f1 = _s8(w + 4)
    f1 >>= 3
    f2 = _s8(w + 3)
    f2 >>= 3
    # ±128 signed-domain shift cancels exactly in int32 updates
    q0[mask] = _clip_u8(q0[mask] - f1[mask])
    p0[mask] = _clip_u8(p0[mask] + f2[mask])


def _filter_mb_normal(p: np.ndarray, y0: int, x0: int, size: int,
                      lims: tuple, fin: bool, left_edge: bool,
                      top_edge: bool) -> None:
    """Normal-profile filtering of one MB's edges in libwebp's DoFilter
    order: left MB edge, interior vertical edges, top MB edge, interior
    horizontal edges.  The per-MB raster schedule is load-bearing: a
    top edge writes into the MB above, whose pixels the NEXT column's
    left edge reads, so neither rows nor columns can be batched without
    changing results (a column-batched variant was tried and produced
    real chroma diffs vs libwebp).  Throughput comes from the edge
    kernels' early-outs instead."""
    interior, hev_t, mb_lim, sub_lim = lims
    if left_edge:
        px = [p[y0 : y0 + size, x0 + k] for k in range(-4, 4)]
        _normal_filter_edge(px, interior, hev_t, mb_lim, True)
    if fin:
        for sx in range(4, size, 4):
            px = [p[y0 : y0 + size, x0 + sx + k] for k in range(-4, 4)]
            _normal_filter_edge(px, interior, hev_t, sub_lim, False)
    if top_edge:
        px = [p[y0 + k, x0 : x0 + size] for k in range(-4, 4)]
        _normal_filter_edge(px, interior, hev_t, mb_lim, True)
    if fin:
        for sy in range(4, size, 4):
            px = [p[y0 + sy + k, x0 : x0 + size] for k in range(-4, 4)]
            _normal_filter_edge(px, interior, hev_t, sub_lim, False)


def _filter_mb_simple(p: np.ndarray, y0: int, x0: int, lims: tuple,
                      fin: bool, left_edge: bool, top_edge: bool) -> None:
    """Simple-profile filtering (Y plane only), same per-MB edge order."""
    _, _, mb_lim, sub_lim = lims
    if left_edge:
        px = [p[y0 : y0 + 16, x0 + k] for k in range(-2, 2)]
        _simple_filter_edge(px, mb_lim)
    if fin:
        for sx in range(4, 16, 4):
            px = [p[y0 : y0 + 16, x0 + sx + k] for k in range(-2, 2)]
            _simple_filter_edge(px, sub_lim)
    if top_edge:
        px = [p[y0 + k, x0 : x0 + 16] for k in range(-2, 2)]
        _simple_filter_edge(px, mb_lim)
    if fin:
        for sy in range(4, 16, 4):
            px = [p[y0 + sy + k, x0 : x0 + 16] for k in range(-2, 2)]
            _simple_filter_edge(px, sub_lim)


def _loop_filter_raster(self, mb_levels: np.ndarray, sharpness: int,
                       simple: bool, inner: np.ndarray) -> None:
    """Apply the in-loop filter in the RFC/libwebp MB raster order:
    for each MB — left edge, interior vertical edges, top edge,
    interior horizontal edges.  The order is load-bearing for
    bit-exactness (edges share pixels with their neighbours), so no
    whole-frame batching here; each edge op is still vectorized
    along its 16/8-pixel extent."""
    mb_h, mb_w = mb_levels.shape
    y = self.y[1:, 1:]
    u = self.u[1:, 1:]
    v = self.v[1:, 1:]
    limit_cache: dict[int, tuple] = {}
    for mby in range(mb_h):
        for mbx in range(mb_w):
            level = int(mb_levels[mby, mbx])
            if level <= 0:
                continue
            lims = limit_cache.get(level)
            if lims is None:
                lims = limit_cache[level] = _filter_limits(level,
                                                           sharpness)
            fin = bool(inner[mby, mbx])
            if simple:
                _filter_mb_simple(y, mby * 16, mbx * 16, lims,
                                  fin, mbx > 0, mby > 0)
            else:
                _filter_mb_normal(y, mby * 16, mbx * 16, 16, lims,
                                  fin, mbx > 0, mby > 0)
                _filter_mb_normal(u, mby * 8, mbx * 8, 8, lims,
                                  fin, mbx > 0, mby > 0)
                _filter_mb_normal(v, mby * 8, mbx * 8, 8, lims,
                                  fin, mbx > 0, mby > 0)


def _fancy_upsample_loop(c: np.ndarray, h: int, w: int) -> np.ndarray:
    """libwebp's "fancy" 4:2:0 chroma upsampler (upsampling.c), exact
    integer arithmetic: half-phase bilinear built from the per-pair
    diagonal averages, borders mirrored.  ``c`` is the (ceil(h/2),
    ceil(w/2)) chroma plane; returns the (h, w) upsampled plane."""
    c = c.astype(np.int32)
    ch, cw = c.shape
    out = np.empty((h, w), np.int32)

    def row_pair(tr: np.ndarray, cr: np.ndarray):
        """One chroma row pair -> (top_row, bottom_row) of length w."""
        tl, t = tr[:-1], tr[1:]
        l_, cu = cr[:-1], cr[1:]
        avg = tl + t + l_ + cu + 8
        diag12 = (avg + 2 * (t + l_)) >> 3
        diag03 = (avg + 2 * (tl + cu)) >> 3
        top = np.empty(w, np.int32)
        bot = np.empty(w, np.int32)
        top[0] = (3 * tr[0] + cr[0] + 2) >> 2
        bot[0] = (3 * cr[0] + tr[0] + 2) >> 2
        n = len(tl)  # pairs
        top[1 : 2 * n : 2] = (diag12 + tl) >> 1
        top[2 : 2 * n + 1 : 2] = (diag03 + t) >> 1
        bot[1 : 2 * n : 2] = (diag03 + l_) >> 1
        bot[2 : 2 * n + 1 : 2] = (diag12 + cu) >> 1
        if w % 2 == 0:
            top[w - 1] = (3 * tr[-1] + cr[-1] + 2) >> 2
            bot[w - 1] = (3 * cr[-1] + tr[-1] + 2) >> 2
        return top, bot

    # first output row mirrors chroma row 0 against itself
    out[0], _ = row_pair(c[0], c[0])
    for k in range(1, ch):
        top, bot = row_pair(c[k - 1], c[k])
        if 2 * k - 1 < h:
            out[2 * k - 1] = top
        if 2 * k < h:
            out[2 * k] = bot
    if h % 2 == 0 and h >= 2:
        out[h - 1], _ = row_pair(c[ch - 1], c[ch - 1])
    return out


def _vp8_content(rng, shape, kind):
    """Int32 pixels in [0, 255] that make the loop filter fire: 4x4
    blocks on a random walk with small steps (most edges pass the
    limits), with per-pixel noise, with a few sharp steps, flat, or
    uniformly random (most edges fail)."""
    h, w = shape
    if kind == "flat":
        return np.full(shape, int(rng.integers(0, 256)), np.int32)
    if kind == "random":
        return rng.integers(0, 256, shape).astype(np.int32)
    walk = np.cumsum(rng.integers(-6, 7, ((h + 3) // 4, (w + 3) // 4)), 1)
    walk += np.cumsum(rng.integers(-6, 7, (walk.shape[0], 1)), 0)
    img = 128 + np.kron(walk, np.ones((4, 4), np.int64))[:h, :w]
    if kind == "noisy":
        img += rng.integers(-3, 4, shape)
    if kind == "steps":
        img[rng.random(shape) < 0.02] += 90
    return np.clip(img, 0, 255).astype(np.int32)


def _vp8_frame(rng, mb_h, mb_w, kind):
    rec = vp8._Recon(mb_w, mb_h)
    for plane in (rec.y, rec.u, rec.v):
        plane[...] = _vp8_content(rng, plane.shape, kind)
    return rec


def _assert_loop_filter_same(rec, levels, sharpness, simple, inner):
    want = vp8._Recon(rec.mb_w, rec.mb_h)
    want.buf[...] = rec.buf
    _loop_filter_raster(want, levels, sharpness, simple, inner)
    rec.loop_filter(levels, sharpness, simple, inner)
    _assert_same(rec.buf, want.buf)
    return want.buf


VP8_GRIDS = [(1, 1), (1, 2), (2, 1), (1, 7), (7, 1), (2, 2), (3, 5), (5, 3),
             (4, 9), (9, 4)]
VP8_CONTENT = ["walk", "noisy", "steps", "flat", "random"]


@pytest.mark.parametrize("simple", [False, True])
def test_loop_filter_matches_raster_form(simple):
    rng = np.random.default_rng(23 + simple)
    changed = 0
    for mb_h, mb_w in VP8_GRIDS:
        for kind in VP8_CONTENT:
            for _ in range(2):
                rec = _vp8_frame(rng, mb_h, mb_w, kind)
                before = rec.buf.copy()
                levels = rng.integers(1, 64, (mb_h, mb_w)).astype(np.int32)
                levels[rng.random((mb_h, mb_w)) < 0.2] = 0
                inner = rng.random((mb_h, mb_w)) < 0.6
                sharpness = int(rng.integers(0, 8))
                after = _assert_loop_filter_same(rec, levels, sharpness,
                                                 simple, inner)
                changed += not np.array_equal(after, before)
    assert changed > 40  # the filter did work, not only early-outs


@pytest.mark.parametrize("sharpness", range(8))
def test_loop_filter_matches_raster_form_per_sharpness(sharpness):
    """Every level 0..63 once per frame, both profiles, all-inner and
    no-inner MBs, on content whose edges mostly pass the limits."""
    rng = np.random.default_rng(sharpness)
    for simple in (False, True):
        for inner_p in (0.0, 1.0, 0.5):
            rec = _vp8_frame(rng, 8, 8, "walk")
            levels = rng.permutation(64).reshape(8, 8).astype(np.int32)
            inner = rng.random((8, 8)) < inner_p
            _assert_loop_filter_same(rec, levels, sharpness, simple, inner)


def test_filter_limits_match_scalar_form():
    levels = np.arange(64, dtype=np.int32).reshape(8, 8)
    inner = np.ones((8, 8), bool)
    for sharpness in range(8):
        got = vp8._filter_limits(levels, sharpness, inner)
        for level in range(1, 64):
            assert tuple(got[:, level]) == _filter_limits(level, sharpness)
        assert got[2, 0] == got[3, 0] == -1  # level 0: no edge passes
    got = vp8._filter_limits(levels, 0, ~inner)
    assert (got[3] == -1).all() and (got[2, 1:] >= 0).all()


def test_loop_filter_on_codec_frames_matches_raster_form():
    """The surfaces and per-MB levels the encoder produces (intra
    prediction plus quantization noise), filtered both ways."""
    captured = []
    real = vp8._Recon.loop_filter

    def capture(self, levels, sharpness, simple, inner):
        captured.append((self.buf.copy(), self.mb_w, self.mb_h, levels,
                         inner))
        real(self, levels, sharpness, simple, inner)

    rng = np.random.default_rng(5)
    img = np.kron(rng.integers(0, 256, (12, 14, 3)),
                  np.ones((6, 6, 1), np.int64)).astype(np.uint8)
    vp8._Recon.loop_filter = capture
    try:
        for qindex in (5, 40, 100):
            vp8.encode_vp8(img, qindex=qindex)
    finally:
        vp8._Recon.loop_filter = real
    for buf, mb_w, mb_h, levels, inner in captured:
        for sharpness, simple in ((0, False), (3, False), (6, True)):
            rec = vp8._Recon(mb_w, mb_h)
            rec.buf[...] = buf
            _assert_loop_filter_same(rec, levels, sharpness, simple, inner)


def test_loop_filter_memory_is_per_wave():
    """The working set is one wave's segments, not index state for the
    whole frame: the traced peak while filtering a 2048x2048 frame stays
    below the size of its Y surface."""
    import tracemalloc

    rng = np.random.default_rng(11)
    rec = _vp8_frame(rng, 128, 128, "noisy")
    levels = np.full((128, 128), 30, np.int32)
    inner = np.ones((128, 128), bool)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rec.loop_filter(levels, 0, False, inner)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rec.y.nbytes, (peak, rec.y.nbytes)


def test_fancy_upsample_matches_loop_form():
    rng = np.random.default_rng(29)
    shapes = [(h, w) for h in range(1, 10) for w in range(1, 10)]
    shapes += [tuple(int(v) for v in rng.integers(1, 300, 2))
               for _ in range(60)]
    for h, w in shapes:
        c = rng.integers(0, 256, ((h + 1) // 2, (w + 1) // 2)).astype(np.uint8)
        _assert_same(vp8._fancy_upsample_plane(c, h, w),
                     _fancy_upsample_loop(c, h, w))
