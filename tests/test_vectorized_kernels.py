"""Differential pins for vectorized kernels against their loop forms.

The vectorized implementations (imgops/ccl.py, extract/metrics.py,
extract/borderless/whitespaces.py, extract/borderless/rlsa.py) replaced
straight ports of the reference's numba kernels.  Each test re-states the LOOP form inline
(matching the reference line-for-line) and asserts bit-identical output
on randomized inputs, so any future change to the vectorized code that
drifts from the reference semantics fails here rather than only in the
end-to-end goldens.
"""

from __future__ import annotations

import numpy as np
import pytest

from img2table_ray.extract.borderless import rlsa
from img2table_ray.extract.borderless.whitespaces import compute_whitespaces
from img2table_ray.extract.metrics import create_character_thresh
from img2table_ray.imgops.ccl import connected_components_with_stats
from img2table_ray.imgops.kernels import window_sum


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
    images = [full, empty, part, empty[:1], empty[:, :1], full[:1], empty[:0]]
    for img in images:
        for mw in OBSTACLE_WIDTHS + [img.shape[1], img.shape[1] + 1]:
            assert np.array_equal(rlsa.find_obstacles(img, mw),
                                  _find_obstacles_loop(img, mw))


BORDERLESS_FIXTURES = ["borderless.png", "test.png", "dark.png"]


def _table_image(name):
    from img2table_ray.extract.document import TableImage
    from img2table_ray.fixtures import fixture_bytes
    from img2table_ray.imgops.png import decode_image

    return TableImage(img=decode_image(fixture_bytes(name)))


@pytest.mark.parametrize("name", BORDERLESS_FIXTURES)
def test_rlsa_matches_loop_form_on_fixture_intermediates(name, monkeypatch):
    """Every adaptive_rlsa / find_obstacles input the borderless path builds
    for a vendored page, checked against the loop forms."""
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
