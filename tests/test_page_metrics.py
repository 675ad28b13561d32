"""The metrics layer and the page's component tests against their loop forms.

``extract/metrics.py`` (``remove_dots``, ``remove_dotted_lines``,
``filter_cc``, ``recompute_contours``, ``get_row_separations``),
``extract/threshold.py:dark_patches`` and
``extract/borderless/rlsa.py:remove_noise`` test every component at once
over the stats array.  The per-component loops they replaced live here as
oracles, verbatim, and every array form must give the same output, dtype
and order on:

* seeded random stats, with coordinates drawn from small ranges so that
  ties land on every threshold: equal midpoints and midpoint steps of
  exactly 2, overlaps of exactly half a character, w/h of exactly 2,
  overlaps of exactly ``char_length // 2``;
* empty and one-row inputs;
* the inputs each function receives on the fixture pages, captured on the
  page path;
* the broadcasts of ``recompute_contours`` and ``get_row_separations``
  with their block constant patched small, so that rows cross block seams.
"""

from __future__ import annotations

import numpy as np
import pytest

from img2table_ray.extract import metrics, threshold
from img2table_ray.extract.borderless import rlsa
from img2table_ray.extract.borderless.rlsa import remove_noise
from img2table_ray.extract.metrics import (
    filter_cc,
    get_row_separations,
    recompute_contours,
    remove_dots,
    remove_dotted_lines,
)
from img2table_ray.extract.threshold import dark_patches
from img2table_ray.imgops.ccl import connected_components_with_stats

PAGES = ("test.png", "dark.png", "borderless.png", "contours.png", "titles.jpg")


# --- loop forms -------------------------------------------------------------


def _remove_dots_loop(cc_labels, stats):
    kept = []
    for idx in range(1, len(stats)):
        x, y, w, h, area = (int(v) for v in stats[idx])
        roundness = 4 * area / (np.pi * max(h, w) ** 2)
        if roundness < 0.7:
            kept.append([x, y, w, h, area])
            continue
        sub = cc_labels[y : y + h, x : x + w] == idx
        inner = 0
        rows_any = sub.any(axis=1)
        if rows_any.any():
            first = sub.argmax(axis=1)
            last = w - 1 - sub[:, ::-1].argmax(axis=1)
            cnt = sub.sum(axis=1)
            inner += int(((last - first + 1 - cnt) * rows_any).sum())
        cols_any = sub.any(axis=0)
        if cols_any.any():
            firstc = sub.argmax(axis=0)
            lastc = h - 1 - sub[::-1, :].argmax(axis=0)
            cntc = sub.sum(axis=0)
            inner += int(((lastc - firstc + 1 - cntc) * cols_any).sum())
        if not (inner / (2 * area) <= 0.1 and roundness >= 0.7):
            kept.append([x, y, w, h, area])
    return np.array(kept, dtype=np.int32) if kept else np.empty((0, 5), dtype=np.int32)


def _line_areas_loop(complete_stats):
    line_areas = []

    cs = complete_stats[complete_stats[:, 6].argsort(kind="stable")]
    x1a, y1a, x2a, y2a, width_a, prev_ym, count = 0, 0, 0, 0, 0, -10, 0
    for idx in range(cs.shape[0]):
        x, y, w, h, _, xm, ym = cs[idx]
        if w / h < 2:
            continue
        if ym - prev_ym <= 2:
            x1a, y1a, x2a, y2a = min(x, x1a), min(y, y1a), max(x + w, x2a), max(y + h, y2a)
            width_a += w
            count += 1
            prev_ym = ym
        else:
            if count >= 5 and width_a / ((x2a - x1a) or 1) >= 0.66:
                line_areas.append([float(x1a), float(y1a), float(x2a), float(y2a)])
            x1a, y1a, x2a, y2a = x, y, x + w, y + h
            width_a, prev_ym, count = w, ym, 1
    if count >= 5 and width_a / ((x2a - x1a) or 1) >= 0.66:
        line_areas.append([float(x1a), float(y1a), float(x2a), float(y2a)])

    cs = complete_stats[complete_stats[:, 5].argsort(kind="stable")]
    x1a, y1a, x2a, y2a, height_a, prev_xm, count = 0, 0, 0, 0, 0, -10, 0
    for idx in range(cs.shape[0]):
        x, y, w, h, _, xm, ym = cs[idx]
        if h / w < 2:
            continue
        if xm - prev_xm <= 2:
            x1a, y1a, x2a, y2a = min(x, x1a), min(y, y1a), max(x + w, x2a), max(y + h, y2a)
            height_a += h
            count += 1
            prev_xm = xm
        else:
            if count >= 5 and height_a / ((y2a - y1a) or 1) >= 0.66:
                line_areas.append([float(x1a), float(y1a), float(x2a), float(y2a)])
            x1a, y1a, x2a, y2a = x, y, x + w, y + h
            height_a, prev_xm, count = h, xm, 1
    if count >= 5 and height_a / ((y2a - y1a) or 1) >= 0.66:
        line_areas.append([float(x1a), float(y1a), float(x2a), float(y2a)])
    return line_areas


def _remove_dotted_lines_loop(complete_stats):
    line_areas = _line_areas_loop(complete_stats)
    if not line_areas:
        return complete_stats[:, :5].astype(np.int32)

    areas = np.array(line_areas)
    x = complete_stats[:, 0]
    y = complete_stats[:, 1]
    w = complete_stats[:, 2]
    h = complete_stats[:, 3]
    x_ov = np.maximum(
        0, np.minimum(areas[None, :, 2], (x + w)[:, None]) - np.maximum(areas[None, :, 0], x[:, None])
    )
    y_ov = np.maximum(
        0, np.minimum(areas[None, :, 3], (y + h)[:, None]) - np.maximum(areas[None, :, 1], y[:, None])
    )
    inter = (x_ov * y_ov).sum(axis=1)
    keep = inter / (w * h) < 0.25
    kept = complete_stats[keep][:, :5]
    return kept.astype(np.int32) if len(kept) else np.empty((0, 5), dtype=np.int32)


def _filter_cc_loop(stats):
    if stats.shape[0] == 0:
        return np.empty((0, 5), dtype=np.int32), np.empty((0, 5), dtype=np.int32)
    w = stats[:, 2].astype(np.float64)
    h = stats[:, 3].astype(np.float64)
    area = stats[:, 4].astype(np.float64)
    ar = np.maximum(w, h) / np.minimum(w, h)
    fill = area / (w * h)
    first_keep = (ar <= 5) & (fill > 0.08)
    kept_stats = stats[first_keep]
    discarded = [list(map(int, r)) for r in stats[~first_keep]]

    if len(kept_stats) == 0:
        return (np.empty((0, 5), dtype=np.int32),
                np.array(discarded, dtype=np.int32) if discarded else np.empty((0, 5), dtype=np.int32))

    median_w = np.median(kept_stats[:, 2])
    median_h = np.median(kept_stats[:, 3])
    upper = 5 * median_w * median_h
    lower = 0.2 * median_w * median_h

    kw = kept_stats[:, 2].astype(np.float64)
    kh = kept_stats[:, 3].astype(np.float64)
    bounded = (lower <= kw * kh) & (kw * kh <= upper)
    is_dash = (kw / kh >= 2) & (0.5 * median_w <= kw) & (kw <= 1.5 * median_w)
    final_keep = bounded | is_dash

    kept = kept_stats[final_keep]
    discarded += [list(map(int, r)) for r in kept_stats[~final_keep]]
    kept_arr = kept.astype(np.int32) if len(kept) else np.empty((0, 5), dtype=np.int32)
    disc_arr = (np.array(discarded, dtype=np.int32) if discarded
                else np.empty((0, 5), dtype=np.int32))
    return kept_arr, disc_arr


def _recompute_contours_loop(stats, chars_array):
    if chars_array.shape[0] == 0:
        return np.empty((0, 4), dtype=np.int64)
    cx = chars_array[:, 0].astype(np.int64)
    cy = chars_array[:, 1].astype(np.int64)
    cw = chars_array[:, 2].astype(np.int64)
    ch = chars_array[:, 3].astype(np.int64)
    out = []
    for idx in range(stats.shape[0]):
        if idx == 0:
            continue
        x, y, w, h = (int(v) for v in stats[idx][:4])
        x_ov = np.maximum(0, np.minimum(x + w, cx + cw) - np.maximum(x, cx))
        y_ov = np.maximum(0, np.minimum(y + h, cy + ch) - np.maximum(y, cy))
        match = x_ov * y_ov >= 0.5 * ch * cw
        if match.any():
            out.append([int(cx[match].min()), int(cy[match].min()),
                        int((cx + cw)[match].max() - cx[match].min()),
                        int((cy + ch)[match].max() - cy[match].min())])
    return np.array(out, dtype=np.int64) if out else np.empty((0, 4), dtype=np.int64)


def _get_row_separations_loop(stats, char_length):
    seps = []
    n = len(stats)
    xs = stats[:, 0]
    ys = stats[:, 1]
    ws = stats[:, 2]
    hs = stats[:, 3]
    vpos = (2 * ys + hs) / 2
    for i in range(n):
        xi, yi, wi, hi = xs[i], ys[i], ws[i], hs[i]
        h_overlap = np.minimum(xi + hi, xs + hs) - np.maximum(xi, xs)
        mask = (h_overlap > char_length // 2) & (vpos > vpos[i])
        mask[i] = False
        if mask.any():
            seps.append(float((vpos[mask] - vpos[i]).min()))
    return seps


def _dark_patches_loop(stats, char_length):
    out = []
    for idx, row in enumerate(stats):
        x, y, w, h, area = (int(v) for v in row)
        if idx == 0:
            continue
        if area / (w * h) >= 0.5 and min(w, h) >= char_length and max(w, h) >= 5 * char_length:
            out.append([x, y, w, h])
    return out


def _remove_noise_loop(cc, cc_stats, average_height, median_width):
    for idx in range(1, len(cc_stats)):
        x, y, w, h, area = (int(v) for v in cc_stats[idx])
        is_dash = (w / h >= 2) and (0.5 * median_width <= w <= 1.5 * median_width)
        if is_dash:
            continue
        cond_height = h < average_height / 3
        cond_elongation = max(h, w) / max(min(h, w), 1) < 0.33
        cond_low_density = area / (max(w, 1) * max(h, 1)) < 0.08
        if cond_height or cond_elongation or cond_low_density:
            sub = cc[y : y + h, x : x + w]
            sub[sub == idx] = 0
    return cc


# --- comparisons ------------------------------------------------------------


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def _check_remove_dots(cc_labels, stats):
    _same(remove_dots(cc_labels, stats), _remove_dots_loop(cc_labels, stats))


def _check_remove_dotted_lines(complete_stats):
    _same(remove_dotted_lines(complete_stats),
          _remove_dotted_lines_loop(complete_stats))


def _check_filter_cc(stats):
    for got, want in zip(filter_cc(stats), _filter_cc_loop(stats)):
        _same(got, want)


def _check_recompute_contours(stats, chars_array):
    _same(recompute_contours(stats, chars_array),
          _recompute_contours_loop(stats, chars_array))


def _check_row_separations(stats, char_length):
    got = get_row_separations(stats, char_length)
    assert got == _get_row_separations_loop(stats, char_length)
    assert all(type(v) is float for v in got)


def _check_dark_patches(stats, char_length):
    assert dark_patches(stats, char_length).tolist() == \
        _dark_patches_loop(stats, char_length)


def _check_remove_noise(cc, cc_stats, average_height, median_width):
    want = _remove_noise_loop(cc.copy(), cc_stats, average_height, median_width)
    got = cc.copy()
    assert remove_noise(got, cc_stats, average_height, median_width) is got
    _same(got, want)


def _complete(stats):
    """``stats`` with its x and y midpoints, as compute_char_length builds
    the input of remove_dotted_lines."""
    return np.c_[stats, (2 * stats[:, 0] + stats[:, 2]) / 2,
                 (2 * stats[:, 1] + stats[:, 3]) / 2]


def _random_stats(rng, n, span=40, side=8, background=False):
    """(n, 5) int32 stats with coordinates in [0, span), sides in
    [1, side] and area in [1, w * h]; row 0 is a page-sized background
    when ``background``."""
    x, y = rng.integers(0, span, n), rng.integers(0, span, n)
    w, h = rng.integers(1, side + 1, n), rng.integers(1, side + 1, n)
    area = np.ceil(rng.random(n) * w * h).astype(np.int64).clip(1)
    stats = np.stack([x, y, w, h, area], axis=1).astype(np.int32)
    if background:
        stats = np.r_[[[0, 0, span + side, span + side, 0]], stats].astype(np.int32)
    return stats


def _dotted_stats(rng, n_lines=6):
    """Stats holding dotted rules: runs of elongated CCs whose midpoints
    step by 0, 1, 2 or 3 (w/h and h/w often exactly 2), among noise."""
    rows = []
    for _ in range(n_lines):
        vertical = rng.random() < 0.5
        k = int(rng.integers(3, 9))
        base, along = int(rng.integers(0, 60)), int(rng.integers(0, 60))
        for j in range(k):
            short = int(rng.integers(1, 4))
            length = short * int(rng.choice([2, 2, 3, 4])) + int(rng.integers(0, 2))
            off = base + int(rng.choice([0, 0, 1, 2, 2, 3]))
            gap = along + j * (length + int(rng.integers(0, 4)))
            x, y, w, h = ((gap, off, length, short) if not vertical
                          else (off, gap, short, length))
            rows.append([x, y, w, h, w * h])
            base = off
    rows = np.array(rows, dtype=np.int32).reshape(-1, 5)
    stats = np.r_[rows, _random_stats(rng, int(rng.integers(0, 20)), span=80)]
    return stats[rng.permutation(len(stats))].astype(np.int32)


def _random_labels(rng, shape=(48, 64), density=0.3):
    """A CCL label image and its stats, with some discs and rings drawn in
    (they are the round CCs remove_dots inspects)."""
    h, w = shape
    mask = rng.random(shape) < density
    yy, xx = np.mgrid[:h, :w]
    for _ in range(int(rng.integers(0, 6))):
        cy, cx, r = rng.integers(0, h), rng.integers(0, w), rng.integers(2, 8)
        d = np.hypot(yy - cy, xx - cx)
        ring = d <= r if rng.random() < 0.5 else (d <= r) & (d >= r - 1.5)
        mask |= ring
    _, labels, stats = connected_components_with_stats(mask.view(np.uint8) * np.uint8(255))
    return labels, stats


# --- seeded random inputs ---------------------------------------------------


def test_remove_dots_matches_loop_form():
    removed = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        labels, stats = _random_labels(rng, density=rng.choice([0.02, 0.1, 0.4]))
        _check_remove_dots(labels, stats)
        removed += len(stats) - 1 - len(_remove_dots_loop(labels, stats))
    assert removed > 0  # some round CCs were inspected and dropped


def test_remove_dotted_lines_matches_loop_form():
    for seed in range(200):
        rng = np.random.default_rng(seed)
        stats = _dotted_stats(rng) if seed % 4 else _random_stats(rng, 60, span=30)
        _check_remove_dotted_lines(_complete(stats))


def test_dotted_cases_are_covered():
    """The random dotted stats find line areas through steps of 0 and
    exactly 2, runs of exactly 5 and w/h of exactly 2."""
    steps, found, fives, two = set(), 0, 0, 0
    for seed in range(200):
        if seed % 4 == 0:
            continue
        cs = _complete(_dotted_stats(np.random.default_rng(seed)))
        found += len(_line_areas_loop(cs)) > 0
        long = cs[cs[:, 2] / cs[:, 3] >= 2]
        two += int((long[:, 2] == 2 * long[:, 3]).sum())
        ym = np.sort(long[:, 6])
        steps |= set(np.diff(ym).tolist())
        runs = np.split(ym, np.flatnonzero(np.diff(ym) > 2) + 1)
        fives += sum(len(r) == 5 for r in runs)
    assert {0.0, 2.0} <= steps and found > 50 and fives > 0 and two > 0


def test_filter_cc_matches_loop_form():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        _check_filter_cc(_random_stats(rng, int(rng.integers(1, 80)), side=int(rng.integers(2, 30))))


def test_recompute_contours_matches_loop_form():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        stats = _random_stats(rng, int(rng.integers(1, 40)), side=16, background=True)
        chars = _random_stats(rng, int(rng.integers(1, 60)), side=6)
        _check_recompute_contours(stats, chars)


def test_recompute_contours_ties_at_half_a_character():
    """Overlaps of exactly 0.5 * ch * cw count as a match."""
    ties = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        stats = _random_stats(rng, int(rng.integers(1, 40)), side=16, background=True)
        chars = _random_stats(rng, int(rng.integers(1, 60)), side=6)
        s, c = stats[1:, None, :4].astype(np.int64), chars[None, :, :4].astype(np.int64)
        x_ov = np.maximum(0, np.minimum(s[..., 0] + s[..., 2], c[..., 0] + c[..., 2])
                          - np.maximum(s[..., 0], c[..., 0]))
        y_ov = np.maximum(0, np.minimum(s[..., 1] + s[..., 3], c[..., 1] + c[..., 3])
                          - np.maximum(s[..., 1], c[..., 1]))
        ties += int((x_ov * y_ov == 0.5 * c[..., 3] * c[..., 2]).sum())
    assert ties > 100


def test_row_separations_match_loop_form():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        stats = _random_stats(rng, int(rng.integers(1, 60)), side=12)[:, :4].astype(np.int64)
        for char_length in (1.0, 4.0, 5.0, 7.5, 11.0):
            _check_row_separations(stats, char_length)


def test_row_separations_ties():
    """Equal vpos (never a separation) and 'horizontal' overlaps of
    exactly char_length // 2 (not enough) both occur."""
    equal = at_bound = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        stats = _random_stats(rng, int(rng.integers(1, 60)), side=12)[:, :4].astype(np.int64)
        x, y, h = stats[:, 0], stats[:, 1], stats[:, 3]
        vpos = (2 * y + h) / 2
        ov = np.minimum(x[:, None] + h[:, None], x + h) - np.maximum(x[:, None], x)
        equal += int((vpos[:, None] == vpos).sum() - len(stats))
        at_bound += int((ov == 5.0 // 2).sum())
    assert equal > 0 and at_bound > 0


def test_dark_patches_match_loop_form():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        stats = _random_stats(rng, int(rng.integers(1, 40)), span=200, side=60, background=True)
        for char_length in (3, 5.5, 11):
            _check_dark_patches(stats, char_length)


def test_dark_patch_bounds():
    """Fill of exactly 0.5, a short side of exactly char_length and a long
    side of exactly 5 * char_length all patch; one less of each does not."""
    stats = np.array([[0, 0, 100, 100, 0],
                      [0, 0, 10, 50, 250], [0, 0, 50, 10, 249],
                      [0, 0, 9, 50, 450], [0, 0, 10, 49, 490]], dtype=np.int32)
    assert dark_patches(stats, 10).tolist() == [[0, 0, 10, 50]]
    _check_dark_patches(stats, 10)


def test_remove_noise_matches_loop_form():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        labels, stats = _random_labels(rng, density=rng.choice([0.05, 0.2, 0.5]))
        _check_remove_noise(labels, stats, float(np.mean(stats[1:, 3])) if len(stats) > 1 else 1.0,
                            float(np.median(stats[1:, 2])) if len(stats) > 1 else 1.0)
        # boxes painted with their labels, stats drawn at random: dashes with
        # w/h of exactly 2 and widths on the median's 0.5 / 1.5 bounds
        stats = _random_stats(rng, int(rng.integers(1, 30)), span=40, side=8, background=True)
        stats[1::3, 2] = 2 * stats[1::3, 3]
        cc = np.zeros((48, 48), dtype=np.int32)
        for label in range(1, len(stats)):
            x, y, w, h, _ = stats[label]
            cc[y : y + h, x : x + w] = label
        _check_remove_noise(cc, stats, float(rng.uniform(1, 9)), float(rng.choice([4.0, 6.0, 8.0])))


# --- empty and one-row inputs -----------------------------------------------


def test_empty_and_one_row_inputs():
    empty5 = np.empty((0, 5), dtype=np.int32)
    background = np.array([[0, 0, 10, 10, 90]], dtype=np.int32)
    one = np.array([[2, 3, 4, 2, 8]], dtype=np.int32)
    labels = np.zeros((10, 10), dtype=np.int32)
    _check_remove_dots(labels, background)
    labels[3:5, 2:6] = 1
    _check_remove_dots(labels, np.r_[background, one])
    for stats in (empty5, one, np.array([[0, 0, 6, 3, 18]], dtype=np.int32)):
        _check_remove_dotted_lines(_complete(stats))
        _check_filter_cc(stats)
    # the first elongated CC opens a run even at the smallest midpoint
    rule = np.array([[3 * k, 0, 2, 1, 2] for k in range(6)], dtype=np.int32)
    assert _line_areas_loop(_complete(rule)) == [[0.0, 0.0, 17.0, 1.0]]
    _check_remove_dotted_lines(_complete(rule))
    for chars in (empty5, one):
        for stats in (background, np.r_[background, one]):
            _check_recompute_contours(stats, chars)
    for stats in (np.empty((0, 4), dtype=np.int64), one[:, :4].astype(np.int64)):
        _check_row_separations(stats, 11.0)
    for stats in (background, np.r_[background, one]):
        _check_dark_patches(stats, 1)
        _check_remove_noise(labels.copy(), stats, 3.0, 4.0)


# --- block seams ------------------------------------------------------------


@pytest.mark.parametrize("pairs", [1, 7, 64])
def test_blocked_broadcasts_match_loop_form(pairs, monkeypatch):
    monkeypatch.setattr(metrics, "BLOCK_PAIRS", pairs)
    for seed in range(30):
        rng = np.random.default_rng(seed)
        stats = _random_stats(rng, int(rng.integers(1, 40)), side=16, background=True)
        chars = _random_stats(rng, int(rng.integers(1, 60)), side=6)
        _check_recompute_contours(stats, chars)
        _check_row_separations(stats[:, :4].astype(np.int64), 5.0)


# --- inputs captured on the fixture pages ----------------------------------


def _capture(monkeypatch, module, name, check, seen):
    """Wrap ``module.name`` so that every call also runs ``check`` on
    copies of its arguments, and appends ``name`` to ``seen``."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        copies = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
        kw = {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in kwargs.items()}
        check(*copies, **kw)
        seen.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("page", PAGES)
def test_page_inputs_match_loop_forms(page, monkeypatch):
    from img2table_ray.extract.document import TableImage
    from img2table_ray.fixtures import fixture_bytes
    from img2table_ray.imgops.png import decode_image

    checks = [(metrics, "remove_dots", _check_remove_dots),
              (metrics, "remove_dotted_lines", _check_remove_dotted_lines),
              (metrics, "filter_cc", _check_filter_cc),
              (metrics, "recompute_contours", _check_recompute_contours),
              (metrics, "get_row_separations", _check_row_separations),
              (threshold, "dark_patches", _check_dark_patches),
              (rlsa, "remove_noise", _check_remove_noise)]
    seen = []
    for module, name, check in checks:
        _capture(monkeypatch, module, name, check, seen)
    TableImage(decode_image(fixture_bytes(page))).extract_tables(
        implicit_rows=True, borderless_tables=True)
    assert {"remove_dots", "recompute_contours", "get_row_separations",
            "dark_patches", "remove_noise"} <= set(seen)
