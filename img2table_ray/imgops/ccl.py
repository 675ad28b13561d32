"""Connected-component labeling with stats — numpy/run-based replacement for
cv2.connectedComponentsWithStats(img, 8, CV_32S).

Runs come from one flat transition scan: the mask is written into a zeroed
bool buffer with one leading cell and one trailing zero column per row, so
a run that ends at a row's end cannot join the next row, and every
``p[k] != p[k+1]`` is a run start (even positions) or a run end (odd
positions); ``divmod`` by the padded width gives row and column.  Runs are
unioned across adjacent rows (8-connectivity: x-ranges within +-1) by a
vectorized hook-and-jump: each edge hooks its larger label onto the smaller
and pointers jump until nothing moves.  Labels only move down, so each
component's root is its first run in raster order, and a cumsum over the
roots numbers components in top-left first-appearance order — OpenCV's
observable order (background = 0).

``connected_components_stats`` returns only the stats, for callers that
never read the label image; ``connected_components_with_stats`` also paints
the labels, as (n_labels, labels, stats).  stats[i] = [x, y, w, h, area]
like cv2, stats[0] the background row covering the full image.
"""

from __future__ import annotations

import numpy as np


def _count_le(hay: np.ndarray, q: np.ndarray) -> np.ndarray:
    """For ascending ``hay`` and strictly ascending ``q``: how many of
    ``hay`` are <= each ``q``.  A stable sort of the two runs is one linear
    merge that puts ties from ``hay`` first; query k lands after k queries."""
    order = np.argsort(np.concatenate([hay, q]), kind="stable")
    return np.flatnonzero(order >= len(hay)) - np.arange(len(q))


def _components(binary: np.ndarray):
    """(w1, starts, ends, comp, n_comp): runs as flat positions in the
    (h, w + 1) padded raster (ends exclusive) and their 1-based component."""
    h, w = binary.shape
    w1 = w + 1
    p = np.zeros(h * w1 + 1, dtype=bool)
    np.greater(binary, 0, out=p[1:].reshape(h, w1)[:, :w])
    edges = np.flatnonzero(p[1:] != p[:-1])
    starts = edges[0::2]
    ends = edges[1::2]
    n_runs = len(starts)

    # for every run, the index range of previous-row runs whose x-interval
    # touches it (diagonal contact included): shifting a run down one row
    # adds w1 to its flat positions, and the zero column keeps rows apart
    lo = _count_le(ends + w1, starts - 1)
    counts = np.maximum(_count_le(starts + w1, ends) - lo, 0)
    total_pairs = int(counts.sum())
    parent = np.arange(n_runs, dtype=np.int64)
    if total_pairs:
        a_idx = np.repeat(np.arange(n_runs), counts)
        b_idx = (np.arange(total_pairs)
                 + np.repeat(lo - np.cumsum(counts) + counts, counts))
        # Vectorized min-label union (Shiloach–Vishkin shape): hook each
        # edge's larger current label onto the smaller, then pointer-jump
        # to compress; O(E) numpy work per round, rounds ~ O(log n).
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

    # parent[i] <= i throughout, so a component's root is its smallest
    # (first in raster order) run: rank the roots by a running count
    rank = np.cumsum(parent == np.arange(n_runs))
    comp = rank[parent]
    n_comp = int(rank[-1]) if n_runs else 0
    return w1, starts, ends, comp, n_comp


def _stats(h: int, w: int, w1: int, starts, ends, comp, n_comp: int) -> np.ndarray:
    run_row, run_x1 = np.divmod(starts, w1)
    run_x2 = ends - run_row * w1
    x1s = np.full(n_comp + 1, w, dtype=np.int64)
    x2s = np.zeros(n_comp + 1, dtype=np.int64)
    y1s = np.full(n_comp + 1, h, dtype=np.int64)
    y2s = np.zeros(n_comp + 1, dtype=np.int64)
    np.minimum.at(x1s, comp, run_x1)
    np.maximum.at(x2s, comp, run_x2)
    np.minimum.at(y1s, comp, run_row)
    np.maximum.at(y2s, comp, run_row + 1)
    areas = np.bincount(comp, weights=run_x2 - run_x1,
                        minlength=n_comp + 1).astype(np.int64)

    stats = np.zeros((n_comp + 1, 5), dtype=np.int32)
    stats[0] = [0, 0, w, h, h * w - int(areas[1:].sum())]
    stats[1:, 0] = x1s[1:]
    stats[1:, 1] = y1s[1:]
    stats[1:, 2] = x2s[1:] - x1s[1:]
    stats[1:, 3] = y2s[1:] - y1s[1:]
    stats[1:, 4] = areas[1:]
    return stats


def connected_components_stats(binary: np.ndarray) -> np.ndarray:
    """The stats of ``connected_components_with_stats``, without building
    the label image (n_labels == len(stats))."""
    h, w = binary.shape
    return _stats(h, w, *_components(binary))


def connected_components_with_stats(binary: np.ndarray):
    h, w = binary.shape
    w1, starts, ends, comp, n_comp = _components(binary)
    stats = _stats(h, w, w1, starts, ends, comp, n_comp)

    # label image: vectorized run expansion, no per-run Python (a run's
    # pixel k sits at row * w + x1 + k, and starts - row == row * w + x1)
    run_len = ends - starts
    base = starts - starts // w1 - (np.cumsum(run_len) - run_len)
    labels = np.zeros(h * w, dtype=np.int32)
    labels[np.arange(int(run_len.sum())) + np.repeat(base, run_len)] = \
        np.repeat(comp.astype(np.int32), run_len)
    return n_comp + 1, labels.reshape(h, w), stats
