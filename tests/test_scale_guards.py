"""Scale-design guards: quality pins and sizing rules that CI must hold.

* IVF recall pin — ``ann_ivf_topk`` is approximate by design (rows-only in
  the driver's gate), so its quality is pinned HERE: recall@10 >= 0.9
  against the exact ``ann_topk`` baseline on the test embeddings.
* ``shuffle_width`` — the pre-groupby coalesce width must be derived from
  cluster size (a hardcode silently becomes TB-blocks on a real cluster).
* ``tag_part_batch`` — a path-lookup miss must route rows to sentinel
  part -1, never fail the read task.
"""

from __future__ import annotations

import pyarrow as pa

SF_DIR = "/root/testdata/sf0.001"


def test_ivf_recall_at_10(ray_session):
    from img2table_ray.pipelines.similarity import ann_ivf_topk, ann_topk

    exact = ann_topk(SF_DIR).to_pandas()
    approx = ann_ivf_topk(SF_DIR).to_pandas()
    exact_sets = {q: set(g["vec_id"]) for q, g in exact.groupby("query_id")}
    approx_sets = {q: set(g["vec_id"]) for q, g in approx.groupby("query_id")}
    assert set(exact_sets) == set(approx_sets)
    hits = total = 0
    for q, want in exact_sets.items():
        hits += len(want & approx_sets[q])
        total += len(want)
    recall = hits / total
    assert recall >= 0.9, f"IVF recall@10 degraded: {recall:.3f} < 0.9"


def test_shuffle_width_scales_with_cluster(monkeypatch):
    import img2table_ray.stages.util as util

    monkeypatch.setattr(util.ray, "cluster_resources", lambda: {"CPU": 32.0})
    assert util.shuffle_width() == 8  # local sweet spot preserved
    monkeypatch.setattr(util.ray, "cluster_resources", lambda: {"CPU": 2048.0})
    assert util.shuffle_width() == 512  # grows with the cluster
    monkeypatch.setattr(util.ray, "cluster_resources", lambda: {"CPU": 4.0})
    assert util.shuffle_width() == 8  # floored


def test_tag_part_miss_routes_to_sentinel():
    from img2table_ray.pipelines.extraction import tag_part_batch

    batch = pa.table({
        "url": ["a", "b"],
        "html": [b"x", b"y"],
        "path": ["/data/pages/pages_0000.parquet",
                 "/data/pages/renamed_shard.parquet"],
    })
    out = tag_part_batch(batch, {"pages_0000.parquet": 0})
    assert out.column("part").to_pylist() == [0, -1]
    assert "path" not in out.schema.names


def test_stats_shards_bound_memory_per_part(ray_session):
    """StatsShards: partitions spread over K collectors, counts are
    idempotent per row, and drop_part releases a published partition's
    dedup seen-set (the r3 unbounded-single-actor finding)."""
    from img2table_ray.state.stats import StatsShards

    shards = StatsShards(num_shards=2)
    rows = []
    for part in range(4):
        for i in range(10):
            rows.append((f"{part}:{i}".encode(), part, 1, 1, 0, "png"))
    shards.add_rows(rows)
    shards.add_rows(rows)  # duplicate push: must not double-count
    shards.flush()  # sends are fire-and-forget; drain before reading

    totals = shards.totals()
    assert {p: c[0] for p, c in totals.items()} == {0: 10, 1: 10, 2: 10, 3: 10}
    assert shards.seen_sizes() == {0: 10, 1: 10, 2: 10, 3: 10}
    # parts spread over both shards (part % K)
    import ray as _ray
    per_shard = _ray.get([s.seen_sizes.remote() for s in shards.shards])
    assert sorted(set(p for d in per_shard for p in d)) == [0, 1, 2, 3]
    assert all(d for d in per_shard)

    shards.drop_part(1)
    shards.drop_part(2)
    shards.flush()
    assert shards.seen_sizes() == {0: 10, 3: 10}
    assert set(shards.totals()) == {0, 3}  # published parts freed entirely


def test_stats_add_rows_is_async_and_flush_drains(ray_session):
    """add_rows must not block on the collector RPC (VERDICT r4 §next-3):
    the hot path submits and moves on, pending refs stay bounded at
    MAX_INFLIGHT per process, and flush() is a complete drain barrier —
    totals after flush reflect every send, including the final
    unacknowledged ones."""
    from img2table_ray.state.stats import MAX_INFLIGHT, StatsShards

    shards = StatsShards(num_shards=2)
    n_batches = 4 * MAX_INFLIGHT  # far past the in-flight bound
    for b in range(n_batches):
        rows = [(f"{b}:{i}".encode(), b % 4, 1, 1, 0, "png")
                for i in range(5)]
        shards.add_rows(rows)
        assert len(shards._pending()) <= MAX_INFLIGHT + 2
    shards.flush()
    totals = shards.totals()
    assert sum(c[0] for c in totals.values()) == n_batches * 5

    # the pending-ref list must never ride a pickle into a worker
    import pickle

    clone = pickle.loads(pickle.dumps(shards))
    assert "_pending_refs" not in clone.__dict__
    clone.add_rows([(b"x", 0, 1, 1, 0, "png")])
    shards.flush()
    assert sum(c[0] for c in shards.totals().values()) == n_batches * 5 + 1


def test_sessionize_hot_user_bounded_groups(ray_session, tmp_path,
                                            monkeypatch):
    """VERDICT r4 §next-5: one bot-grade user with 10^6 events must not
    form one unbounded pandas group.  Every call that ``sessionize`` makes
    through ``map_key_groups`` is observed: the raw events reach the calls
    keyed on (user_id, 24 h bucket), which together see all of the hot
    user's events but never all of them in one call; the seam stitch
    reassembles the single long session exactly."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    import img2table_ray.pipelines.relational as relational
    from img2table_ray.pipelines.relational import sessionize

    n_bot = 1_000_000
    bot_ts = pd.Timestamp("2025-01-01") + pd.to_timedelta(
        np.arange(n_bot), unit="m")  # 1-min cadence: one endless session
    # a normal user whose two sessions straddle a bucket seam with a
    # >30 min gap (must NOT merge) and one pair straddling with <=30 min
    # (MUST merge)
    u2_ts = pd.to_datetime([
        "2025-01-01 23:50", "2025-01-02 00:10",   # seam, gap 20m -> merge
        "2025-01-02 12:00",                        # gap 11h50m -> new
        "2025-01-02 23:00", "2025-01-03 00:30",   # seam, gap 90m -> new
    ])
    df = pd.DataFrame({
        "user_id": np.concatenate([np.full(n_bot, 7), np.full(5, 9)]),
        "ts": np.concatenate([bot_ts.values, u2_ts.values]),
        "value": 1.0,
    })
    pq.write_table(pa.Table.from_pandas(df), str(tmp_path / "events.parquet"))

    # the structural guard: each grouped call logs (its keys, its rows of
    # user 7) from the worker that runs it
    log = tmp_path / "calls.log"
    real = relational.map_key_groups

    def observed(ds, keys, fn, width):
        def logged(g):
            with open(log, "a") as f:
                f.write(f"{'+'.join(keys)} {int((g['user_id'] == 7).sum())}\n")
            return fn(g)
        return real(ds, keys, logged, width)

    monkeypatch.setattr(relational, "map_key_groups", observed)
    out = sessionize(str(tmp_path)).to_pandas()
    calls = [line.split() for line in log.read_text().splitlines()]
    hot = [int(n) for k, n in calls if "bucket" in k.split("+")]
    assert sum(hot) == n_bot  # the raw events went through the bucketed calls
    assert max(hot) < n_bot  # ... and no call held the whole history
    assert all(int(n) < n_bot for _, n in calls)
    bot = out[out["user_id"] == 7]
    assert len(bot) == 1  # stitched back into ONE session across ~695 seams
    assert bot.iloc[0]["session_id"] == 0
    assert bot.iloc[0]["n_events"] == n_bot
    assert bot.iloc[0]["session_start"] == bot_ts[0]
    assert bot.iloc[0]["session_end"] == bot_ts[-1]
    assert bot.iloc[0]["sum_value"] == float(n_bot)

    u2 = out[out["user_id"] == 9].sort_values("session_id")
    assert list(u2["n_events"]) == [2, 1, 1, 1]
    assert list(u2["session_id"]) == [0, 1, 2, 3]
    assert u2.iloc[0]["session_end"] == pd.Timestamp("2025-01-02 00:10")
