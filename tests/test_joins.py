"""Edge-case pins for the custom join/window operators (pipelines/joins.py).

The driver-contract test already compares all three against their DuckDB
oracles on the sf0.001 corpus; these tests pin the semantics the corpus may
never exercise: the as-of tie-break and inner-drop rules, multi-band
membership in the overlapping interval join, and exact window membership
in the sliding-window aggregate.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from img2table_ray.pipelines import joins


def _write_events(tmp_path, rows):
    df = pd.DataFrame(
        rows,
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )
    df["ts"] = pd.to_datetime(df["ts"]).astype("datetime64[us]")
    df["props"] = ""
    df.to_parquet(tmp_path / "events.parquet", index=False)
    return str(tmp_path)


def test_asof_tiebreak_and_inner_semantics(tmp_path, ray_session):
    t = "2026-01-01 00:00:"
    sf = _write_events(
        tmp_path,
        [
            # user 1: two clicks at the SAME ts 10, purchase at ts 10
            # (exact match allowed) -> larger event_id (102) wins the tie.
            (101, t + "10", 1, "click", 0.0),
            (102, t + "10", 1, "click", 0.0),
            (200, t + "10", 1, "purchase", 1.0),
            # user 1: later purchase still sees the ts-10 clicks.
            (201, t + "30", 1, "purchase", 1.0),
            # user 2: purchase BEFORE its only click -> dropped (inner).
            (300, t + "05", 2, "purchase", 1.0),
            (301, t + "20", 2, "click", 0.0),
            # user 3: clicks only -> contributes no output rows.
            (400, t + "01", 3, "click", 0.0),
        ],
    )
    out = joins.asof_join(sf).to_pandas().sort_values("event_id"
                                                      ).reset_index(drop=True)
    assert list(out["event_id"]) == [200, 201]
    assert list(out["click_event_id"]) == [102, 102]
    assert list(out["gap_us"]) == [0, 20_000_000]


def test_asof_key_never_crosses_buckets(tmp_path, ray_session):
    # users hashing to different buckets must each see only their own
    # history: same timestamps, interleaved users.
    t = "2026-01-01 00:00:"
    rows = []
    for u in range(1, 34):  # spans > shuffle_width(min_width=16) buckets
        rows.append((u * 10, t + "05", u, "click", 0.0))
        rows.append((u * 10 + 1, t + "09", u, "purchase", 1.0))
    sf = _write_events(tmp_path, rows)
    out = joins.asof_join(sf).to_pandas()
    assert len(out) == 33
    assert (out["click_event_id"] == out["event_id"] - 1).all()


def test_range_join_overlap_and_nesting(tmp_path):
    # 2500.0 lies in band 0 AND nested band 4; 17000.0 in bands 0 AND 1;
    # 400.0 in none; 20000.0 is exclusive of band 0's hi and inside band 1.
    df = pd.DataFrame({"l_extendedprice": [2500.0, 17000.0, 400.0, 20000.0]})
    df.to_parquet(tmp_path / "lineitem.parquet", index=False)
    out = joins.range_join(str(tmp_path))
    got = {int(r.band_id): (int(r.n_items), float(r.sum_price))
           for r in out.itertuples()}
    assert got == {
        0: (2, 19500.0),
        1: (2, 37000.0),
        4: (1, 2500.0),
    }


def test_sliding_window_membership(tmp_path, ray_session):
    # One event belongs to exactly window/hop = 4 hopping windows: the ones
    # starting at floor(ts/hop)*hop - k*hop, k in 0..3.
    sf = _write_events(
        tmp_path, [(1, "2026-01-01 02:07:00", 1, "view", 2.5)]
    )
    out = joins.sliding_window(sf).to_pandas()
    assert len(out) == 4
    starts = sorted(out["window_start"])
    assert starts == [
        pd.Timestamp(f"2026-01-01 {h}")
        for h in ("01:15:00", "01:30:00", "01:45:00", "02:00:00")
    ]
    assert (out["n_events"] == 1).all()
    assert np.allclose(out["sum_value"], 2.5)


def test_sliding_window_partials_combine(tmp_path, ray_session):
    # Two events in the same hop slot must combine into single rows per
    # window even when they arrive in different batches/partials.
    sf = _write_events(
        tmp_path,
        [
            (1, "2026-01-01 02:07:00", 1, "view", 1.0),
            (2, "2026-01-01 02:08:00", 2, "view", 2.0),
        ],
    )
    out = joins.sliding_window(sf).to_pandas()
    assert len(out) == 4
    assert (out["n_events"] == 2).all()
    assert np.allclose(out["sum_value"], 3.0)


def test_asof_carry_in_across_time_buckets(tmp_path, ray_session):
    # click 3 days (3 buckets) before the purchase, nothing in between:
    # the per-user stitch must carry the latest earlier-bucket right in.
    # A second, even older click must lose to the more recent one, and a
    # click AFTER the purchase (in a later bucket) must never match.
    sf = _write_events(
        tmp_path,
        [
            (10, "2026-01-01 08:00:00", 1, "click", 0.0),
            (11, "2026-01-02 09:00:00", 1, "click", 0.0),
            (20, "2026-01-05 12:00:00", 1, "purchase", 1.0),
            (30, "2026-01-07 00:00:00", 1, "click", 0.0),
        ],
    )
    out = joins.asof_join(sf).to_pandas()
    assert len(out) == 1
    assert out["event_id"].iloc[0] == 20
    assert out["click_event_id"].iloc[0] == 11
    assert out["gap_us"].iloc[0] == 3 * 24 * 3600 * 1_000_000 + 3 * 3600 * 1_000_000


def test_asof_in_bucket_match_beats_carry_in(tmp_path, ray_session):
    # a click in the purchase's own bucket is more recent than any
    # carried-in click from earlier buckets
    sf = _write_events(
        tmp_path,
        [
            (10, "2026-01-01 08:00:00", 1, "click", 0.0),
            (11, "2026-01-05 10:00:00", 1, "click", 0.0),
            (20, "2026-01-05 12:00:00", 1, "purchase", 1.0),
        ],
    )
    out = joins.asof_join(sf).to_pandas()
    assert list(out["click_event_id"]) == [11]


def test_asof_hot_user_groups_stay_bounded(tmp_path, ray_session):
    # one bot user with events spread over many buckets: every stage-1
    # group holds one bucket's activity, and the result still matches a
    # serial reference computation
    import numpy as np

    n = 20_000
    rng = np.random.RandomState(3)
    ts = pd.Timestamp("2026-01-01") + pd.to_timedelta(
        np.sort(rng.randint(0, 30 * 24 * 3600, n)), unit="s")
    kinds = np.where(np.arange(n) % 5 == 0, "purchase", "click")
    rows = [(i, t, 1, k, 0.0) for i, (t, k) in enumerate(zip(ts, kinds))]
    sf = _write_events(tmp_path, rows)
    out = joins.asof_join(sf).to_pandas().sort_values("event_id"
                                                      ).reset_index(drop=True)
    # serial reference: most recent click at-or-before each purchase
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id",
                                     "event_type", "value"])
    df["ts"] = pd.to_datetime(df["ts"]).astype("datetime64[us]")
    clicks = df[df["event_type"] == "click"].sort_values(
        ["ts", "event_id"], kind="stable")
    purch = df[df["event_type"] == "purchase"].sort_values("ts",
                                                           kind="stable")
    ref = pd.merge_asof(purch[["event_id", "ts"]],
                        clicks[["ts", "event_id"]].rename(
                            columns={"event_id": "click_event_id"}),
                        on="ts", direction="backward")
    ref = ref[ref["click_event_id"].notna()]
    assert len(out) == len(ref)
    merged = out.merge(ref[["event_id", "click_event_id"]], on="event_id",
                       suffixes=("", "_ref"))
    assert (merged["click_event_id"]
            == merged["click_event_id_ref"].astype("int64")).all()


@pytest.mark.parametrize("unit", ["s", "ms", "us", "ns"])
def test_asof_tagger_buckets_from_arrow_microseconds(unit):
    """tbucket counts microseconds whatever the unit of the Arrow ts
    column and whatever unit to_pandas would hand back; a bucket outside
    the 2**22 key packing, past it or before 1970, is refused rather than
    folded into a neighbouring user's keys."""
    import pyarrow as pa

    span_us = joins.ASOF_BUCKET_HOURS * 3600 * 1_000_000
    ts = pd.to_datetime(["2024-03-01 10:00", "2024-03-01 11:30",
                         "2024-03-02 00:00"]).astype(f"datetime64[{unit}]")
    batch = pa.table({
        "event_id": pa.array([1, 2, 3], pa.int64()),
        "user_id": pa.array([7, 7, 8], pa.int64()),
        "ts": pa.array(ts, pa.timestamp(unit)),
        "event_type": ["purchase", "view", "click"],
    })
    out = joins._asof_tagger("purchase", "click", span_us)(batch)
    us = ts.values.astype("datetime64[us]").astype("int64")
    assert out["event_id"].tolist() == [1, 3]
    assert out["tbucket"].tolist() == [int(us[0]) // span_us, int(us[2]) // span_us]
    assert out["side"].tolist() == [0, 1]

    for bad in (1 << 22, -1):
        g = pd.DataFrame({
            "kind": [1, 2], "tbucket": [bad, 3], "user_id": [7, 7],
            "event_id": [1, 0], "ts": ts[:2], "click_event_id": [0, 2],
            "click_ts": ts[:2],
        })
        with pytest.raises(ValueError, match="2\\*\\*22"):
            joins._asof_stitch(g)
