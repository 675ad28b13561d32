"""The bucketed event operators give the same rows whatever their slot
count.

``sessionize``, ``asof_join``, ``sliding_window`` and
``distinct_users_daily`` send each key to one of ``shuffle_width()``
slots and process a slot per call.  Which keys share a slot is a sizing
detail: with every key in one slot, or spread over 64, the outputs must be
identical.  The events put two users' sessions interleaved in time (so
one call sees both) and straddle the 24 h bucket seam with a 20 min gap
(one session) and a 40 min gap (two sessions).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from img2table_ray.pipelines import joins, relational


def _events(tmp_path) -> str:
    day = "2026-02-01 "
    nxt = "2026-02-02 "
    crafted = [
        # users 1 and 2 alternate inside the same hour
        (1, day + "10:00", "click"), (2, day + "10:05", "click"),
        (1, day + "10:10", "purchase"), (2, day + "10:15", "purchase"),
        (1, day + "10:20", "view"), (2, day + "10:25", "click"),
        # seam: user 1 gap 20 min (merges), user 2 gap 40 min (splits)
        (1, day + "23:50", "click"), (1, nxt + "00:10", "purchase"),
        (2, day + "23:40", "click"), (2, nxt + "00:20", "purchase"),
    ]
    rng = np.random.RandomState(11)
    n = 3000
    rand_ts = pd.Timestamp("2026-02-01") + pd.to_timedelta(
        rng.randint(0, 3 * 24 * 3600, n), unit="s")
    users = rng.randint(3, 300, n)
    types = np.array(["click", "purchase", "view"])[rng.randint(0, 3, n)]
    df = pd.DataFrame({
        "user_id": np.concatenate([[u for u, _, _ in crafted], users]),
        "ts": np.concatenate([pd.to_datetime([t for _, t, _ in crafted]),
                              rand_ts]),
        "event_type": np.concatenate([[e for _, _, e in crafted], types]),
    })
    df["ts"] = df["ts"].astype("datetime64[us]")
    df.insert(0, "event_id", np.arange(len(df), dtype="int64"))
    df["value"] = rng.randint(1, 1000, len(df)) / 8.0
    df["props"] = ""
    df.to_parquet(tmp_path / "events.parquet", index=False,
                  row_group_size=500)
    return str(tmp_path)


def _run_all(sf: str) -> dict:
    out = {
        "sessionize": relational.sessionize(sf).to_pandas(),
        "asof_join": joins.asof_join(sf).to_pandas(),
        "sliding_window": joins.sliding_window(sf).to_pandas(),
        "distinct_users_daily": relational.distinct_users_daily(sf),
    }
    return {k: df.sort_values(list(df.columns)).reset_index(drop=True)
            for k, df in out.items()}


def test_slot_count_does_not_change_outputs(tmp_path, ray_session,
                                            monkeypatch):
    sf = _events(tmp_path)
    runs = {}
    for width in (1, 64):
        for mod in (relational, joins):
            monkeypatch.setattr(mod, "shuffle_width",
                                lambda *a, w=width, **k: w)
        runs[width] = _run_all(sf)
    for name, got in runs[64].items():
        pd.testing.assert_frame_equal(got, runs[1][name], check_exact=True,
                                      obj=name)

    sess = runs[1]["sessionize"]
    u1 = sess[sess["user_id"] == 1].sort_values("session_id")
    u2 = sess[sess["user_id"] == 2].sort_values("session_id")
    assert list(u1["n_events"]) == [3, 2]
    assert list(u2["n_events"]) == [3, 1, 1]
    assert list(u2["session_id"]) == [0, 1, 2]
    assert u1["session_end"].iloc[1] == pd.Timestamp("2026-02-02 00:10")

    asof = runs[1]["asof_join"].set_index("event_id")
    # user 2's purchase at 00:20 matches its click across the seam
    assert asof.loc[9, "click_event_id"] == 8
    assert asof.loc[3, "click_event_id"] == 1
    assert len(runs[1]["distinct_users_daily"]) == 3


def _hot_bucket_pairs_loop(df: pd.DataFrame, cap: int) -> list:
    """Per-bucket form of the pair walk: the distinct docs of each bucket,
    sorted, the first ``cap`` kept, then (code, a, b) for every pair in
    row-major order, bucket by bucket."""
    out = []
    for code, g in df.drop_duplicates(["code", "doc_id"]).groupby("code"):
        ids = np.sort(g["doc_id"].to_numpy())[:cap]
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                out.append((code, ids[i], ids[j]))
    return out


def test_hot_bucket_pairs_matches_per_bucket_loop(monkeypatch):
    from img2table_ray.pipelines import dedup

    rng = np.random.RandomState(5)
    df = pd.DataFrame({"code": rng.randint(0, 40, 600),
                       "doc_id": rng.randint(0, 200, 600)})
    for cap in (1, 2, 5, 4096):
        monkeypatch.setattr(dedup, "MAX_BUCKET", cap)
        hot, a, b = dedup._hot_bucket_pairs(df)
        ids, code = hot["doc_id"].to_numpy(), hot["code"].to_numpy()
        assert (code[a] == code[b]).all()
        assert list(zip(code[a], ids[a], ids[b])) == _hot_bucket_pairs_loop(
            df, cap)
    hot, a, b = dedup._hot_bucket_pairs(df.iloc[:0])
    assert len(hot) == len(a) == len(b) == 0
