"""Relational pipeline demos exercising the engine's wide operators.

These demonstrate the scale patterns the extraction engine relies on:
partial (combiner) pre-aggregation before a groupby shuffle, broadcast
small-side joins instead of shuffle joins, and windowed aggregation over an
event stream.  Outputs round floats to fixed decimals so the DuckDB oracle
hashes match.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from img2table_ray.sources.readers import read_parquet_clean
from img2table_ray.stages.util import (map_key_groups, shuffle_width,
                                       time_bucket)
from ray.data.aggregate import Max, Sum


def pricing_summary(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q1-style pricing summary over lineitem.

    Per (l_returnflag, l_linestatus): sum_qty, sum_base_price,
    sum_disc_price, avg_qty (round 4), count_order.  Partial aggregation
    happens inside map_batches (one row per key per batch) so the shuffle
    moves O(keys x batches) rows, not the full table.
    """

    def partial(batch: pa.Table) -> pa.Table:
        disc_price = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        t = batch.append_column("disc_price", disc_price)
        df = t.select(
            ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
             "disc_price"]
        ).to_pandas()
        g = df.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            p_sum_qty=("l_quantity", "sum"),
            p_sum_base=("l_extendedprice", "sum"),
            p_sum_disc=("disc_price", "sum"),
            p_count=("l_quantity", "size"),
        )
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    ds = read_parquet_clean(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
                 "l_discount"],
    ).map_batches(partial, batch_format="pyarrow", batch_size=65536)

    # post-combiner partials are (keys x batches) rows — tiny for bounded keys.
    # Coalesce before the groupby so the shuffle is one task, not a full sort.
    ds = ds.repartition(1)
    agg = ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("p_sum_qty", alias_name="sum_qty"),
        Sum("p_sum_base", alias_name="sum_base_price"),
        Sum("p_sum_disc", alias_name="sum_disc_price"),
        Sum("p_count", alias_name="count_order"),
    )
    df = agg.to_pandas()
    df["avg_qty"] = np.round(df["sum_qty"] / df["count_order"], 4)
    df["sum_qty"] = np.round(df["sum_qty"], 2)
    df["sum_base_price"] = np.round(df["sum_base_price"], 2)
    df["sum_disc_price"] = np.round(df["sum_disc_price"], 2)
    df["count_order"] = df["count_order"].astype("int64")
    return df[["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
               "sum_disc_price", "avg_qty", "count_order"]]


def events_hourly(sf_dir: str) -> pd.DataFrame:
    """Tumbling 1-hour window aggregate over the events stream.

    Per (event_type, hour): n_events, sum_value (round 4).  The window key
    is computed vectorized per batch; partial counts per (key, window) are
    combined per batch before the global groupby — the streaming-window
    pattern for an ordered log.
    """

    def partial(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch["ts"], unit="hour")
        df = pa.table(
            {
                "event_type": batch["event_type"],
                "hour": hour,
                "value": batch["value"],
            }
        ).to_pandas()
        g = df.groupby(["event_type", "hour"], as_index=False).agg(
            p_n=("value", "size"), p_sum=("value", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False).replace_schema_metadata(None)

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"]
    ).map_batches(partial, batch_format="pyarrow", batch_size=65536)
    agg = ds.repartition(1).groupby(["event_type", "hour"]).aggregate(
        Sum("p_n", alias_name="n_events"), Sum("p_sum", alias_name="sum_value")
    )
    df = agg.to_pandas()
    df["n_events"] = df["n_events"].astype("int64")
    df["sum_value"] = np.round(df["sum_value"], 4)
    return df[["event_type", "hour", "n_events", "sum_value"]]


def approx_distinct_users(sf_dir: str) -> pd.DataFrame:
    """Approximate distinct users per event_type via a HyperLogLog sketch
    (`functions/hll.py`) — the mergeable-sketch aggregation pattern.

    Where the EXACT count-distinct (:func:`distinct_users_daily`) ships
    deduplicated keys through the shuffle (O(distinct keys)), the sketch
    ships at most m=4096 (group, register, rank) rows per batch whatever
    the key cardinality, and register merge is an idempotent elementwise
    MAX — so Ray task retries or duplicated blocks cannot corrupt the
    estimate.  Driver work is O(groups x m).  Rows-only driver check
    (approximate by design); the ~1.6%-error bound vs the exact count is
    pinned in ``tests/test_hll.py``.  Columns: event_type, approx_users.
    """
    from img2table_ray.functions.hll import HLL_M, batch_registers, estimate

    def partial(batch: pa.Table) -> pa.Table:
        df = pa.table({
            "event_type": batch["event_type"],
            "user_id": batch["user_id"],
        }).to_pandas()
        outs = []
        for etype, g in df.groupby("event_type", sort=False):
            reg, rank = batch_registers(g["user_id"].to_numpy())
            outs.append(pd.DataFrame({
                "event_type": etype, "reg": reg, "rank": rank}))
        out = pd.concat(outs, ignore_index=True)
        return pa.Table.from_pandas(out, preserve_index=False
                                    ).replace_schema_metadata(None)

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    ).map_batches(partial, batch_format="pyarrow", batch_size=65536)
    merged = ds.repartition(1).groupby(["event_type", "reg"]).aggregate(
        Max("rank", alias_name="rank"))
    df = merged.to_pandas()
    rows = []
    for etype, g in df.groupby("event_type"):
        regs = np.zeros(HLL_M, dtype=np.int64)
        regs[g["reg"].to_numpy()] = g["rank"].to_numpy()
        rows.append({"event_type": etype,
                     "approx_users": int(round(estimate(regs)))})
    return pd.DataFrame(rows).sort_values("event_type").reset_index(drop=True)


def json_props_agg(sf_dir: str) -> pd.DataFrame:
    """Semi-structured extraction: parse the ``props`` JSON column, bucket
    the extracted field, aggregate per (event_type, bucket).

    The shape every event-log pipeline needs: JSON parsing is per-row by
    nature but stays inside ``map_batches`` (vectorized-adjacent, one
    combiner row per key per batch), so the shuffle moves O(keys x
    batches) partials, never raw events.  Money-style values are summed
    as integer cents (``floor(v*100 + 0.5)``, the identical float op on
    both engines) so the hash compare is order-independent and exact.

    Columns: event_type, k_bucket (k // 10), n_events, sum_cents.
    """
    import json

    def partial(batch: pa.Table) -> pa.Table:
        ks = np.fromiter(
            (json.loads(p)["k"] for p in batch["props"].to_pylist()),
            dtype="int64", count=batch.num_rows,
        )
        df = pd.DataFrame({
            "event_type": batch["event_type"].to_pandas(),
            "k_bucket": ks // 10,
            "cents": np.floor(
                batch["value"].to_numpy() * 100 + 0.5
            ).astype("int64"),
        })
        g = df.groupby(["event_type", "k_bucket"], as_index=False).agg(
            p_n=("cents", "size"), p_sum=("cents", "sum")
        )
        return pa.Table.from_pandas(g, preserve_index=False
                                    ).replace_schema_metadata(None)

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "value", "props"]
    ).map_batches(partial, batch_format="pyarrow", batch_size=65536)
    agg = ds.repartition(1).groupby(["event_type", "k_bucket"]).aggregate(
        Sum("p_n", alias_name="n_events"), Sum("p_sum", alias_name="sum_cents")
    )
    df = agg.to_pandas()
    df["n_events"] = df["n_events"].astype("int64")
    df["sum_cents"] = df["sum_cents"].astype("int64")
    return df[["event_type", "k_bucket", "n_events", "sum_cents"]]


def nation_revenue(sf_dir: str) -> pd.DataFrame:
    """Broadcast-join demo: orders x customer x nation -> revenue per nation.

    customer and nation are the small sides: loaded once on the driver,
    merged into a custkey -> nation name mapping, broadcast with
    ``ray.put``, and applied per batch as a numpy searchsorted lookup — no
    shuffle join.  Columns: n_name, total_revenue (round 2), n_orders.
    """
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).to_pandas()
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    cmap = cust.merge(
        nation, left_on="c_nationkey", right_on="n_nationkey", how="left"
    )[["c_custkey", "n_name"]].sort_values("c_custkey")
    keys = cmap["c_custkey"].to_numpy()
    names = cmap["n_name"].to_numpy()
    ref = ray.put((keys, names))

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        k, v = ray.get(ref)
        idx = np.searchsorted(k, batch["o_custkey"].to_numpy())
        idx = np.clip(idx, 0, len(k) - 1)
        matched = k[idx] == batch["o_custkey"].to_numpy()
        df = pd.DataFrame(
            {
                "n_name": np.where(matched, v[idx], None),
                "o_totalprice": batch["o_totalprice"],
            }
        )
        df = df[df["n_name"].notna()]
        return df.groupby("n_name", as_index=False).agg(
            p_rev=("o_totalprice", "sum"), p_n=("o_totalprice", "size")
        )

    ds = read_parquet_clean(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(partial, batch_format="pandas", batch_size=65536)
    agg = ds.repartition(1).groupby("n_name").aggregate(
        Sum("p_rev", alias_name="total_revenue"), Sum("p_n", alias_name="n_orders")
    )
    df = agg.to_pandas()
    df["total_revenue"] = np.round(df["total_revenue"], 2)
    df["n_orders"] = df["n_orders"].astype("int64")
    return df[["n_name", "total_revenue", "n_orders"]]


SESSION_GAP_MIN = 30  # minutes of inactivity that closes a session
SESSION_BUCKET_HOURS = 24  # coarse time bucket bounding per-group events


def _sessionize_slot(g: pd.DataFrame) -> pd.DataFrame:
    """Sessionize every (user, time-bucket) key of one slot of raw events
    -> session stubs (no ids yet; ``sum_value`` stays unrounded for the
    stitch).  A session breaks where the user or the bucket changes or
    the gap exceeds SESSION_GAP_MIN."""
    g = g.sort_values(["user_id", "bucket", "ts"], kind="stable")
    new_key = (g["user_id"].ne(g["user_id"].shift())
               | g["bucket"].ne(g["bucket"].shift()))
    gap = g["ts"].diff() > pd.Timedelta(minutes=SESSION_GAP_MIN)
    sid = (new_key | gap).cumsum().to_numpy()
    out = g.groupby(sid, sort=False).agg(
        user_id=("user_id", "first"), session_start=("ts", "min"),
        session_end=("ts", "max"), n_events=("ts", "size"),
        sum_value=("value", "sum"))
    out["n_events"] = out["n_events"].astype("int64")
    return out.reset_index(drop=True)


def _stitch_sessions(g: pd.DataFrame) -> pd.DataFrame:
    """Merge the bucket-local session stubs of every user in one slot
    across bucket seams and assign 0-based session ids per user.  A
    user's stubs from consecutive buckets merge when the seam gap is
    within SESSION_GAP_MIN (within-bucket stubs never merge — bucket
    sessionization already coalesced them)."""
    g = g.sort_values(["user_id", "session_start"], kind="stable")
    new_user = g["user_id"].ne(g["user_id"].shift())
    gap = (g["session_start"] - g["session_end"].shift()) > pd.Timedelta(
        minutes=SESSION_GAP_MIN)
    sid = (new_user | gap).cumsum().to_numpy()
    out = g.groupby(sid, sort=False).agg(
        user_id=("user_id", "first"),
        session_start=("session_start", "min"),
        session_end=("session_end", "max"),
        n_events=("n_events", "sum"), sum_value=("sum_value", "sum"))
    out = out.reset_index(drop=True)
    out["session_id"] = out.groupby("user_id", sort=False).cumcount()
    out["n_events"] = out["n_events"].astype("int64")
    out["sum_value"] = np.round(out["sum_value"], 4)
    return out[["user_id", "session_id", "session_start", "session_end",
                "n_events", "sum_value"]]


def sessionize(sf_dir: str) -> "ray.data.Dataset":
    """Gap-based session windows over the events stream (the stream-shaped
    pattern: partition by key, sort by ts within the key, window with
    pandas).  Per session: user_id, session_id (0-based per user),
    session_start, session_end, n_events, sum_value (round 4).

    Scale shape (VERDICT r4 §next-5): raw events go through
    ``stages.util.map_key_groups`` on (user_id, 24 h time bucket), so one
    bot-grade hot user cannot route an unbounded event history into a
    single pandas call — a key's events never split across calls, and a
    call holds one slot of user-days, never one user's whole history.  A
    second ``map_key_groups`` on user_id then stitches sessions across
    bucket seams; its calls hold fixed-width SESSION STUBS (typically
    orders of magnitude fewer rows than events, ~48 B each), never raw
    events.  Oracle: lag/island detection in SQL.
    """
    span_us = SESSION_BUCKET_HOURS * 3600 * 1_000_000
    width = shuffle_width(min_width=16)

    def tag_bucket(batch: pa.Table) -> pd.DataFrame:
        return batch.to_pandas().assign(
            bucket=time_bucket(batch["ts"], span_us))

    events = read_parquet_clean(f"{sf_dir}/events.parquet",
                                columns=["user_id", "ts", "value"]
                                ).map_batches(tag_bucket,
                                              batch_format="pyarrow")
    stubs = map_key_groups(events, ["user_id", "bucket"], _sessionize_slot,
                           width)
    return map_key_groups(stubs, ["user_id"], _stitch_sessions, width)


# ---------------------------------------------------------------------------
# exact distributed quantiles / distinct counts
# ---------------------------------------------------------------------------

QUANTILE_QS = (0.25, 0.5, 0.75, 0.95)


def group_quantiles(sf_dir: str) -> pd.DataFrame:
    """EXACT per-group quantiles of l_extendedprice per l_returnflag
    (p25/p50/p75/p95, discrete: the value at 1-based rank ceil(q*n),
    matching DuckDB's ``quantile_disc``), plus n_rows.

    Scale shape: quantiles resist partial aggregation, but a VALUE-COUNT
    map does not — each batch emits its distinct (group, value, count)
    triples (prices have fixed precision and a bounded domain, so the
    map is bounded by the DOMAIN, not the row count), the per-group
    merge sorts O(distinct values) entries and reads ranks off the
    cumulative counts.  Rows reaching the shuffle are
    O(distinct-per-batch x batches); per-group final state is
    O(distinct values in the domain).  For an unbounded/continuous
    domain, swap the exact value map for fixed-width bins plus a
    refinement pass (or a quantile sketch) — the dataflow is identical.
    """

    def partial(batch: pa.Table) -> pd.DataFrame:
        df = batch.select(["l_returnflag", "l_extendedprice"]).to_pandas()
        return df.groupby(["l_returnflag", "l_extendedprice"],
                          as_index=False).size().rename(columns={"size": "n"})

    def final(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("l_extendedprice", as_index=False)["n"].sum()
        m = m.sort_values("l_extendedprice", kind="stable")
        cum = m["n"].to_numpy().cumsum()
        total = int(cum[-1])
        vals = m["l_extendedprice"].to_numpy()
        row = {"l_returnflag": g["l_returnflag"].iloc[0],
               "n_rows": np.int64(total)}
        for q in QUANTILE_QS:
            # 1-based rank ceil(q*n) in the SAME float64 arithmetic DuckDB
            # uses, so boundary cases agree with quantile_disc
            rank = int(np.ceil(q * total))
            row[f"p{int(q * 100)}"] = vals[np.searchsorted(cum, rank)]
        return pd.DataFrame([row])

    ds = (
        read_parquet_clean(f"{sf_dir}/lineitem.parquet",
                           columns=["l_returnflag", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow", batch_size=65536)
        .groupby("l_returnflag")
        .map_groups(final, batch_format="pandas")
    )
    df = ds.to_pandas()
    df["n_rows"] = df["n_rows"].astype("int64")
    df = df.sort_values("l_returnflag", kind="stable").reset_index(drop=True)
    return df[["l_returnflag", "n_rows"] +
              [f"p{int(q * 100)}" for q in QUANTILE_QS]]


def distinct_users_daily(sf_dir: str) -> pd.DataFrame:
    """EXACT count(DISTINCT user_id) per day over the events stream.

    Scale shape: exact distinct needs a global dedupe, so pairs go
    through ``stages.util.map_key_groups`` on the DISTINCT key (user_id,
    slot count from the cluster size) — every copy of a (day, user) pair
    lands in one slot.  Each batch first dedupes its own pairs (the
    combiner: a batch emits at most its distinct pairs, not its rows),
    each slot dedupes globally and emits per-day partial counts, and only
    O(slots x days) partial rows reach the final per-day sum.  No stage
    ever holds more than one slot's distinct pairs.
    """

    def partial(batch: pa.Table) -> pd.DataFrame:
        day = pc.floor_temporal(batch["ts"], unit="day")
        df = pa.table({"day": day, "user_id": batch["user_id"]}).to_pandas()
        return df.drop_duplicates()

    def slot_counts(g: pd.DataFrame) -> pd.DataFrame:
        out = g.drop_duplicates().groupby("day", as_index=False).size()
        return out.rename(columns={"size": "p_n"})

    ds = map_key_groups(
        read_parquet_clean(f"{sf_dir}/events.parquet",
                           columns=["ts", "user_id"])
        .map_batches(partial, batch_format="pyarrow", batch_size=65536),
        ["user_id"], slot_counts, shuffle_width(min_width=16),
    ).groupby("day").aggregate(Sum("p_n", alias_name="n_users"))
    df = ds.to_pandas()
    df["n_users"] = df["n_users"].astype("int64")
    df = df.sort_values("day", kind="stable").reset_index(drop=True)
    return df[["day", "n_users"]]


TOPK_PER_GROUP = 3


def top_orders_per_nation(sf_dir: str, k: int = TOPK_PER_GROUP
                          ) -> pd.DataFrame:
    """Per-group top-k WITHOUT a full sort: the k most expensive orders
    per nation (rank 1-based; ties on price break to the smaller
    o_orderkey).

    Scale shape: the classic top-k decomposition — each batch keeps at
    most k rows PER KEY (a partial top-k: sort only within the batch),
    so the shuffle moves O(k x keys x batches) rows instead of the full
    table, and the per-key final merge re-ranks at most k x batches
    rows.  The nation attribution is the same broadcast searchsorted
    lookup as :func:`nation_revenue` — no shuffle join.  Columns:
    n_name, rank, o_orderkey, o_totalprice.
    """
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).to_pandas()
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    cmap = cust.merge(
        nation, left_on="c_nationkey", right_on="n_nationkey", how="left"
    )[["c_custkey", "n_name"]].sort_values("c_custkey")
    ref = ray.put((cmap["c_custkey"].to_numpy(), cmap["n_name"].to_numpy()))

    def _topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_totalprice", "o_orderkey"],
                            ascending=[False, True], kind="stable")
        return df.groupby("n_name", as_index=False, sort=False).head(k)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        keys, names = ray.get(ref)
        ck = batch["o_custkey"].to_numpy()
        idx = np.clip(np.searchsorted(keys, ck), 0, len(keys) - 1)
        df = pd.DataFrame(
            {
                "n_name": np.where(keys[idx] == ck, names[idx], None),
                "o_orderkey": batch["o_orderkey"],
                "o_totalprice": batch["o_totalprice"],
            }
        )
        return _topk(df[df["n_name"].notna()])

    def final(g: pd.DataFrame) -> pd.DataFrame:
        out = _topk(g).reset_index(drop=True)
        out["rank"] = np.arange(1, len(out) + 1, dtype="int64")
        return out[["n_name", "rank", "o_orderkey", "o_totalprice"]]

    ds = (
        read_parquet_clean(
            f"{sf_dir}/orders.parquet",
            columns=["o_custkey", "o_orderkey", "o_totalprice"],
        )
        .map_batches(partial, batch_format="pandas", batch_size=65536)
        .groupby("n_name")
        .map_groups(final, batch_format="pandas")
    )
    df = ds.to_pandas()  # k x 25 nations — key-bounded
    return df.sort_values(["n_name", "rank"], kind="stable"
                          ).reset_index(drop=True)
