"""Custom join / window operators Ray Data lacks natively.

The brief's operator list names as-of join, range join and windowed
aggregate as the canonical "operators the engine must compose from
map_batches + groupby().map_groups" — Ray Data has no built-in for any
of them.  Each is expressed Ray-Data-first and documents the
partitioning assumption it relies on:

* ``asof_join`` — both sides go through ``stages.util.map_key_groups``
  on (user, 24 h time bucket): a vectorized backward search (pandas
  ``merge_asof``) per slot finds the within-bucket matches, and a second
  grouping on the user alone stitches the unmatched stubs across bucket
  seams.  No call holds one user's whole history.
* ``range_join`` — the small interval side is broadcast (``ray.put``
  once, read per task), probe side streams through ``map_batches`` with
  a vectorized interval test + per-batch partial aggregation.  No
  shuffle touches the big side.
* ``sliding_window`` — each event is assigned to its ``window/hop``
  overlapping windows by a vectorized repeat inside ``map_batches``
  (duplication factor = window/hop, bounded), partials combine per
  batch, and only (key x window) partial rows reach the global groupby.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Sum

from img2table_ray.sources.readers import read_parquet_clean
from img2table_ray.stages.util import (map_key_groups, shuffle_width,
                                       time_bucket)

US_PER_SEC = 1_000_000


# ---------------------------------------------------------------------------
# as-of join
# ---------------------------------------------------------------------------

ASOF_BUCKET_HOURS = 24  # coarse time bucket bounding per-group events


def _asof_local(g: pd.DataFrame) -> pd.DataFrame:
    """As-of join ONE slot (many (user, time-bucket) keys at once,
    vectorized with ``merge_asof(by=[user, tbucket])`` — a per-key
    map_groups pays ~ms of pandas overhead per group, which at users x
    buckets groups dominated the join).  Emits three
    row kinds in one schema: kind 0 = FINAL matched left rows (a
    within-bucket match is always more recent than anything in an
    earlier bucket); kind 1 = unmatched left stubs (their match, if
    any, lives in an earlier bucket); kind 2 = each (user, bucket)'s
    latest right event (ties on ts break to the larger event_id)."""
    left = g[g["side"] == 0]
    right = g[g["side"] == 1]
    parts = []
    if not left.empty and not right.empty:
        ls = left.sort_values("ts", kind="stable")
        rs = right.sort_values(["ts", "event_id"], kind="stable")
        rs = rs.rename(columns={"event_id": "click_event_id"})
        rs = rs.assign(click_ts=rs["ts"])
        j = pd.merge_asof(
            ls[["event_id", "user_id", "tbucket", "ts"]],
            rs[["user_id", "tbucket", "ts", "click_event_id", "click_ts"]],
            on="ts", by=["user_id", "tbucket"],
            direction="backward", allow_exact_matches=True,
        )
        m = j["click_event_id"].notna()
        matched, un = j[m], j[~m]
        if not matched.empty:
            parts.append(pd.DataFrame(
                {
                    "kind": np.int64(0),
                    "tbucket": matched["tbucket"],
                    "user_id": matched["user_id"],
                    "event_id": matched["event_id"].astype("int64"),
                    "ts": matched["ts"],
                    "click_event_id":
                        matched["click_event_id"].astype("int64"),
                    "click_ts": matched["click_ts"],
                }
            ))
    else:
        un = left
    if not un.empty:
        parts.append(pd.DataFrame(
            {
                "kind": np.int64(1),
                "tbucket": un["tbucket"],
                "user_id": un["user_id"],
                "event_id": un["event_id"].astype("int64"),
                "ts": un["ts"],
                "click_event_id": np.int64(-1),
                "click_ts": pd.NaT,
            }
        ))
    if not right.empty:
        latest = right.sort_values(["ts", "event_id"], kind="stable"
                                   ).drop_duplicates(["user_id", "tbucket"],
                                                     keep="last")
        parts.append(pd.DataFrame(
            {
                "kind": np.int64(2),
                "tbucket": latest["tbucket"],
                "user_id": latest["user_id"],
                "event_id": np.int64(-1),
                "ts": latest["ts"],
                "click_event_id": latest["event_id"].astype("int64"),
                "click_ts": latest["ts"],
            }
        ))
    if not parts:
        return _ASOF_STAGE1_EMPTY.copy()
    return pd.concat(parts, ignore_index=True).astype(_ASOF_STAGE1_DTYPES)


_ASOF_STAGE1_DTYPES = {
    "kind": "int64", "tbucket": "int64", "user_id": "int64",
    "event_id": "int64", "ts": "datetime64[us]",
    "click_event_id": "int64", "click_ts": "datetime64[us]",
}
_ASOF_STAGE1_EMPTY = pd.DataFrame(
    {c: pd.Series(dtype=t) for c, t in _ASOF_STAGE1_DTYPES.items()}
)


def _asof_stitch(g: pd.DataFrame) -> pd.DataFrame:
    """Match unmatched left stubs against each user's latest earlier-
    bucket right event, VECTORIZED across every user in one slot.
    Because time buckets partition the timeline, per-user
    summary timestamps ascend with tbucket, so the prefix-latest right
    for a stub in bucket t is simply the summary with the largest
    tbucket < t — one searchsorted over (user-rank, tbucket) keys, no
    per-user loop (per-user map_groups paid ~ms per group; at 10^5
    users that dominated the join).  Group contents are stubs and
    per-bucket summaries — never a user's raw event history."""
    summaries = g[g["kind"] == 2]
    lefts = g[g["kind"] == 1]
    if lefts.empty or summaries.empty:
        return _ASOF_OUT_EMPTY.copy()
    # dense user ranks shared by both sides -> packable sort keys
    users = np.unique(np.concatenate([summaries["user_id"].to_numpy(),
                                      lefts["user_id"].to_numpy()]))
    s_rank = np.searchsorted(users, summaries["user_id"].to_numpy())
    l_rank = np.searchsorted(users, lefts["user_id"].to_numpy())
    SHIFT = np.int64(1) << np.int64(22)  # tbucket < 2^22 until year 13000
    for tb in (summaries["tbucket"].to_numpy(), lefts["tbucket"].to_numpy()):
        if not ((tb >= 0) & (tb < SHIFT)).all():
            raise ValueError("asof time bucket outside [0, 2**22) overflows "
                             "the key packing")
    s_key = s_rank.astype("int64") * SHIFT + summaries["tbucket"].to_numpy()
    l_key = l_rank.astype("int64") * SHIFT + lefts["tbucket"].to_numpy()
    order = np.argsort(s_key, kind="stable")
    s_key = s_key[order]
    s_ts = summaries["click_ts"].to_numpy()[order]
    s_id = summaries["click_event_id"].to_numpy()[order]
    # last summary with key strictly below the stub's (user, bucket) key;
    # reject hits that fell into the previous user's range
    idx = np.searchsorted(s_key, l_key, side="left") - 1
    ok = (idx >= 0) & ((s_key[np.clip(idx, 0, None)] // SHIFT)
                       == l_key // SHIFT)
    if not ok.any():
        return _ASOF_OUT_EMPTY.copy()
    lefts = lefts[ok]
    idx = idx[ok]
    return pd.DataFrame(
        {
            "event_id": lefts["event_id"].to_numpy(),
            "user_id": lefts["user_id"].to_numpy(),
            "ts": lefts["ts"].to_numpy(),
            "click_event_id": s_id[idx].astype("int64"),
            "click_ts": s_ts[idx].astype("datetime64[us]"),
        }
    )


_ASOF_OUT_EMPTY = pd.DataFrame(
    {
        "event_id": pd.Series(dtype="int64"),
        "user_id": pd.Series(dtype="int64"),
        "ts": pd.Series(dtype="datetime64[us]"),
        "click_event_id": pd.Series(dtype="int64"),
        "click_ts": pd.Series(dtype="datetime64[us]"),
    }
)


def _asof_finalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.assign(
        gap_us=((df["ts"] - df["click_ts"]) // pd.Timedelta(microseconds=1)
                ).astype("int64"))
    return df[["event_id", "user_id", "ts", "click_event_id", "click_ts",
               "gap_us"]]


def _asof_tagger(left_type: str, right_type: str, span_us: int):
    """Batch tagger: the ``left_type``/``right_type`` events with their
    side (0 left, 1 right) and time bucket."""

    def tag(batch: pa.Table) -> pd.DataFrame:
        batch = batch.select(["event_id", "user_id", "ts", "event_type"])
        tbucket = time_bucket(batch["ts"], span_us)
        df = batch.to_pandas()
        keep = df["event_type"].isin([left_type, right_type]).to_numpy()
        df = df[keep]
        return pd.DataFrame(
            {
                "event_id": df["event_id"],
                "user_id": df["user_id"],
                "ts": df["ts"],
                "side": np.where(df["event_type"] == left_type, 0, 1
                                 ).astype("int64"),
                "tbucket": pd.Series(tbucket[keep], index=df.index),
            }
        )

    return tag


def asof_join(sf_dir: str, left_type: str = "purchase",
              right_type: str = "click") -> "ray.data.Dataset":
    """For each ``left_type`` event, the same user's most recent
    ``right_type`` event at-or-before its timestamp (inner as-of join).

    Scale shape: events group on (user_id, 24 h time bucket) — like the
    sessionize guard, one bot-grade hot user cannot route an unbounded
    history into a single pandas group.  A within-bucket match is FINAL
    (it is always more recent than anything in an earlier bucket) and
    never reshuffles; only unmatched left STUBS plus one latest-right
    summary per active bucket reach the per-user stitch, which walks
    the prefix-latest right across bucket seams.  Both stages go
    through ``map_key_groups`` (keys never split across calls); a call
    holds one slot of (user, bucket) activity (stage 1) or of stubs +
    summaries (stage 2), never a user's raw history.

    Columns: event_id, user_id, ts, click_event_id, click_ts,
    gap_us (int64 microseconds, exact).

    Stage 1 feeds BOTH branches of the union; Ray's plan cache shares
    its execution between them (``ds.stats()`` shows the second
    branch's read/tag/sort as "[execution cached]"), so the diamond
    costs one pass without a mid-pipeline ``materialize()``.
    """
    span_us = ASOF_BUCKET_HOURS * 3600 * US_PER_SEC
    width = shuffle_width(min_width=16)

    stage1 = map_key_groups(
        read_parquet_clean(
            f"{sf_dir}/events.parquet",
            columns=["event_id", "user_id", "ts", "event_type"],
        ).map_batches(_asof_tagger(left_type, right_type, span_us),
                      batch_format="pyarrow", batch_size=65536),
        ["user_id", "tbucket"], _asof_local, width)
    matched = stage1.map_batches(
        lambda df: _asof_finalize(
            df[df["kind"] == 0].drop(columns=["kind", "tbucket"])),
        batch_format="pandas",
    )
    stitched = map_key_groups(
        stage1.map_batches(lambda df: df[df["kind"] != 0],
                           batch_format="pandas"),
        ["user_id"], _asof_stitch, width,
    ).map_batches(_asof_finalize, batch_format="pandas")
    # output is one row per matched left event — stays a streaming
    # Dataset (consume with write_parquet / iter_batches)
    return matched.union(stitched)


# ---------------------------------------------------------------------------
# range (interval) join
# ---------------------------------------------------------------------------

# Deterministic overlapping price bands (band_id, lo, hi): a genuine
# interval join (rows fall in 0..n bands), not a binning — bands 1/2/3
# overlap their neighbors and band 4 nests inside band 0.
PRICE_BANDS: list[tuple[int, float, float]] = [
    (0, 500.0, 20000.0),
    (1, 15000.0, 40000.0),
    (2, 35000.0, 70000.0),
    (3, 60000.0, 105000.0),
    (4, 900.0, 5000.0),
]


def range_join(sf_dir: str) -> pd.DataFrame:
    """Broadcast interval join: lineitem x overlapping price bands
    (``lo <= l_extendedprice < hi``), aggregated per band.

    Scale shape: the interval side is small by construction (range joins
    at scale are banding/calendar/geo-fence tables) — ``ray.put`` it ONCE
    and probe inside ``map_batches`` with a vectorized mask per band; the
    probe side never shuffles, and each batch emits at most one partial
    row per band.  Columns: band_id, lo, hi, n_items, sum_price (r2).
    """
    bands = np.asarray(PRICE_BANDS, dtype="float64")  # (n, 3)
    bands_ref = ray.put(bands)

    def probe(batch: pa.Table) -> pd.DataFrame:
        b = ray.get(bands_ref)
        price = batch["l_extendedprice"].to_numpy(zero_copy_only=False)
        # vectorized interval test: (n_bands, batch) mask, then per-band
        # partial count/sum — no per-row loop
        m = (price[None, :] >= b[:, 1:2]) & (price[None, :] < b[:, 2:3])
        n = m.sum(axis=1)
        keep = n > 0
        return pd.DataFrame(
            {
                "band_id": b[keep, 0].astype("int64"),
                "p_n": n[keep].astype("int64"),
                "p_sum": np.where(m[keep], price[None, :], 0.0).sum(axis=1),
            }
        )

    ds = (
        read_parquet_clean(f"{sf_dir}/lineitem.parquet",
                           columns=["l_extendedprice"])
        .map_batches(probe, batch_format="pyarrow", batch_size=65536)
        .repartition(1)
        .groupby("band_id")
        .aggregate(Sum("p_n", alias_name="n_items"),
                   Sum("p_sum", alias_name="sum_price"))
    )
    df = ds.to_pandas()
    lohi = {int(i): (lo, hi) for i, lo, hi in PRICE_BANDS}
    df["lo"] = df["band_id"].map(lambda i: lohi[i][0])
    df["hi"] = df["band_id"].map(lambda i: lohi[i][1])
    df["n_items"] = df["n_items"].astype("int64")
    df["sum_price"] = np.round(df["sum_price"], 2)
    df = df.sort_values("band_id", kind="stable").reset_index(drop=True)
    return df[["band_id", "lo", "hi", "n_items", "sum_price"]]


# ---------------------------------------------------------------------------
# sliding-window aggregate
# ---------------------------------------------------------------------------

WINDOW_US = 3_600 * US_PER_SEC  # 1-hour windows ...
HOP_US = 900 * US_PER_SEC       # ... sliding every 15 minutes


def sliding_window(sf_dir: str) -> "ray.data.Dataset":
    """Sliding-window aggregate over the events stream: 1-hour windows
    hopping every 15 minutes, per (window_start, event_type): n_events,
    sum_value (r4).  An event at ``ts`` belongs to the ``window/hop`` = 4
    windows starting at ``floor(ts/hop)*hop - k*hop`` for k in 0..3.

    Scale shape: window assignment is a vectorized 4x repeat inside
    ``map_batches`` (bounded duplication, never a join against a window
    table), partials combine per (window, type) per batch, and only the
    combined partials — O(windows x types x batches) rows — reach the
    final combine.  That combine goes through ``map_key_groups`` on the
    window start (``shuffle_width()`` slots) and merges each slot with one
    vectorized pandas groupby: Ray's named-column aggregate pays ~ms of
    per-group overhead, which at one group per (window, type) made this
    37 s on 13.5k groups; the slot form is the same shuffle with
    O(width) groups and runs in well under a second.
    """
    nhops = WINDOW_US // HOP_US

    def partial(batch: pa.Table) -> pd.DataFrame:
        ts = batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        val = batch["value"].to_numpy(zero_copy_only=False)
        et = np.asarray(batch["event_type"].to_pandas())
        base = ts // HOP_US * HOP_US
        k = np.arange(nhops, dtype="int64")
        ws = (base[None, :] - (k * HOP_US)[:, None]).ravel()
        df = pd.DataFrame(
            {
                "window_start": ws,
                "event_type": np.tile(et, nhops),
                "value": np.tile(val, nhops),
            }
        )
        return df.groupby(["window_start", "event_type"], as_index=False
                          ).agg(p_n=("value", "size"), p_sum=("value", "sum"))

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby(["window_start", "event_type"], as_index=False
                        ).agg(n_events=("p_n", "sum"), sum_value=("p_sum", "sum"))
        out["window_start"] = pd.to_datetime(out["window_start"], unit="us"
                                             ).astype("datetime64[us]")
        out["n_events"] = out["n_events"].astype("int64")
        out["sum_value"] = np.round(out["sum_value"], 4)
        return out[["window_start", "event_type", "n_events", "sum_value"]]

    # output is one row per (window, type) — it grows with the stream's
    # time span, so it too stays a streaming Dataset
    return map_key_groups(
        read_parquet_clean(f"{sf_dir}/events.parquet",
                           columns=["ts", "event_type", "value"])
        .map_batches(partial, batch_format="pyarrow", batch_size=65536),
        ["window_start"], combine, shuffle_width(min_width=16))
