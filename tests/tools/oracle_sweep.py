"""Full-scale oracle sweep: every queries() entry with an oracle_sql()
entry, Ray vs DuckDB, at an arbitrary sf directory.

The per-round driver gate compares at sf0.01 and the pytest contract at
sf0.001; bugs that only bind at larger data — e.g. a hot-bucket cap that
never fills on 500 docs — escape both.  This sweep at sf0.1 caught
exactly that (round 5: simhash_near_dup's MAX_BUCKET=64 silently dropped
84 of 512 true pairs).  Run it after touching any bucketed/capped/
partitioned operator:

    python tests/tools/oracle_sweep.py [/root/testdata/sf0.1] [--rows-only]

``--rows-only`` additionally smoke-runs the no-oracle queries (image/
audio/video extraction) at the same scale.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import duckdb
import ray

# the checkout this file belongs to, whichever copy is run
REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def _to_pandas(result):
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _norm(df):
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _vhash(df) -> str:
    return hashlib.md5(df.to_csv(index=False, float_format="%.6f"
                                 ).encode()).hexdigest()


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    sf_dir = args[0] if args else "/root/testdata/sf0.1"
    rows_only_too = "--rows-only" in sys.argv

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
    sys.path.insert(0, REPO)
    import __ray_entry__ as em

    qs, osql = em.queries(), em.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    bad: list[str] = []
    for name in sorted(osql):
        try:
            got = _norm(_to_pandas(qs[name](sf_dir)))
            want = _norm(con.execute(osql[name]).fetchdf())
            ok = (len(got) == len(want)
                  and list(got.columns) == list(want.columns)
                  and _vhash(got) == _vhash(want))
            print(f"{name}: rows {len(got)}/{len(want)} "
                  f"{'OK' if ok else 'MISMATCH'}")
            if not ok:
                bad.append(name)
        except Exception as e:  # noqa: BLE001 — report and continue
            print(f"{name}: ERROR {e!r}")
            bad.append(name)

    if rows_only_too:
        for name in sorted(set(qs) - set(osql)):
            try:
                out = qs[name](sf_dir)
                n = out.count() if hasattr(out, "count") else len(out)
                print(f"{name}: rows {n} (no oracle)")
            except Exception as e:  # noqa: BLE001
                print(f"{name}: ERROR {e!r}")
                bad.append(name)

    print(json.dumps({"sf": sf_dir, "bad": bad}))
    ray.shutdown()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
