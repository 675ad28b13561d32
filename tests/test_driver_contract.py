"""Mimic the driver's correctness gate: each queries() entry vs its DuckDB
oracle at sf0.001 (row count + schema-insensitive sorted-value compare)."""

from __future__ import annotations

import duckdb
import pandas as pd
import pytest

import __ray_entry__ as entry_mod

SF_DIR = "/root/testdata/sf0.001"
TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def _to_pandas(result) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return df


def _oracle_df(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'"
        )
    return con.execute(sql).fetchdf()


ORACLE_KEYS = sorted(entry_mod.oracle_sql().keys())


@pytest.mark.parametrize("name", ORACLE_KEYS)
def test_query_matches_oracle(name, ray_session):
    q = entry_mod.queries()[name]
    got = _normalize(_to_pandas(q(SF_DIR)))
    want = _normalize(_oracle_df(entry_mod.oracle_sql()[name]))
    assert list(got.columns) == list(want.columns), (
        f"{name}: columns {list(got.columns)} != {list(want.columns)}"
    )
    assert len(got) == len(want), f"{name}: rows {len(got)} != {len(want)}"
    for c in got.columns:
        a, b = got[c], want[c]
        if a.dtype.kind == "f" or b.dtype.kind == "f":
            assert (
                (a.isna() == b.isna()).all()
                and ((a - b).abs().fillna(0) < 1e-9).all()
            ), f"{name}.{c}: float mismatch"
        else:
            eq = a.astype(str).values == b.astype(str).values
            assert eq.all(), (
                f"{name}.{c}: {int((~eq).sum())} mismatches, first at "
                f"{(~eq).argmax()}: {a.iloc[(~eq).argmax()]!r} vs "
                f"{b.iloc[(~eq).argmax()]!r}"
            )


def test_rows_only_queries_run(ray_session):
    qs = entry_mod.queries()
    for name in set(qs) - set(ORACLE_KEYS):
        df = _to_pandas(qs[name](SF_DIR))
        assert df is not None and len(df.columns) > 0, name


def test_entry_runs(ray_session):
    df = _to_pandas(entry_mod.entry())
    assert len(df) >= 0 and len(df.columns) > 0
