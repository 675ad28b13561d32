"""Output check: compares what the program produced with the generator's
truth, per (url, page).

A page counts as failed when it is missing from the output, came back as an
error row, or differs from the truth in table count, any table's shape, or
any cell's text.  Missing pages are also listed by name so the run can fail
loudly.
"""

from __future__ import annotations

import json

import pyarrow.parquet as pq


def truth_key(url: str, page: int) -> str:
    return f"{url}|{page}"


def job_output(data_dir: str) -> dict:
    """Extraction job output -> {url|page: [table, ...] or "error: ..."}."""
    tbl = pq.read_table(data_dir, columns=["url", "page", "table_idx",
                                           "nb_rows", "nb_columns", "cells",
                                           "status", "error"])
    got: dict = {}
    rows = sorted(zip(*(tbl[c].to_pylist() for c in
                        ("url", "page", "table_idx", "nb_rows", "nb_columns",
                         "cells", "status", "error"))),
                  key=lambda r: (r[0], r[1], r[2]))
    for url, page, _, n_rows, n_cols, cells, status, error in rows:
        key = truth_key(url, page)
        if status == "error":
            got[key] = "error: " + (error or "").split("\n", 1)[0]
            continue
        tables = got.setdefault(key, [])
        if status == "ok" and isinstance(tables, list):
            values = [[c["value"] for c in row] for row in json.loads(cells)]
            tables.append([n_rows, n_cols, values])
    return got


def compare(truth: dict, got: dict) -> tuple[int, list[str], list[str]]:
    """-> (attempted, failed keys, missing keys).  ``got`` may hold keys
    the truth does not know; those count as failures too."""
    failed, missing = [], []
    for key, want in truth.items():
        have = got.get(key)
        if have is None:
            missing.append(key)
            failed.append(key)
        elif have != want:
            failed.append(key)
    failed.extend(k for k in got if k not in truth)
    return len(truth), failed, missing
