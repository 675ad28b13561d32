"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import check, gen, spans, work  # noqa: E402


def _job_rows(truth: dict) -> list[dict]:
    """Output rows, in the extraction job's schema, that match ``truth``."""
    rows = []
    for key, tables in truth.items():
        url, page = key.rsplit("|", 1)
        base = {"url": url, "page": int(page), "error": None}
        if not tables:
            rows.append({**base, "table_idx": -1, "nb_rows": 0,
                         "nb_columns": 0, "cells": None,
                         "status": "no_tables"})
        for t_idx, (n_rows, n_cols, values) in enumerate(tables):
            cells = [[{"x1": 0, "y1": 0, "x2": 1, "y2": 1, "value": v}
                      for v in row] for row in values]
            rows.append({**base, "table_idx": t_idx, "nb_rows": n_rows,
                         "nb_columns": n_cols, "cells": json.dumps(cells),
                         "status": "ok"})
    return rows


def _write(tmp_path, rows) -> str:
    data = tmp_path / "data"
    data.mkdir(exist_ok=True)
    pq.write_table(pa.Table.from_pylist(rows), data / "part-0.parquet")
    return str(data)


def test_truth_check_fails_on_one_flipped_cell(tmp_path):
    truth = {
        "u/a|0": [[2, 2, [["r0c0v1", "r0c1v2"], ["r1c0v3", "r1c1v4"]]]],
        "u/b|0": [],
        "u/c|1": [[2, 3, [["a", "b", "c"], ["d", None, "f"]]]],
    }
    rows = _job_rows(truth)
    assert check.compare(truth, check.job_output(_write(tmp_path, rows))) \
        == (3, [], [])

    flipped = json.loads(rows[0]["cells"])
    flipped[1][0]["value"] = "r1c0v9"
    rows[0]["cells"] = json.dumps(flipped)
    n, failed, missing = check.compare(
        truth, check.job_output(_write(tmp_path, rows)))
    assert (n, failed, missing) == (3, ["u/a|0"], [])


def test_truth_check_reports_missing_and_error_pages(tmp_path):
    truth = {"u/a|0": [[1, 1, [["x"]]]], "u/b|0": []}
    rows = [{"url": "u/b", "page": 0, "table_idx": -1, "nb_rows": 0,
             "nb_columns": 0, "cells": None, "status": "error",
             "error": "ValueError: boom"}]
    n, failed, missing = check.compare(
        truth, check.job_output(_write(tmp_path, rows)))
    assert n == 2 and sorted(failed) == ["u/a|0", "u/b|0"]
    assert missing == ["u/a|0"]


def test_generator_is_seeded(tmp_path):
    a = gen.ensure_inputs(str(tmp_path / "w1"), "page_api", 5, scale=0.1)
    b = gen.ensure_inputs(str(tmp_path / "w2"), "page_api", 5, scale=0.1)
    c = gen.ensure_inputs(str(tmp_path / "w3"), "page_api", 6, scale=0.1)
    read = (lambda d: pq.read_table(os.path.join(d, "calls.parquet"))
            .column("data").to_pylist())
    assert read(a) == read(b)
    assert read(a) != read(c)


def test_page_latency_is_scaled_by_its_cycles_reference_time():
    api = work.PageApi(None)
    side = {"walls": [0.1] * 10 + [0.2] * 10,
            "refs": [work.HOST_REF_S] * 9 + [1.0]
            + [2 * work.HOST_REF_S] * 9 + [0.0]}
    assert api.latencies(side) == pytest.approx([0.1] * 20)
    assert api.docs_per_s(side) == pytest.approx(10.0)


def test_self_time_subtracts_children_and_worker_spans():
    ss = [
        {"id": 1, "parent": 0, "name": "pipelines.job", "pid": 1,
         "t0": 0.0, "t1": 10.0},
        {"id": 2, "parent": 1, "name": "pipelines.write", "pid": 1,
         "t0": 1.0, "t1": 9.0},
        {"id": 1, "parent": 0, "name": "stages.extractor", "pid": 2,
         "t0": 2.0, "t1": 6.0},
        {"id": 2, "parent": 1, "name": "imgops.decode.png", "pid": 2,
         "t0": 3.0, "t1": 4.0},
    ]
    got = {s["name"]: s["self"] for s in spans.self_times(ss)}
    assert got == {"pipelines.job": 2.0, "pipelines.write": 4.0,
                   "stages.extractor": 3.0, "imgops.decode.png": 1.0}


def test_parse_stats():
    text = (
        "Operator 1 ReadParquet: 2 tasks executed, 3 blocks produced in 0.1s\n"
        "* Remote wall time: 1ms min, 8ms max, 4ms mean, 9.5ms total\n"
        "* Remote cpu time: 1ms min, 8ms max, 4ms mean, 10ms total\n"
        "Operator 2 MapBatches(f)->Write: 1 tasks executed, 1 blocks "
        "produced in 2s\n"
        "* Remote wall time: 1.5s min, 1.5s max, 1.5s mean, 1.5s total\n"
        "* Remote cpu time: 900us min, 900us max, 900us mean, 900us total\n")
    ops = spans.parse_stats(text)
    assert [(o["name"], o["tasks"], o["blocks"]) for o in ops] == [
        ("ReadParquet", 2, 3), ("MapBatches(f)->Write", 1, 1)]
    assert ops[0]["wall"] == pytest.approx(0.0095)
    assert ops[1]["cpu"] == pytest.approx(0.0009)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_smoke_prints_every_metric_with_unit(workload):
    """A tiny-seed run of each workload, traced and untraced: every metric
    BENCHMARK.json names is printed by name with its unit, and outputs
    match the truth."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", str(trace),
             "--scale", "0.1"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        assert out.returncode == 0, out.stderr[-2000:]
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0
        printed = {ln.split()[0]: ln.split()[2] for ln in lines[:-1]
                   if len(ln.split()) == 3}
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
            assert printed[m["name"]] == m["unit"], m["name"]
        assert printed["error_frac"] == "ratio"
