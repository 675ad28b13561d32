"""Regression pins: the sf0.001 output hash of every ``queries()`` name.

``tests/data/output_hashes_sf0.001.json`` holds, per query, the row
count, status counts and sha256 that ``tests/tools/output_hash.py``
gives.  A change that must not move any output keeps the table as it
is; a change that moves an output on purpose rewrites the table (run
this file as a script) and says which entries moved and why.  These are
pins of the engine's own earlier outputs, not goldens.

    python tests/test_output_hashes.py     # rewrite the table
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(HERE, "tools")]

import output_hash  # noqa: E402
from test_driver_contract import SF_DIR  # noqa: E402  (the sf0.001 tables)

import __ray_entry__ as entry_mod  # noqa: E402

TABLE = os.path.join(HERE, "data", "output_hashes_sf0.001.json")


def _pin(name: str) -> dict:
    rows, status, sha = output_hash.digest(entry_mod.queries()[name](SF_DIR))
    return {"rows": rows, "status": status, "sha256": sha}


def _table() -> dict:
    with open(TABLE) as f:
        return json.load(f)


def test_table_covers_every_query():
    assert sorted(_table()) == sorted(entry_mod.queries())


@pytest.mark.parametrize("name", sorted(_table()))
def test_output_hash_pinned(name, ray_session):
    assert _pin(name) == _table()[name]


# the extraction pipeline and the seven queries of the per-row stages
# (stages/util.py:PayloadStage)
ONE_CPU_QUERIES = ("extract_tables", "extract_metrics", "extract_lines",
                   "pdf_words", "image_features", "image_thumbnails",
                   "audio_features", "video_frames")


def test_payload_queries_run_on_one_cpu():
    """The per-row stages run on a task pool, so a one-CPU session runs
    them to the pinned outputs.  Runs in its own process and Ray session
    under one timeout, because a stage pool that holds the only CPU makes
    the queries hang rather than fail."""
    script = textwrap.dedent("""
        import json, sys
        sys.path[:0] = sys.argv[1:3]
        import ray
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        ray.data.DataContext.get_current().enable_progress_bars = False
        import output_hash
        import __ray_entry__ as entry_mod

        got = {}
        for name in sys.argv[4:]:
            rows, status, sha = output_hash.digest(
                entry_mod.queries()[name](sys.argv[3]))
            got[name] = {"rows": rows, "status": status, "sha256": sha}
        print(json.dumps(got))
        ray.shutdown()
    """)
    root = os.path.dirname(HERE)
    out = subprocess.run(
        [sys.executable, "-c", script, root, os.path.join(HERE, "tools"),
         SF_DIR, *ONE_CPU_QUERIES],
        capture_output=True, text=True, timeout=300, check=True, cwd=root)
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got == {name: _table()[name] for name in ONE_CPU_QUERIES}


if __name__ == "__main__":
    import ray
    import ray.data

    ray.init(address="local", num_cpus=output_hash.NUM_CPUS,
             include_dashboard=False, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    table = {name: _pin(name) for name in sorted(entry_mod.queries())}
    ray.shutdown()
    with open(TABLE, "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
