"""The `ray job submit` entrypoint (python -m img2table_ray.job): fresh
run writes data + manifests and prints a JSON summary, with the words
sidecar attached; re-submission with the same --out resumes (skips every
completed partition)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pyarrow.parquet as pq

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_job(args: list[str]) -> dict:
    env = dict(os.environ, RAY_GRAFT_CPUS="4")
    out = subprocess.run(
        [sys.executable, "-m", "img2table_ray.job", *args],
        capture_output=True, text=True, timeout=300, env=env, check=True,
        cwd=REPO,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_job_cli_runs_and_resumes(tmp_path):
    pages = tmp_path / "pages_in"
    out = tmp_path / "tables_out"
    subprocess.run(
        [sys.executable, "-m", "img2table_ray.sources.pages",
         "--out", str(pages), "--rows", "48"],
        check=True, timeout=120, cwd=REPO,
    )

    s1 = _run_job(["--input", str(pages), "--out", str(out),
                   "--words-dir", str(pages / "words")])
    assert s1["new_parts"], s1
    assert not s1["resumed_parts"]
    data_dir = out / "data"
    assert any(n.startswith("part=") for n in os.listdir(data_dir))
    # test.png's hOCR words fill its table cells
    df = pq.read_table(data_dir).to_pandas()
    test_png = df[df["url"].str.contains("/test/")]
    assert len(test_png) and (test_png["status"] == "ok").all()
    for cells in test_png["cells"]:
        assert any(c["value"] for row in json.loads(cells) for c in row)

    s2 = _run_job(["--input", str(pages), "--out", str(out)])
    assert not s2["new_parts"], s2
    assert sorted(s2["resumed_parts"]) == sorted(s1["new_parts"])
