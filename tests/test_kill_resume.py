"""True kill/resume test: SIGKILL a running extraction job mid-flight, resume
it in a fresh process, and verify the final output equals an uninterrupted
run (BASELINE.md resumability criterion).

Runs the job in its own process group (its own Ray session) so the kill
cannot pollute the pytest session's Ray."""

import os
import shutil
import signal
import subprocess
import sys
import time

import pandas as pd
import pyarrow.parquet as pq

CORPUS = "/tmp/i2tr_kill_corpus"

JOB_SCRIPT = """
import sys
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False,
         ignore_reinit_error=True, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from img2table_ray.pipelines.extraction import run_extraction_job
res = run_extraction_job("{corpus}", "{out}", words_dir="{corpus}/words")
print("JOB_DONE", sorted(res["new_parts"]))
ray.shutdown()
"""


def _run_job(out_dir: str, kill_mid_run: bool = False) -> bool:
    """Run the job in a subprocess; with ``kill_mid_run`` SIGKILL the
    process group as soon as the FIRST wave's manifests are published (so
    the interruption is guaranteed to land with real progress preserved
    and real work remaining, independent of machine speed).  Returns True
    if the job completed."""
    from img2table_ray.state.manifest import completed_partitions

    env = dict(os.environ, RAY_TMPDIR=f"/tmp/ray_kill_{os.path.basename(out_dir)}")
    proc = subprocess.Popen(
        [sys.executable, "-c", JOB_SCRIPT.format(corpus=CORPUS, out=out_dir)],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        start_new_session=True, env=env,
    )
    if not kill_mid_run:
        out, _ = proc.communicate(timeout=420)
        return "JOB_DONE" in out
    deadline = time.time() + 360
    while time.time() < deadline and proc.poll() is None:
        if len(completed_partitions(out_dir)) >= 1:
            break
        time.sleep(0.25)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        proc.wait(timeout=60)
        raise AssertionError(
            "job completed before the kill landed — corpus too small to "
            "interrupt mid-run; grow it so the kill/resume path is exercised")
    proc.wait(timeout=60)
    return False


def _read_sorted(out_dir: str) -> pd.DataFrame:
    from img2table_ray.state.manifest import data_dir

    df = pq.read_table(data_dir(out_dir)).to_pandas()
    return df.sort_values(["url", "page", "table_idx"]).reset_index(drop=True)


def test_kill_and_resume():
    from img2table_ray.sources.pages import generate_pages
    from img2table_ray.state.manifest import completed_partitions

    shutil.rmtree(CORPUS, ignore_errors=True)
    generate_pages(CORPUS, 96, rows_per_file=8)  # 12 shards = 12 partitions

    baseline_out = "/tmp/i2tr_kill_baseline"
    shutil.rmtree(baseline_out, ignore_errors=True)
    assert _run_job(baseline_out)
    baseline = _read_sorted(baseline_out)

    killed_out = "/tmp/i2tr_kill_victim"
    shutil.rmtree(killed_out, ignore_errors=True)
    _run_job(killed_out, kill_mid_run=True)  # SIGKILL right after wave 1 publishes
    done_after_kill = completed_partitions(killed_out)
    # wave checkpointing: some partitions complete, some not -> a genuine
    # mid-run interruption with real progress to preserve
    assert 0 < len(done_after_kill) < 12

    # resume in a fresh process: must complete and match the baseline
    assert _run_job(killed_out)
    assert completed_partitions(killed_out) == set(range(12))
    resumed = _read_sorted(killed_out)
    pd.testing.assert_frame_equal(resumed, baseline)
