"""Partitioned words-lookup service unit tests (state/words_service.py).

The e2e equivalence with the broadcast path lives in
tests/test_pipeline.py::test_words_paths_all_match_broadcast; these
cover the service's own contract: stable bucketing, order-preserving
bulk fetch, misses as None, the streaming load pass, and scheduling on a
one-CPU session.
"""

import json
import os
import subprocess
import sys
import textwrap

import pyarrow as pa
import pyarrow.parquet as pq

from img2table_ray.state.words_service import (
    WordsService,
    _bucket,
    build_words_service,
)


def test_bucket_stable_and_in_range():
    ks = [("https://a/%d" % i, i % 3) for i in range(200)]
    for k in (2, 5, 16):
        buckets = [_bucket(u, p, k) for u, p in ks]
        assert all(0 <= b < k for b in buckets)
        # deterministic: same inputs, same placement
        assert buckets == [_bucket(u, p, k) for u, p in ks]
    # spread: 200 keys over 5 shards should touch every shard
    assert len(set(_bucket(u, p, 5) for u, p in ks)) == 5


def test_build_fetch_roundtrip(ray_session, tmp_path):
    d = str(tmp_path / "words")
    os.makedirs(d)
    n = 57
    pq.write_table(pa.table({
        "url": [f"https://doc/{i}" for i in range(n)],
        "page": pa.array([i % 4 for i in range(n)], pa.int32()),
        "hocr": [f"<hocr {i}>" for i in range(n)],
    }), f"{d}/w.parquet")
    svc = build_words_service(d, num_shards=3)
    keys = [(f"https://doc/{i}", i % 4) for i in range(n)]
    got = svc.fetch(keys)
    assert got == [f"<hocr {i}>" for i in range(n)]
    # misses come back as None, order preserved
    mixed = [("https://doc/3", 3), ("https://missing/x", 0),
             ("https://doc/10", 2)]
    assert svc.fetch(mixed) == ["<hocr 3>", None, "<hocr 10>"]
    assert isinstance(svc, WordsService) and len(svc.shards) == 3


def test_dead_shard_degrades_to_none(ray_session, tmp_path):
    """A killed shard actor must yield None for its keys (degraded,
    word-less rows) instead of raising into the extraction task
    (ADVICE r3: node loss on the at-scale path)."""
    import ray

    d = str(tmp_path / "words")
    os.makedirs(d)
    n = 40
    pq.write_table(pa.table({
        "url": [f"https://doc/{i}" for i in range(n)],
        "page": pa.array([0] * n, pa.int32()),
        "hocr": [f"<hocr {i}>" for i in range(n)],
    }), f"{d}/w.parquet")
    svc = build_words_service(d, num_shards=2)
    keys = [(f"https://doc/{i}", 0) for i in range(n)]
    dead = 0
    ray.kill(svc.shards[dead])
    got = svc.fetch(keys)
    for (u, p), v in zip(keys, got):
        if _bucket(u, p, 2) == dead:
            assert v is None
        else:
            assert v == f"<hocr {int(u.rsplit('/', 1)[1])}>"
    # both buckets were actually exercised
    assert any(v is None for v in got) and any(v is not None for v in got)


def test_null_hocr_rows_are_skipped(ray_session, tmp_path):
    d = str(tmp_path / "words")
    os.makedirs(d)
    pq.write_table(pa.table({
        "url": ["https://doc/0", "https://doc/1"],
        "page": pa.array([0, 0], pa.int32()),
        "hocr": ["<h>", None],
    }), f"{d}/w.parquet")
    svc = build_words_service(d, num_shards=2)
    assert svc.fetch([("https://doc/0", 0), ("https://doc/1", 0)]) == [
        "<h>", None]


def test_service_mode_runs_on_one_cpu(tmp_path):
    """The shard actors reserve no CPU, so on a one-CPU session the load
    pass and the extraction map tasks still schedule.  Runs in its own
    process and Ray session under a timeout, because a shard actor that
    holds a CPU makes the job hang rather than fail."""
    script = textwrap.dedent("""
        import json, sys
        import ray
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        from img2table_ray.pipelines.extraction import extract_pages
        from img2table_ray.sources.pages import generate_pages

        corpus = generate_pages(sys.argv[1], 8, rows_per_file=4)
        df = extract_pages(corpus, words_dir=corpus + "/words",
                           join_words="service").to_pandas()
        print(json.dumps({"urls": df["url"].nunique(),
                          "errors": int((df["status"] == "error").sum())}))
        ray.shutdown()
    """)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "corpus")],
        capture_output=True, text=True, timeout=240, check=True, cwd=root,
    )
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res == {"urls": 8, "errors": 0}


def test_jobs_free_their_actors(tmp_path):
    """Each ``run_extraction_job`` frees its stats collectors and words
    shards when it is done: three service-mode jobs in one session leave
    no more of those actor processes alive than one job does.  Runs in
    its own process and a one-CPU Ray session; processes are counted
    with ``ps`` once their number has settled."""
    script = textwrap.dedent("""
        import json, subprocess, sys, time
        import ray
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR")
        ray.data.DataContext.get_current().enable_progress_bars = False
        from img2table_ray.pipelines.extraction import run_extraction_job
        from img2table_ray.sources.pages import generate_pages

        def alive():
            args = subprocess.run(["ps", "-eo", "args"], capture_output=True,
                                  text=True, check=True).stdout.splitlines()
            return sum(a.startswith(("ray::WordsShard", "ray::StatsCollector"))
                       for a in args)

        def settled():
            prev, deadline = None, time.monotonic() + 20
            while True:
                cur = alive()
                if cur == prev or time.monotonic() > deadline:
                    return cur
                prev = cur
                time.sleep(1.0)

        corpus = generate_pages(sys.argv[1] + "/corpus", 8, rows_per_file=4)
        counts = []
        for job in range(3):
            run_extraction_job(corpus, f"{sys.argv[1]}/out{job}",
                               words_dir=corpus + "/words", waves=2,
                               join_words="service")
            counts.append(settled())
        print(json.dumps(counts))
        ray.shutdown()
    """)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                         capture_output=True, text=True, timeout=300,
                         check=True, cwd=root)
    counts = json.loads(out.stdout.strip().splitlines()[-1])
    assert counts[2] <= counts[0], counts
