"""Extraction benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload crawl_mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Workloads (see README.md for why each):

* ``crawl_mix``  -- one-shard, one-wave ``run_extraction_job`` over the
  corpus format mix with the hOCR sidecar broadcast;
* ``tiny_pages`` -- eight-shard, four-wave job over small, heavily repeated
  pages;
* ``page_api``   -- one ``img2table_ray.api`` call per page, no Ray.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` a separate traced phase gives the per-layer metrics and
the tracing overhead.  Every line before it lists each metric as
``name value unit``.  The exit code is 0 only when the run completed; an
output that differs from the generator's truth sets ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
# Set-ups per run; setup_s is their median.  A Ray set-up (session start
# plus a cold warm pass) costs ~14 s on one CPU, so the Ray workloads make
# one to keep a run under a minute; page_api's costs ~2 s.
SETUPS = {"crawl_mix": 1, "tiny_pages": 1, "page_api": 3}
# page_api's set-up computes (imports, warm calls) and its time followed the
# host's speed, so it is scaled like the calls.  A Ray set-up mostly waits on
# Ray's processes starting; its raw time did not follow the host, and
# scaled by the driver's loop it spread three times as much.
SCALED_SETUP = {"crawl_mix": False, "tiny_pages": False, "page_api": True}
RUN_LIMIT_S = 170  # a run ends within this, whatever its children do
MIN_SAMPLES = 400  # latency samples per run: 20 or more beyond the p95

END_TO_END = {"docs_per_s": "1/s", "page_ms_p50": "ms", "page_ms_p95": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


def _percentile(values: list[float], q: float) -> float:
    """q-th percentile, by ``statistics.quantiles`` (exclusive method)."""
    return statistics.quantiles(values, n=100)[int(q) - 1]


def session_cpus() -> int:
    """CPUs for the Ray session: the count ``nproc`` reports."""
    out = subprocess.run(["nproc"], capture_output=True, text=True,
                         check=True)
    return max(1, int(out.stdout.strip()))


def ray_stop() -> None:
    ray_cli = shutil.which("ray")
    if ray_cli:
        subprocess.run([ray_cli, "stop", "--force"], capture_output=True,
                       timeout=60, check=False)


def loadavg() -> list[float]:
    with open("/proc/loadavg") as f:
        return [float(v) for v in f.read().split()[:3]]


def cpu_ticks() -> list[int]:
    """Aggregate CPU tick counters from /proc/stat; index 7 is steal."""
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:]]


def child(args, cpus: int, inputs: str, setup_only: bool, deadline: float):
    """Start a benchmark process; return (seconds to READY, the host
    reference loop's time right after, result dict).  The process is
    killed at ``deadline`` (a ``time.monotonic`` value)."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "work.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--cpus", str(cpus),
           "--work", WORK, "--inputs", inputs, "--trace", str(args.trace),
           "--min-samples", str(max(10, int(MIN_SAMPLES * args.scale)))]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=ROOT, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               proc.kill)
    watchdog.start()
    ready, ref, result = None, None, None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.startswith("HOST_REF "):
                ref = float(line.split()[1])
            elif line.startswith("{"):
                result = line
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or ref is None or (result is None
                                               and not setup_only):
        raise RuntimeError(f"benchmark process failed ({proc.returncode})")
    return ready, ref, (None if setup_only else json.loads(result))


def end_to_end(res: dict, setups: list[float]) -> dict:
    lat_ms = [v * 1000 for v in res["latencies"]]
    return {"docs_per_s": res["docs_per_s"],
            "page_ms_p50": statistics.median(lat_ms),
            "page_ms_p95": _percentile(lat_ms, 95),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["crawl_mix", "tiny_pages", "page_api"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size factor (<1 only for self-tests)")
    args = p.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "img2table_ray")):
        print("img2table_ray is not in this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    ray_stop()
    try:
        return measure(args)
    finally:
        ray_stop()


def measure(args) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S - 5  # leave time for ray stop
    from perfbench import gen, work

    load = loadavg()
    ticks = cpu_ticks()
    cpus = session_cpus()
    inputs = gen.ensure_inputs(WORK, args.workload, args.seed, args.scale)
    gen.ensure_inputs(WORK, "warm", 0)

    raw_setups, setups = [], []
    n = 1 if args.trace else SETUPS[args.workload]
    for k in range(n):
        ready, ref, res = child(args, cpus, inputs, k < n - 1, deadline)
        raw_setups.append(ready)
        setups.append(ready * work.HOST_REF_S / ref
                      if SCALED_SETUP[args.workload] else ready)

    failed = res["failed"] + res["warm_failed"]
    attempted = res["attempted"]
    n_lat = len(res["latencies"])
    info = {"error_frac": (failed / attempted, "ratio"),
            "pages_attempted": (attempted, "count"),
            "latency_samples": (n_lat, "count"),
            "beyond_p95": (n_lat - int(0.95 * n_lat), "count"),
            "timed_calls": (len(res["walls"]), "count"),
            "timed_s": (sum(res["walls"]), "s"),
            "session_cpus": (cpus, "count"),
            "loadavg_1m": (load[0], "load"),
            "cpu_steal_frac": (_steal(ticks, cpu_ticks()), "ratio"),
            "setup_raw_s": (statistics.median(raw_setups), "s")}
    if res["refs"]:
        # page_api reports latency at the reference host speed; these are
        # the raw call walls and the reference loop's times it scaled by
        info["wall_ms_p50"] = (statistics.median(res["walls"]) * 1000, "ms")
        info["host_ref_ms_p50"] = (statistics.median(res["refs"]) * 1000,
                                   "ms")
    e2e = end_to_end(res, setups)
    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in sorted(res["trace"].items())}
        correct = failed == 0 and res["trace"]["trace.coverage"] >= 0.9
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in e2e.items()}
        correct = failed == 0
    for k, (v, unit) in info.items():
        print(f"{k} {v} {unit}")
    for k, v in e2e.items():
        print(f"{k} {v} {END_TO_END[k]}")
    if args.trace:
        for k, m in metrics.items():
            print(f"{k} {m['value']} {m['unit']}")
    if n_lat - int(0.95 * n_lat) < 10:
        print(f"only {n_lat} latency samples: fewer than 10 lie beyond p95",
              file=sys.stderr)
    if len(res["walls"]) < 20:
        print(f"timed call walls (s): {res['walls']}", file=sys.stderr)
    if res["missing"]:
        print(f"MISSING PAGES: {res['missing']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _steal(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to others during the run."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(1, sum(delta))


def _unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("ratio", "coverage", "frac", "per_doc")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
