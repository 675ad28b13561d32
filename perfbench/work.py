"""One benchmark process: set up, warm, run the timed phase, check outputs.

Started by ``run.py`` in a fresh process per set-up (``--setup-only``) or per
measurement.  It prints ``READY`` on its own line when set-up (imports, Ray
session, warm pass) is done, then ``HOST_REF <seconds>``, the host
reference loop's time, and, after a measurement, one JSON line with its
raw results.  The Ray workloads drive ``run_extraction_job``, the
function behind ``python -m img2table_ray.job``; ``page_api`` drives the
``img2table_ray.api`` documents with no Ray session.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

from perfbench import check, gen, spans

GIVE_UP_S = 120.0  # stop a timed phase here even short of the samples


def ray_temp_dir(work: str) -> str:
    """Ray session directory inside the work directory, unless that path
    is too long for the Unix sockets Ray creates under it."""
    path = os.path.join(work, "ray")
    # the longest socket path is <temp>/session_<date>_<pid>/sockets/
    # plasma_store, 63 characters past <temp>; Unix sockets allow 107
    if len(path) > 107 - 63:
        import hashlib
        import tempfile

        tag = hashlib.md5(path.encode()).hexdigest()[:8]
        path = os.path.join(tempfile.gettempdir(), f"pb-{tag}")
    return path


def _proc_field(pid: str, path: str, key: str) -> str | None:
    try:
        with open(f"/proc/{pid}/{path}") as f:
            for line in f:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def peak_rss_mb(ray_temp: str | None) -> float:
    """Largest VmHWM of this process or, given the Ray temp directory, of
    the worker processes of that session (the raylet's children)."""
    if ray_temp is None:
        pids = ["self"]
    else:
        raylets, parent = set(), {}
        for pid in filter(str.isdigit, os.listdir("/proc")):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    cmd = f.read()
            except OSError:
                continue
            if b"/raylet" in cmd and ray_temp.encode() in cmd:
                raylets.add(pid)
            parent[pid] = _proc_field(pid, "status", "PPid:")
        pids = [pid for pid, pp in parent.items() if pp in raylets]
    kb = [int(v.split()[0]) for v in
          (_proc_field(pid, "status", "VmHWM:") for pid in pids) if v]
    return max(kb, default=0) / 1024.0


class RayJobs:
    """crawl_mix / tiny_pages: a timed unit is one extraction job, run in
    one Ray session and checked against the truth."""

    cycle = 1  # units that make up the input mix once

    def __init__(self, args) -> None:
        self.args = args
        self.temp = ray_temp_dir(args.work)
        self.probe_dir = os.path.join(args.work, "probe")

    def start(self, env_vars: dict) -> None:
        import ray
        from ray.data import DataContext

        shutil.rmtree(self.probe_dir, ignore_errors=True)
        os.makedirs(self.probe_dir)
        env_vars = dict(env_vars, **{spans.PROBE_ENV: self.probe_dir})
        ray.init(num_cpus=self.args.cpus, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 _temp_dir=self.temp,
                 object_store_memory=256 << 20,
                 # fault the whole object store in during set-up: filled
                 # lazily, it kept jobs slowing down over the first five
                 # jobs of a session
                 _system_config={"preallocate_plasma_memory": True},
                 runtime_env={"worker_process_setup_hook":
                              "perfbench.spans.worker_hook",
                              "env_vars": env_vars})
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def stop(self) -> None:
        import ray

        ray.shutdown()

    def _job(self, pages: str) -> tuple[float, dict]:
        """One job into a fresh output directory: (wall s, output)."""
        from img2table_ray.pipelines import extraction

        out = os.path.join(self.args.work, "out")
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        extraction.run_extraction_job(pages, out,
                                      words_dir=os.path.join(pages, "words"),
                                      waves=JOB_WAVES[self.args.workload])
        wall = time.perf_counter() - t0
        got = check.job_output(os.path.join(out, "data"))
        shutil.rmtree(out, ignore_errors=True)
        return wall, got

    def warm(self) -> dict:
        got = self._job(gen.ensure_inputs(self.args.work, "warm", 0))[1]
        # the warm pass is not part of the timed latencies
        for name in os.listdir(self.probe_dir):
            os.remove(os.path.join(self.probe_dir, name))
        return got

    def load(self) -> None:
        import pyarrow.parquet as pq

        self.truth = _truth(self.args.inputs)
        self.n_docs = pq.read_table(os.path.join(self.args.inputs, "pages"),
                                    columns=["url"]).num_rows
        self.min_units = 1

    def unit(self, k: int) -> dict:
        wall, got = self._job(self.args.inputs)
        n, failed, missing = check.compare(self.truth, got)
        return {"wall": wall, "docs": self.n_docs, "attempted": n,
                "failed": len(failed), "missing": missing}

    def latencies(self, side: dict) -> list[float]:
        return spans.read_probe(self.probe_dir)

    def docs_per_s(self, side: dict) -> float:
        return side["docs"] / sum(side["walls"])

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.temp)


class PageApi:
    """page_api: a timed unit is one library call, in this process.

    Right before each call the host reference loop is timed, and a call's
    latency is reported at the reference host speed (see ``latencies``)."""

    cycle = 10  # the page mix repeats every 10 calls

    def __init__(self, args) -> None:
        self.args = args

    def start(self, env_vars: dict) -> None:
        import img2table_ray.api  # noqa: F401  (import is part of set-up)

    def stop(self) -> None:
        pass

    @staticmethod
    def call(kind: str, data: bytes, page: int, hocr):
        from img2table_ray.api import PDF, HocrOCR, Image, PdfOCR

        if kind == "pdf":
            out = PDF(data, pages=[page]).extract_tables(
                ocr=PdfOCR(), implicit_rows=True, borderless_tables=True)
            return out[0]
        return Image(data).extract_tables(
            ocr=HocrOCR([hocr]) if hocr else None, implicit_rows=True,
            borderless_tables=True)

    def warm(self) -> dict:
        """One call per decoder: every image of the warm input, and each
        page of its PDF."""
        import pyarrow.parquet as pq

        from img2table_ray.extract.pdf import sniff_kind

        warm = gen.ensure_inputs(self.args.work, "warm", 0)
        pages = pq.read_table(os.path.join(warm, "pages")).to_pylist()
        words = pq.read_table(os.path.join(warm, "words")).to_pylist()
        hocr = {(w["url"], w["page"]): w["hocr"] for w in words}
        got = {}
        for row in pages:
            if _warm_name(row["url"]) not in API_WARM:
                continue
            kind = sniff_kind(row["html"][:16])
            for p in ((0, 1) if kind == "pdf" else (0,)):
                tables = self.call("pdf" if kind == "pdf" else "image",
                                   row["html"], p, hocr.get((row["url"], p)))
                got[check.truth_key(row["url"], p)] = _as_truth(tables)
        return got

    def load(self) -> None:
        import pyarrow.parquet as pq

        self.truth = _truth(self.args.inputs)
        self.calls = pq.read_table(os.path.join(self.args.inputs,
                                                "calls.parquet")).to_pylist()
        self.min_units = len(self.calls)  # every page is called and checked

    def unit(self, k: int) -> dict:
        row = self.calls[k % len(self.calls)]
        ref = host_reference_s()
        t0 = time.perf_counter()
        tables = self.call(row["kind"], row["data"], row["page"], row["hocr"])
        wall = time.perf_counter() - t0
        key = check.truth_key(row["url"], row["page"])
        return {"wall": wall, "ref": ref, "docs": 1, "attempted": 1,
                "failed": int(_as_truth(tables) != self.truth[key]),
                "missing": []}

    def latencies(self, side: dict) -> list[float]:
        """Call walls at the reference host speed: each 10-call cycle's
        walls times ``HOST_REF_S`` over the cycle's median reference time."""
        walls, refs, out = side["walls"], side["refs"], []
        for i in range(0, len(walls), self.cycle):
            scale = HOST_REF_S / statistics.median(refs[i:i + self.cycle])
            out += [w * scale for w in walls[i:i + self.cycle]]
        return out

    def docs_per_s(self, side: dict) -> float:
        lat = self.latencies(side)
        return len(lat) / sum(lat)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(None)


# Host speed reference.  On the shared VM of README.md ("Host speed"), each
# vCPU's speed moved between two levels about 1.4x apart, for seconds to
# minutes at a time, with almost no steal time to show it.  Timed right
# before each page call, this pure-Python loop slows with the vCPU the call
# runs on, and its time scales the call (``PageApi.latencies``); timed right
# after set-up, it scales page_api's set-up time.
HOST_REF_S = 1.3e-3  # the loop's time when that VM ran at its fast level


def host_reference_s() -> float:
    """Seconds the host reference loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    return time.perf_counter() - t0


JOB_WAVES = {"crawl_mix": 1, "tiny_pages": 4}
# the API warm pass calls each decoder once; it skips the MPNG container
# (plain PNG pages) and the fixtures (page sizes of the job workloads)
API_WARM = gen.WARM_FORMATS + ("pdf",)


def _as_truth(tables) -> list:
    return [[t.nb_rows, t.nb_columns, t.df_values()] for t in tables]


def _truth(inputs: str) -> dict:
    with open(os.path.join(inputs, "truth.json")) as f:
        return json.load(f)


def _warm_name(url: str) -> str:
    return url.rsplit("/", 1)[-1]


def _warm_check(got: dict, work: str, api: bool) -> int:
    """Failures of the warm pass against its truth."""
    truth = _truth(gen.ensure_inputs(work, "warm", 0))
    if api:
        truth = {k: v for k, v in truth.items()
                 if _warm_name(k.split("|")[0]) in API_WARM}
    return len(check.compare(truth, got)[1])


def timed(bench, args, tracer=None) -> dict:
    """Run timed units until ``--seconds`` have passed and ``--min-samples``
    page latencies are in.  With ``tracer`` (a function switching recording
    on or off), each input runs twice in a row, untraced then traced, for
    twice the time, and the traced runs are reported apart."""
    sides = {on: {"walls": [], "refs": [], "docs": 0, "attempted": 0,
                  "failed": 0, "missing": []} for on in (False, True)}
    goal_s = args.seconds * (2 if tracer else 1)
    t_start = time.perf_counter()
    k = 0
    while True:
        on = tracer is not None and k % 2 == 1
        if tracer is not None:
            tracer(on)
        u = bench.unit(k // 2 if tracer else k)
        k += 1
        side = sides[on]
        side["walls"].append(u["wall"])
        if "ref" in u:
            side["refs"].append(u["ref"])
        for key in ("docs", "attempted", "failed"):
            side[key] += u[key]
        side["missing"] += u["missing"]
        elapsed = time.perf_counter() - t_start
        if elapsed > GIVE_UP_S:
            break
        n = len(sides[False]["walls"])
        if on != (tracer is not None) or n % bench.cycle or elapsed < goal_s:
            continue
        if n >= bench.min_units and (tracer is not None or len(
                bench.latencies(side)) >= args.min_samples):
            break
    if tracer is not None:
        tracer(False)
    for side in sides.values():
        side["docs_per_s"] = bench.docs_per_s(side) if side["walls"] else 0.0
    res = sides[False]
    res["latencies"] = bench.latencies(res)
    res["peak_rss_mb"] = bench.peak_rss_mb()
    res["traced"] = sides[True]
    return res


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--cpus", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--min-samples", type=int, default=200)
    args = p.parse_args(argv)

    api = args.workload == "page_api"
    bench = PageApi(args) if api else RayJobs(args)
    span_dir = os.path.join(args.work, "spans")
    env_vars = {"PYTHONPATH": os.environ.get("PYTHONPATH", "")}
    if args.trace:
        shutil.rmtree(span_dir, ignore_errors=True)
        os.makedirs(span_dir)
        env_vars[spans.SPAN_DIR_ENV] = span_dir
    bench.start(env_vars)
    warm_failed = _warm_check(bench.warm(), args.work, api)
    print("READY", flush=True)
    # the host reference loop right after set-up: set-up time is scaled by it
    ref = statistics.median(host_reference_s() for _ in range(21))
    print(f"HOST_REF {ref!r}", flush=True)
    if args.setup_only:
        bench.stop()
        return 0 if warm_failed == 0 else 1

    bench.load()
    tracer, rec, waves = None, None, []
    if args.trace:
        rec = spans.Recorder()
        rec.enabled = False
        if api:
            spans.install(rec)
        else:
            spans.install_driver(rec, lambda ds, span: waves.append(
                {"span": span, "ops": spans.parse_stats(ds.stats())}))

        def tracer(on: bool) -> None:
            rec.enabled = on
            flag = spans.trace_flag(span_dir)
            if on:
                open(flag, "w").close()
            elif os.path.exists(flag):
                os.remove(flag)

    res = timed(bench, args, tracer)
    res["warm_failed"] = warm_failed
    traced = res.pop("traced")
    if args.trace:
        all_spans = rec.spans + spans.read_spans(span_dir)
        m = spans.layer_metrics(all_spans, waves, sum(traced["walls"]),
                                traced["docs"], args.cpus)
        m["trace.overhead_frac"] = 1 - traced["docs_per_s"] / res["docs_per_s"]
        res["trace"] = m
        res["failed"] += traced["failed"]
        res["attempted"] += traced["attempted"]
        res["missing"] += traced["missing"]
    bench.stop()
    res["missing"] = res["missing"][:20]
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
