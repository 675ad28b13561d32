"""Outside-in tracing: spans recorded by wrapping the program's public
functions, so no program file changes.

A span is ``(id, parent id, name, start, end, pid, meta)``.  Parents come
from a per-process stack of open spans; times are ``time.perf_counter``,
which on Linux reads the system-wide monotonic clock, so spans from the
driver and from Ray workers share one time line.

The driver installs the wrappers directly (:func:`install`).  Ray workers
install the same ones through Ray's ``worker_process_setup_hook``
(:func:`worker_hook`) and append their finished top-level spans, with all
their children, to ``<span dir>/<pid>.jsonl``.

Names are ``<layer>.<what>``, the layer being the program module the
wrapped function belongs to: imgops, extract, stages, state, pipelines,
api.  :func:`layer_metrics` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import json
import os
import re
import sys
import time

SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"
PROBE_ENV = "PERFBENCH_PROBE"


class Recorder:
    """Open/close spans for one process and keep them in memory.

    Recording can be switched per top-level call: in-process through
    ``enabled``, across processes through the existence of ``flag``, a
    file.  A call that starts while recording is off is not recorded,
    nor is anything it calls."""

    def __init__(self, sink: str | None = None,
                 flag: str | None = None) -> None:
        self.spans: list[dict] = []
        self.enabled = True
        self._flag = flag
        self._stack: list[dict] = []
        self._off = 0  # depth of calls inside an unrecorded top-level call
        self._next = 0
        self._sink = sink  # file the finished top-level spans go to
        self._pending: list[dict] = []

    def _active(self) -> bool:
        if self._flag is not None:
            return os.path.exists(self._flag)
        return self.enabled

    def open(self, name: str) -> dict | None:
        if self._off or (not self._stack and not self._active()):
            self._off += 1
            return None
        self._next += 1
        span = {"id": self._next, "parent": self._stack[-1]["id"]
                if self._stack else 0, "name": name, "pid": os.getpid(),
                "t0": time.perf_counter(), "t1": None}
        self._stack.append(span)
        return span

    def close(self, span: dict | None) -> None:
        if span is None:
            self._off -= 1
            return
        span["t1"] = time.perf_counter()
        self._stack.pop()
        if self._sink is None:
            self.spans.append(span)
            return
        self._pending.append(span)
        if not self._stack:
            with open(self._sink, "a") as f:
                f.write("".join(json.dumps(s) + "\n" for s in self._pending))
            self._pending.clear()


_REC: Recorder | None = None


def _wrap(owner, attr: str, name, meta=None) -> None:
    """Replace ``owner.attr`` by a wrapper that records a span around each
    call.  ``name`` may be a function of the call's arguments; ``meta``
    maps (args, result) to extra span fields."""
    orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if getattr(orig, "_perfbench", False):
        return
    rebind = None
    if isinstance(orig, (classmethod, staticmethod)):
        rebind, orig = type(orig), orig.__func__

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        rec = _REC
        if rec is None:
            return orig(*args, **kwargs)
        span = rec.open(name(args) if callable(name) else name)
        try:
            result = orig(*args, **kwargs)
            if meta is not None and span is not None:
                span.update(meta(args, result))
            return result
        finally:
            rec.close(span)

    wrapper._perfbench = True
    setattr(owner, attr, rebind(wrapper) if rebind else wrapper)


def _decode_name(args) -> str:
    data = args[0]
    if data[:8] == b"\x89PNG\r\n\x1a\n":
        return "imgops.decode.png"
    if data[:3] == b"\xff\xd8\xff":
        return "imgops.decode.jpeg"
    if data[:4] in (b"II*\x00", b"MM\x00*"):
        return "imgops.decode.tiff"
    if data[:6] in (b"GIF87a", b"GIF89a"):
        return "imgops.decode.gif"
    if data[:4] == b"RIFF":
        return "imgops.decode.webp"
    return "imgops.decode.other"


def _nbytes(args, result) -> dict:
    return {"bytes": int(getattr(result, "nbytes", 0))}


def _rows(args, result) -> dict:
    batch = args[1] if len(args) > 1 else args[0]
    return {"rows": int(batch.num_rows)}


# (module, attribute path, span name, meta).  Functions that another
# module imported by name are wrapped in the importing module's namespace,
# because that is where the caller looks them up.
TARGETS = [
    ("img2table_ray.imgops.png", "decode_image", _decode_name, _nbytes),
    ("img2table_ray.extract.document", "threshold_dark_areas",
     "extract.threshold", _nbytes),
    ("img2table_ray.extract.document", "compute_img_metrics",
     "extract.metrics", None),
    ("img2table_ray.extract.document", "detect_lines", "extract.lines", None),
    ("img2table_ray.extract.document", "get_cells", "extract.cells", None),
    ("img2table_ray.extract.document", "get_tables", "extract.tables", None),
    ("img2table_ray.extract.document", "implicit_content", "extract.tables",
     None),
    ("img2table_ray.extract.document", "merge_consecutive_tables",
     "extract.tables", None),
    ("img2table_ray.extract.document", "get_title_tables", "extract.titles",
     None),
    ("img2table_ray.extract.document", "table_to_extracted",
     "extract.serialize", None),
    ("img2table_ray.extract.document", "extract_tables_from_image",
     "extract.page", None),
    ("img2table_ray.extract.document", "TableImage.extract_borderless_tables",
     "extract.borderless", None),
    ("img2table_ray.core.objects", "Table.get_content", "extract.content",
     None),
    ("img2table_ray.core.objects", "ExtractedTable.canonical_text",
     "extract.serialize", None),
    ("img2table_ray.extract.content", "parse_hocr", "extract.content", None),
    ("img2table_ray.extract.content", "OCRWords.from_records",
     "extract.content", None),
    ("img2table_ray.extract.pdf", "PdfiumRenderer.render",
     "extract.pdf_render", None),
    ("img2table_ray.extract.pdftext", "pdf_words_content", "extract.pdftext",
     None),
    ("img2table_ray.stages.extractor", "probe_batch", "stages.probe_explode",
     None),
    ("img2table_ray.stages.extractor", "explode_pages",
     "stages.probe_explode", None),
    ("img2table_ray.stages.extractor", "PageExtractor.__init__",
     "stages.extractor", None),
    ("img2table_ray.stages.extractor", "PageExtractor.__call__",
     "stages.extractor", _rows),
    ("img2table_ray.state.stats", "StatsShards.__init__", "state.stats_init",
     None),
    ("img2table_ray.state.stats", "StatsShards.add_rows", "state.stats_send",
     None),
    ("img2table_ray.state.stats", "StatsShards.flush", "state.stats_flush",
     None),
    ("img2table_ray.state.stats", "StatsShards.totals", "state.stats_read",
     None),
    ("img2table_ray.state.stats", "StatsShards.errors_by_format",
     "state.stats_read", None),
    ("img2table_ray.state.stats", "StatsShards.drop_part", "state.stats_read",
     None),
    ("img2table_ray.state.manifest", "write_manifest", "state.manifest", None),
    ("img2table_ray.state.manifest", "completed_partitions", "state.manifest",
     None),
    ("img2table_ray.pipelines.extraction", "run_extraction_job",
     "pipelines.job", None),
    ("img2table_ray.pipelines.extraction", "extract_pages", "pipelines.plan",
     None),
    ("img2table_ray.pipelines.extraction", "tag_part_batch",
     "pipelines.operators", None),
    ("img2table_ray.pipelines.extraction", "segregate_by_weight",
     "pipelines.operators", None),
    ("img2table_ray.api", "Document.extract_tables", "api.call", None),
    ("img2table_ray.api", "HocrOCR.of", "api.words", None),
    ("img2table_ray.api", "PdfOCR.of", "api.words", None),
]


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class _AfterImport(importlib.abc.MetaPathFinder):
    """Runs callbacks right after a module's first import.  Worker hooks
    use it so that a worker imports nothing it would not have imported
    anyway: Ray starts the stats actors during each job, and an import in
    their start-up would delay the job's first stats sends."""

    def __init__(self) -> None:
        self.pending: dict[str, list] = {}

    def find_spec(self, name, path, target=None):
        if name not in self.pending:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        callbacks = self.pending.pop(name)
        exec_module = spec.loader.exec_module

        def run(module):
            exec_module(module)
            for fn in callbacks:
                fn(module)

        spec.loader.exec_module = run
        return spec


_AFTER_IMPORT = _AfterImport()


def after_import(module: str, fn, lazy: bool) -> None:
    """Call ``fn(module)`` now, importing the module unless ``lazy``, or,
    when lazy and the module is not loaded yet, right after its import."""
    if module in sys.modules or not lazy:
        fn(importlib.import_module(module))
        return
    if _AFTER_IMPORT not in sys.meta_path:
        sys.meta_path.insert(0, _AFTER_IMPORT)
    _AFTER_IMPORT.pending.setdefault(module, []).append(fn)


# Functions the Ray driver hands to Ray Data as objects.  Ray pickles them
# by reference only while the module attribute is the original function,
# so the driver must leave them alone; the workers wrap them.
HANDED_TO_RAY = ("stages.probe_explode", "pipelines.operators")


def install(recorder: Recorder, driver: bool = False,
            lazy: bool = False) -> None:
    """Wrap the targets in this process and record into ``recorder``;
    ``driver`` skips those in ``HANDED_TO_RAY``, ``lazy`` wraps each
    module's targets only once something imports it."""
    global _REC
    _REC = recorder
    for module, path, name, meta in TARGETS:
        if driver and name in HANDED_TO_RAY:
            continue

        def wrap(mod, path=path, name=name, meta=meta):
            _wrap(*_resolve(mod, path), name, meta)

        after_import(module, wrap, lazy)


def install_driver(recorder: Recorder, on_write) -> None:
    """Driver side: the targets plus ``Dataset.write_parquet``, after each
    recorded call of which ``on_write(dataset, span)`` can capture the
    wave's ``Dataset.stats()``."""
    import ray.data

    install(recorder, driver=True)
    orig = ray.data.Dataset.write_parquet
    if getattr(orig, "_perfbench", False):
        return

    @functools.wraps(orig)
    def write_parquet(self, *args, **kwargs):
        span = recorder.open("pipelines.write")
        try:
            return orig(self, *args, **kwargs)
        finally:
            recorder.close(span)
            if span is not None:
                on_write(self, span)

    write_parquet._perfbench = True
    ray.data.Dataset.write_parquet = write_parquet


def worker_hook() -> None:
    """Ray ``worker_process_setup_hook``: install the tracer when a span
    directory is set, and the page-latency probe when asked."""
    span_dir = os.environ.get(SPAN_DIR_ENV)
    if span_dir:
        install(Recorder(sink=os.path.join(span_dir, f"{os.getpid()}.jsonl"),
                         flag=trace_flag(span_dir)), lazy=True)
    if os.environ.get(PROBE_ENV):
        after_import("img2table_ray.stages.extractor",
                     lambda mod: install_probe(mod.PageExtractor,
                                               os.environ[PROBE_ENV]),
                     lazy=True)


def trace_flag(span_dir: str) -> str:
    """File whose existence switches recording on in the workers."""
    return os.path.join(span_dir, "on")


# ---- page-latency probe (untraced runs) ----------------------------------
#
# The job workloads report per-page extraction latency: the time
# PageExtractor._extract takes for a page it actually extracts (a memo miss,
# recognisable because only a miss decodes).  Two wrapped methods and one
# file append per batch; nothing else is timed.

def install_probe(PageExtractor, out_dir: str) -> None:
    sink = os.path.join(out_dir, f"{os.getpid()}.lat")
    state = {"miss": False, "lat": []}
    extract, decode, call = (PageExtractor._extract, PageExtractor._decode,
                             PageExtractor.__call__)

    def _decode(self, *args, **kwargs):
        state["miss"] = True
        return decode(self, *args, **kwargs)

    def _extract(self, *args, **kwargs):
        state["miss"] = False
        t0 = time.perf_counter()
        rows = extract(self, *args, **kwargs)
        if state["miss"]:
            state["lat"].append(time.perf_counter() - t0)
        return rows

    def __call__(self, batch):
        out = call(self, batch)
        if state["lat"]:
            with open(sink, "a") as f:
                f.write("".join(f"{v!r}\n" for v in state["lat"]))
            state["lat"].clear()
        return out

    PageExtractor._decode = _decode
    PageExtractor._extract = _extract
    PageExtractor.__call__ = __call__


def read_probe(out_dir: str) -> list[float]:
    lat: list[float] = []
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".lat"):
            with open(os.path.join(out_dir, name)) as f:
                lat.extend(float(v) for v in f)
    return lat


# ---- analysis -------------------------------------------------------------

def read_spans(span_dir: str) -> list[dict]:
    spans: list[dict] = []
    for name in sorted(os.listdir(span_dir)):
        if name.endswith(".jsonl"):
            with open(os.path.join(span_dir, name)) as f:
                spans.extend(json.loads(line) for line in f)
    return spans


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[dict]) -> list[dict]:
    """Adds ``self`` to each span: its duration minus the time its child
    spans cover.  Children are found per process.  A driver
    ``pipelines.write`` span's children are the worker spans (no parent in
    their process) that ran inside it, merged where they overlap."""
    children: dict[tuple, list[dict]] = {}
    for s in spans:
        children.setdefault((s["pid"], s["parent"]), []).append(s)
    roots_by_pid = [s for s in spans if s["parent"] == 0]
    writes = [s for s in spans if s["name"] == "pipelines.write"]
    write_pid = writes[0]["pid"] if writes else None
    worker_roots = [s for s in roots_by_pid if s["pid"] != write_pid]
    for s in spans:
        kids = children.get((s["pid"], s["id"]), [])
        covered = _union([(k["t0"], k["t1"]) for k in kids])
        if s["name"] == "pipelines.write":
            inside = [(max(k["t0"], s["t0"]), min(k["t1"], s["t1"]))
                      for k in worker_roots
                      if k["t1"] > s["t0"] and k["t0"] < s["t1"]]
            covered += _union(inside)
        s["self"] = max(0.0, (s["t1"] - s["t0"]) - covered)
    return spans


_STATS_OP = re.compile(r"^Operator \d+ (.+?): (\d+) tasks executed, (\d+) "
                       r"blocks produced", re.M)
_STATS_TOTAL = re.compile(r"\* Remote (wall|cpu) time: .*?([\d.]+)(us|ms|s) "
                          r"total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_stats(text: str) -> list[dict]:
    """``Dataset.stats()`` text -> per operator: name, tasks, blocks, and
    total remote wall and cpu seconds."""
    ops = []
    starts = [m for m in _STATS_OP.finditer(text)]
    for k, m in enumerate(starts):
        body = text[m.end(): starts[k + 1].start() if k + 1 < len(starts)
                    else len(text)]
        op = {"name": m.group(1), "tasks": int(m.group(2)),
              "blocks": int(m.group(3)), "wall": 0.0, "cpu": 0.0}
        for t in _STATS_TOTAL.finditer(body):
            op[t.group(1)] = float(t.group(2)) * _UNIT[t.group(3)]
        ops.append(op)
    return ops


LAYER_TIMES = [
    "imgops.decode", "extract.threshold", "extract.metrics", "extract.lines",
    "extract.cells", "extract.tables", "extract.content", "extract.titles",
    "extract.serialize", "extract.pdf_render", "extract.pdftext",
    "extract.borderless", "extract.page", "stages.probe_explode",
    "stages.extractor", "state.stats_init", "state.stats_send",
    "state.stats_flush", "state.stats_read", "state.manifest",
    "pipelines.job", "pipelines.plan", "pipelines.operators", "api.call",
    "api.words",
]
DECODE_FORMATS = ("png", "jpeg", "tiff", "gif", "webp")


def layer_metrics(spans: list[dict], waves: list[dict], wall_s: float,
                  n_docs: int, cpus: int) -> dict:
    """Per-layer metrics from the spans of the traced phase.

    ``waves`` holds, per ``write_parquet`` call, the write span and the
    parsed ``Dataset.stats()``; ``wall_s`` is the traced phase's wall time
    (the sum of its timed calls); ``n_docs`` the documents they handled."""
    self_times(spans)
    m: dict[str, float] = {}

    def total(prefix: str, field: str = "self") -> float:
        return sum(s[field] for s in spans
                   if s["name"] == prefix or s["name"].startswith(prefix + "."))

    for name in LAYER_TIMES:
        key = (f"{name}_self_s" if name in ("stages.extractor", "pipelines.job")
               else f"{name}_s")
        m[key] = total(name)
    for fmt in DECODE_FORMATS:
        m[f"imgops.decode_s.{fmt}"] = total(f"imgops.decode.{fmt}")
    decodes = [s for s in spans if s["name"].startswith("imgops.decode.")]
    m["imgops.decodes"] = len(decodes)
    m["imgops.decode_max_mb"] = max((s.get("bytes", 0) for s in decodes),
                                    default=0) / 1e6
    m["extract.threshold_max_mb"] = max(
        (s.get("bytes", 0) for s in spans if s["name"] == "extract.threshold"),
        default=0) / 1e6
    n_extract = sum(1 for s in spans if s["name"] == "extract.page")
    m["extract.pages"] = n_extract
    pages = sum(s.get("rows", 0) for s in spans
                if s["name"] == "stages.extractor")
    m["stages.pages"] = pages
    m["stages.memo_hit_ratio"] = 1 - n_extract / pages if pages else 0.0
    m["stages.pages_per_doc"] = pages / n_docs if pages else 0.0
    m["state.stats_sends"] = sum(1 for s in spans
                                 if s["name"] == "state.stats_send")

    writes = [w["span"] for w in waves]
    m["pipelines.waves"] = len(writes)
    m["pipelines.write_s"] = sum(w["t1"] - w["t0"] for w in writes)
    # A wave runs from its plan call to the next plan call or job end.
    wave_s = 0.0
    for job in (s for s in spans if s["name"] == "pipelines.job"):
        plans = sorted(s["t0"] for s in spans if s["name"] == "pipelines.plan"
                       and job["t0"] <= s["t0"] <= job["t1"])
        wave_s += sum(b - a for a, b in zip(plans, plans[1:] + [job["t1"]]))
    m["pipelines.wave_s"] = wave_s
    read_wall = map_wall = map_cpu = tasks = blocks = idle = 0.0
    for w in waves:
        r = sum(op["wall"] for op in w["ops"] if op["name"].startswith("Read"))
        mw = sum(op["wall"] for op in w["ops"]
                 if not op["name"].startswith("Read"))
        read_wall += r
        map_wall += mw
        map_cpu += sum(op["cpu"] for op in w["ops"]
                       if not op["name"].startswith("Read"))
        tasks += sum(op["tasks"] for op in w["ops"])
        blocks += sum(op["blocks"] for op in w["ops"])
        span = w["span"]
        idle += max(0.0, (span["t1"] - span["t0"]) - (r + mw) / cpus)
    m.update({"pipelines.read_wall_s": read_wall,
              "pipelines.map_wall_s": map_wall,
              "pipelines.map_cpu_s": map_cpu, "pipelines.tasks": tasks,
              "pipelines.blocks": blocks, "pipelines.idle_s": idle})
    # Time inside Ray Data tasks that no layer span covers (parquet read
    # and write, block conversion): the write spans' self time beyond idle.
    in_task = max(0.0, total("pipelines.write") - idle)
    m["pipelines.task_other_s"] = in_task
    attributed = sum(s["self"] for s in spans
                     if s["name"] != "pipelines.write") + idle
    m["trace.wall_s"] = wall_s
    m["trace.coverage"] = attributed / wall_s if wall_s else 0.0
    return m
