"""Stage-sizing helpers shared by all Ray Data pipelines, and the base of
the actor-pool stages that map one binary payload column."""

from __future__ import annotations

import hashlib

import pyarrow as pa
import ray

# per-actor memo entries of a PayloadStage
MEMO_SIZE = 256


def actor_concurrency(reserve: int = 2, cap: int = 24) -> int:
    """Fixed actor-pool size that never starves the rest of the pipeline.

    Leaves ``reserve`` CPUs for the read / shuffle / write stages.  A pool
    sized to every CPU deadlocks a small local session (the downstream
    reduce tasks cannot schedule), and on a real cluster it serializes the
    pipeline.  Fixed (not autoscaling ``(1, n)``): Ray's autoscaling pool
    ramps up far too slowly for short jobs — measured ~2 effective actors
    against 32 queued blocks.
    """
    try:
        total = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        total = 4
    return max(1, min(cap, total - reserve))


def shuffle_width(min_width: int = 8, cpus_per_block: int = 4) -> int:
    """Coalesce width for a ``repartition`` placed before a small groupby.

    Ray's sort-shuffle fixed cost scales with input block count (measured
    3-4x on tiny combiner outputs), so coalescing first is load-bearing —
    but a hardcoded width silently turns into TB-sized blocks on a real
    cluster.  Derive it from cluster CPUs instead: one block per
    ``cpus_per_block`` CPUs, floored at ``min_width``.  On the 32-CPU test
    box this is 8 (the measured sweet spot); on a 256-node x 64-CPU
    cluster it is 4096 blocks, keeping per-block bytes bounded while still
    collapsing the 100k-task exploded sets that make the shuffle slow.
    """
    try:
        total = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        total = 4
    return max(min_width, total // cpus_per_block)


class PayloadStage:
    """Actor-pool ``map_batches`` stage over one binary payload column.

    A stage declares its output ``schema`` (the ``keys`` columns first,
    then its value columns) and a per-row function ``rows(data, *reads)``
    that returns the value tuples of zero or more output rows for one
    payload; ``reads`` names the key columns it takes besides the payload.
    The base owns the rest: the loop over the batch, a per-actor memo of
    ``rows`` keyed by the payload's md5 and the ``reads`` values (at most
    ``MEMO_SIZE`` entries), the failure policy (a raising payload becomes
    the one row ``failed(data, status, exc)``, status ``"unsupported"``
    for ``NotImplementedError`` and ``"error"`` otherwise) and the typed
    output table.  ``payload`` falls back to ``html`` when the batch lacks
    it.
    """

    keys: tuple = ("url",)
    reads: tuple = ()
    payload = "html"
    schema: dict = {}

    def __init__(self) -> None:
        self._memo: dict = {}

    def failed(self, data: bytes, status: str, exc: Exception) -> tuple:
        """Value row of a payload whose ``rows`` raised: nulls, then the
        status in the last column."""
        return (None,) * (len(self.schema) - len(self.keys) - 1) + (status,)

    def __call__(self, batch: pa.Table) -> pa.Table:
        names = batch.schema.names
        payload = self.payload if self.payload in names else "html"
        at = [self.keys.index(name) for name in self.reads]
        out = []
        for key, data in zip(zip(*(batch[k].to_pylist() for k in self.keys)),
                             batch[payload].to_pylist()):
            args = tuple(key[i] for i in at)
            memo_key = (hashlib.md5(data).digest(), *args)
            rows = self._memo.get(memo_key)
            if rows is None:
                try:
                    rows = self.rows(data, *args)
                except Exception as exc:
                    status = ("unsupported"
                              if isinstance(exc, NotImplementedError)
                              else "error")
                    rows = [self.failed(data, status, exc)]
                if len(self._memo) < MEMO_SIZE:
                    self._memo[memo_key] = rows
            out.extend(key + row for row in rows)
        return pa.table({name: pa.array([row[i] for row in out], typ)
                         for i, (name, typ) in enumerate(self.schema.items())})

    @classmethod
    def map_batches(cls, ds, batch_size: int, **kwargs):
        """``ds`` through an actor pool of this stage; ``kwargs`` go to the
        constructor."""
        return ds.map_batches(cls, batch_format="pyarrow",
                              batch_size=batch_size,
                              fn_constructor_kwargs=kwargs,
                              concurrency=actor_concurrency(), num_cpus=1)
