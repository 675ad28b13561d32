"""Partitioned word-provider lookup service.

The words sidecar sits between the two classic sizes: too big to
broadcast to every worker at 100 TB (hOCR strings are a few KB per
page), yet tiny next to the pages table whose rows carry the full
document bytes.  A hash-partitioned ``Dataset.join`` would move the
WRONG side: every page row's ``html`` payload would cross the shuffle
to meet a few-KB string (measured at sf0.1 / 32 CPUs: such a join cost
34 s on inputs that take 2.7 s to produce).

This service shuffles ONLY the words: K shard actors each hold the
``(url, page) -> hocr`` map for their hash slice (loaded by a streaming
``map_batches`` pass over the words parquet — no driver-side
materialization), and the extraction stage bulk-fetches exactly the
keys of each batch (one ``get_many`` RPC per touched shard per batch).
Pages never shuffle; the bytes that cross the wire are precisely the
hOCR strings a batch needs.

Scale story: K grows with the cluster (shard memory = words-bytes / K);
fetch traffic per batch is bounded by batch_size hOCR strings; the
actors are read-only after the load.  Keys are md5-bucketed so placement
is stable across runs and processes.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
import ray


def _bucket(url: str, page: int, k: int) -> int:
    h = hashlib.md5(f"{url}\x1f{page}".encode()).digest()
    return int.from_bytes(h[:8], "big") % k


# num_cpus=0, like StatsShards: the shards only answer lookups, and a CPU
# reservation held by them leaves a one-CPU session unable to schedule the
# one-CPU load and extraction tasks.
@ray.remote(num_cpus=0)
class WordsShard:
    """One hash slice of the words table (read-only after load)."""

    def __init__(self) -> None:
        self._d: dict[tuple[str, int], str] = {}

    def put_many(self, items: list[tuple[tuple[str, int], str]]) -> int:
        self._d.update(items)
        return len(self._d)

    def get_many(self, keys: list[tuple[str, int]]) -> list[str | None]:
        d = self._d
        return [d.get(k) for k in keys]

    def size(self) -> int:
        return len(self._d)


class WordsService:
    """Handle bundle passed into extraction tasks (pickles cheaply)."""

    def __init__(self, shards: list) -> None:
        self.shards = shards

    def fetch(self, keys: list[tuple[str, int]]) -> list[str | None]:
        """Bulk lookup preserving order; one RPC per touched shard.

        Degrades, never fails: a dead or unreachable shard (node loss on
        the at-scale path this service exists for) yields ``None`` for
        its keys after one retry, so extraction produces word-less rows
        instead of a failed task (ADVICE r3)."""
        k = len(self.shards)
        by_shard: dict[int, list[int]] = {}
        for i, (url, page) in enumerate(keys):
            by_shard.setdefault(_bucket(url, page, k), []).append(i)
        out: list[str | None] = [None] * len(keys)
        refs = []
        for sid, idxs in by_shard.items():
            refs.append((sid, idxs, self.shards[sid].get_many.remote(
                [keys[i] for i in idxs])))
        for sid, idxs, ref in refs:
            try:
                vals = ray.get(ref)
            except Exception:
                try:  # one retry covers transient RPC loss; a dead
                    # actor fails again immediately and we degrade
                    vals = ray.get(self.shards[sid].get_many.remote(
                        [keys[i] for i in idxs]))
                except Exception:
                    continue  # out[] stays None for this shard's keys
            for i, v in zip(idxs, vals):
                out[i] = v
        return out


def build_words_service(words_dir: str, num_shards: int) -> WordsService:
    """Stream the words parquet into K shard actors; returns the handle
    bundle.  Each loader task pushes its batch's rows to their owning
    shards (no driver-side pass over the table)."""
    shards = [WordsShard.remote() for _ in range(num_shards)]
    ds = ray.data.read_parquet(words_dir)

    def push(batch: pa.Table) -> pa.Table:
        urls = batch["url"].to_pylist()
        pages = (batch["page"].to_pylist() if "page" in batch.schema.names
                 else [0] * len(batch))
        hocrs = batch["hocr"].to_pylist()
        by_shard: dict[int, list] = {}
        for u, p, h in zip(urls, pages, hocrs):
            if h is None:
                continue
            by_shard.setdefault(_bucket(u, int(p), num_shards), []).append(
                ((u, int(p)), h))
        # synchronous push: the load pass must complete before extraction
        ray.get([shards[s].put_many.remote(items)
                 for s, items in by_shard.items()])
        return pa.table({"n": pa.array([len(batch)], pa.int64())})

    total = sum(r["n"] for r in
                ds.map_batches(push, batch_format="pyarrow").take_all())
    del total
    return WordsService(shards)
