"""Deduplication operators over the ``documents`` table — Ray-Data-native.

Five families (per the engine charter): exact hash dedup, MinHash+LSH
near-dup, SimHash, n-gram Jaccard verification, embedding-cosine near-dup.
All hashes are MD5-derived so the DuckDB oracles in
:mod:`img2table_ray.pipelines.oracles` reproduce them exactly.

Scale notes (100 TB design, tested single-node):

* ``exact_dedup``: content-hash in a vectorized ``map_batches``, then a
  *partial* min-reduce per batch (combiner) before the global
  ``groupby(hash)`` — the shuffle moves one row per (hash, batch), not one
  per document.
* ``minhash_lsh_pairs`` / ``simhash_near_dup``: signature computation is
  embarrassingly parallel per batch; the only shuffle before the pair
  distinct is ``stages.util.map_key_groups`` on the bucket key ((band,
  band_hash) or (chunk, chunk_val)): a bucket never splits across calls,
  and a call holds one slot of buckets (``pair_slots()`` slots), never
  the corpus.  ``_hot_bucket_pairs`` walks a slot's buckets; hot buckets
  (identical boilerplate) are capped at MAX_BUCKET docs rather than
  exploding O(n²).
* ``embedding_dup_pairs``: IVF-bucketed candidate generation (multi-probe
  assignment -> within-bucket pairs -> pair-key dedup) — per-task memory is
  O(bucket), never O(corpus).
* ``ngram_jaccard_pairs``: candidates verified via distributed hash joins
  against a shingle Dataset keyed by doc_id — nothing corpus-sized ever
  lands on the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Min

from img2table_ray.functions import hashing
from img2table_ray.stages.util import (actor_concurrency, map_key_groups,
                                       shuffle_width)

SHINGLE_K = 3  # word-shingle width
NUM_HASHES = 16  # minhash signature length
BAND_SIZE = 2  # rows per LSH band -> 8 bands
JACCARD_NUM = 1  # keep pairs with n_inter * JACCARD_DEN >= n_union * JACCARD_NUM
JACCARD_DEN = 2  # i.e. Jaccard >= 0.5, compared in exact integer arithmetic
# Hot-bucket guard: a bucket is truncated (deterministic order) past this
# many docs, trading recall for a bound on the quadratic per-bucket work.
# 4096 docs -> at most ~8.4M candidate pairs per bucket, comfortably one
# vectorized task; the cap exists for PATHOLOGICAL buckets only.  It must
# sit far above real bucket sizes: at 64 it silently bound on sf0.1's
# simhash chunks (269-doc buckets -> 84 of 512 true pairs dropped, caught
# by the full-scale oracle sweep) — the oracles are UNcapped, so a binding
# cap is a correctness bug at the tested scales, not an optimization.
MAX_BUCKET = 4096


def _docs(sf_dir: str) -> ray.data.Dataset:
    from img2table_ray.sources.readers import read_parquet_clean

    return read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])


def exact_dedup(sf_dir: str) -> ray.data.Dataset:
    """One surviving doc per exact text hash: (content_hash, doc_id=min id).

    Pattern: vectorized hash -> per-batch combiner (min doc_id per hash) ->
    small global groupby.  Oracle: GROUP BY md5(text) with min(doc_id).
    """

    def hash_and_combine(batch: pd.DataFrame) -> pd.DataFrame:
        h = hashing.md5_hex_many(batch["text"].tolist())
        part = (
            pd.DataFrame({"content_hash": h, "doc_id": batch["doc_id"]})
            .groupby("content_hash", as_index=False)["doc_id"]
            .min()
        )
        return part

    partial = _docs(sf_dir).map_batches(
        hash_and_combine, batch_format="pandas", batch_size=4096
    )
    # coalesce before the shuffle: Ray's sort-shuffle fixed cost scales with
    # input block count (measured 3-4x on the combiner output), and the
    # combiner output is tiny relative to the input (at 100 TB the coalesce
    # is noise next to the scan); width scales with cluster CPUs
    partial = partial.repartition(shuffle_width())
    return partial.groupby("content_hash").aggregate(Min("doc_id", alias_name="doc_id"))


def _minhash_explode(batch: pd.DataFrame) -> pd.DataFrame:
    """Shingle + minhash + LSH band hashes per batch: emits exploded
    (doc_id, band, band_hash) rows.  Unique shingles are hashed once per
    batch (see hashing.minhash_signatures).  Stateless task — regexes are
    compiled at module import in the long-lived worker process, so an actor
    pool would only add startup cost."""
    texts = [hashing.normalize_text(t) for t in batch["text"]]
    shingle_lists = [
        hashing.shingles_of(hashing.tokens_of(t), SHINGLE_K) for t in texts
    ]
    sigs = hashing.minhash_signatures(shingle_lists, NUM_HASHES)
    doc_ids: list[int] = []
    bands: list[int] = []
    bhashes: list[str] = []
    for doc_id, sig in zip(batch["doc_id"], sigs):
        if not sig:
            continue  # < SHINGLE_K tokens: no shingles, excluded
        bh = hashing.band_hashes(sig, BAND_SIZE)
        doc_ids.extend([doc_id] * len(bh))
        bands.extend(range(len(bh)))
        bhashes.extend(bh)
    return pd.DataFrame(
        {
            "doc_id": pd.Series(doc_ids, dtype="int64"),
            "band": pd.Series(bands, dtype="int64"),
            "band_hash": pd.Series(bhashes, dtype="object"),
        }
    )


def _hot_bucket_pairs(df: pd.DataFrame) -> tuple[pd.DataFrame, np.ndarray,
                                             np.ndarray]:
    """The within-bucket pairs of every bucket ``code`` in ``df`` (columns
    ``code``, ``doc_id`` and any per-doc payload).  One walk: drop
    duplicate (code, doc_id) rows, count, keep the codes with >= 2 docs,
    sort by (code, doc_id), and keep each bucket's first MAX_BUCKET docs.
    Returns those rows and the positions ``(a, b)`` into them of every
    pair a < b within one bucket, bucket by bucket in row-major order."""
    df = df.drop_duplicates(["code", "doc_id"])
    counts = df["code"].value_counts()
    hot = df[df["code"].isin(counts[counts >= 2].index)
             ].sort_values(["code", "doc_id"])
    code = hot["code"].to_numpy()
    start = np.flatnonzero(np.r_[True, code[1:] != code[:-1]])
    size = np.diff(np.r_[start, len(code)])
    pos = np.arange(len(code)) - np.repeat(start, size)
    keep = pos < MAX_BUCKET
    hot, pos = hot[keep], pos[keep]
    size = np.minimum(size, MAX_BUCKET)
    # row i pairs with the rest of its bucket: rows i+1 .. bucket end
    partners = np.repeat(size, size) - 1 - pos
    a = np.repeat(np.arange(len(hot)), partners)
    step = np.arange(len(a)) - np.repeat(np.cumsum(partners) - partners,
                                         partners)
    return hot, a, a + 1 + step


def _slot_pairs(group: pd.DataFrame) -> pd.DataFrame:
    """Within-bucket pairs for EVERY (band, band_hash) bucket of one slot.
    One Python call handles thousands of buckets: grouping by a slot of
    the bucket key instead of the bucket key cut map_groups' per-group
    UDF overhead from ~38k calls to ``pair_slots()`` calls (measured
    4.8 s -> 0.6 s on the sf0.1 stage); bucket semantics (dedup, sort,
    MAX_BUCKET hot-key cap) are unchanged and pinned by the oracle."""
    codes, _ = pd.factorize(
        group["band"].astype(str) + "\x1f" + group["band_hash"].astype(str),
        sort=False)
    hot, a, b = _hot_bucket_pairs(pd.DataFrame(
        {"code": codes, "doc_id": group["doc_id"].to_numpy()}))
    ids = hot["doc_id"].to_numpy()
    return pd.DataFrame({"doc_id_a": ids[a], "doc_id_b": ids[b]})


def pair_slots() -> int:
    """Slot count for the bucket pair stage: scales with cluster
    CPUs (parallelism) — and on a real deployment should additionally be
    floored by corpus_bytes / target_group_bytes so one slot's rows
    (corpus x bands / slots) stay addressable in a single pandas group."""
    return 4 * actor_concurrency()


def minhash_lsh_pairs(sf_dir: str) -> ray.data.Dataset:
    """Distinct candidate near-dup pairs (doc_id_a < doc_id_b) from MinHash-LSH.

    shingle(k=3) -> 16 minhashes -> 8 bands of 2 -> groupby(band, band_hash)
    -> pairs -> distinct.
    """
    from img2table_ray.sources.readers import read_parquet_clean

    # signature hashing is the CPU-heavy stage: split the READ into enough
    # blocks that stateless map tasks fill the CPUs (override_num_blocks is
    # a read-side split — no shuffle, unlike repartition; no actor pool —
    # md5 hashing needs no warm state and pool startup dominated timings)
    exploded = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
        override_num_blocks=actor_concurrency(),
    ).map_batches(_minhash_explode, batch_format="pandas", batch_size=1024)
    # coalesce before the shuffle (sort-shuffle fixed cost scales with
    # input block count; the exploded band rows are tiny relative to the
    # corpus); width derived from cluster size, never a hardcode.  Then
    # group by a slot of the bucket key, not the bucket key itself:
    # map_groups invokes its UDF once per group, and per-(band,
    # band_hash) grouping meant ~38k Python calls on tiny buckets (4.8 s
    # of the 10.6 s pipeline at sf0.1).  _slot_pairs recovers exact
    # bucket semantics vectorized inside each slot.
    pairs = map_key_groups(exploded.repartition(shuffle_width()),
                           ["band", "band_hash"], _slot_pairs, pair_slots())
    # per-batch combiner: a pair found in several bands usually lands in the
    # same output batch — drop duplicates BEFORE the distinct shuffle
    pairs = pairs.map_batches(
        lambda b: b.drop_duplicates(), batch_format="pandas"
    )
    # distinct pairs: native aggregate (no per-group Python), drop the count
    from ray.data.aggregate import Count

    return (
        pairs.groupby(["doc_id_a", "doc_id_b"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
    )


MAX_CC_ROUNDS = 16  # min-label propagation: rounds needed = component diameter


def minhash_dedup(sf_dir: str) -> ray.data.Dataset:
    """Near-dup dedup: map every doc to its cluster survivor (min doc_id).

    Connected components over the MinHash-LSH candidate-pair graph via
    iterative min-label propagation, all Ray-Data-native:

    1. labels(doc_id, survivor_id=doc_id) for EVERY document (singletons
       survive as themselves);
    2. each round hash-joins the (directed both ways) edge set against the
       current labels and takes ``min(survivor_id)`` per doc over
       {self} ∪ neighbors — two shuffles over O(V+E) rows per round;
    3. stop when the global label sum stops decreasing (labels are
       monotonically non-increasing, so an unchanged sum == fixpoint).

    The per-round ``materialize()`` is the iterative-algorithm exception to
    the no-mid-pipeline-materialization rule: without it every round would
    re-execute the whole lineage (shingling included) from the start.  What
    is materialized is O(corpus rows x 16 bytes) in the OBJECT STORE (ids
    only, never text), not on the driver.  Rounds needed = max component
    diameter; near-dup clusters are dense (diameter ~1-2), and the cap is
    a documented safety valve, not a tuning knob.  Oracle: recursive CTE
    (transitive closure + min) in ``oracles.minhash_dedup_sql``.
    """
    width = shuffle_width()
    # candidate pairs are tiny relative to the corpus (near-dup buckets);
    # materialize once so the edge set isn't recomputed every round
    pairs = minhash_lsh_pairs(sf_dir).materialize()

    def both_dirs(b: pa.Table) -> pa.Table:
        a = b.column("doc_id_a").cast(pa.int64()).combine_chunks()
        c = b.column("doc_id_b").cast(pa.int64()).combine_chunks()
        return pa.table(
            {
                "doc_id": pa.concat_arrays([a, c]),
                "nbr": pa.concat_arrays([c, a]),
            }
        )

    edges = pairs.map_batches(both_dirs, batch_format="pyarrow").materialize()

    def init_labels(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").cast(pa.int64())
        return pa.table({"doc_id": ids, "survivor_id": ids})

    labels = (
        _docs(sf_dir)
        .map_batches(init_labels, batch_format="pyarrow", batch_size=4096)
        .repartition(width)
        .materialize()
    )

    from ray.data.aggregate import Sum

    def label_sum(ds: ray.data.Dataset) -> int:
        return int(ds.aggregate(Sum("survivor_id", alias_name="s"))["s"])

    prev = label_sum(labels)
    for _ in range(MAX_CC_ROUNDS):
        # neighbor labels: edge.nbr -> its current survivor_id
        nbr_view = labels.map_batches(
            lambda b: pa.table(
                {"nbr": b.column("doc_id"), "survivor_id": b.column("survivor_id")}
            ),
            batch_format="pyarrow",
        )
        nbr_labels = edges.join(
            nbr_view,
            join_type="inner",
            num_partitions=width,
            on=("nbr",),
            aggregator_ray_remote_args={"num_cpus": 0.25},
        ).select_columns(["doc_id", "survivor_id"])
        labels = (
            labels.union(nbr_labels)
            .groupby("doc_id")
            .aggregate(Min("survivor_id", alias_name="survivor_id"))
            .materialize()
        )
        cur = label_sum(labels)
        if cur == prev:
            break
        prev = cur
    return labels


def ngram_jaccard_pairs(sf_dir: str) -> ray.data.Dataset:
    """LSH candidates verified by exact n-gram Jaccard >= 1/2.

    Columns: doc_id_a, doc_id_b, n_inter, n_union (exact integers).

    Fully distributed verify (no driver-side candidate or shingle
    materialization): a shingle-set Dataset (doc_id, shingles) is computed
    per batch and hash-JOINED against the candidate-pair Dataset twice —
    once per pair side — then each joined row's two shingle lists are
    compared exactly.  Both joins are bucketed by doc_id; the pair side is
    tiny, the shingle side streams through the shuffle once per join.
    """
    cand = minhash_lsh_pairs(sf_dir)

    def shingle_ds(id_col: str, sh_col: str) -> ray.data.Dataset:
        # shingle sets ride through the join as a single \x1f-delimited
        # string column (Arrow's hash join rejects list-typed payloads)
        def to_shingles(batch: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    id_col: batch["doc_id"].astype("int64"),
                    sh_col: [
                        "\x1f".join(
                            set(
                                hashing.shingles_of(
                                    hashing.tokens_of(hashing.normalize_text(t)),
                                    SHINGLE_K,
                                )
                            )
                        )
                        for t in batch["text"]
                    ],
                }
            )

        return _docs(sf_dir).map_batches(
            to_shingles, batch_format="pandas", batch_size=4096
        )

    n_join = max(2, actor_concurrency() // 4)
    joined = cand.join(
        shingle_ds("doc_id_a", "sh_a"),
        join_type="inner", num_partitions=n_join, on=("doc_id_a",),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    ).join(
        shingle_ds("doc_id_b", "sh_b"),
        join_type="inner", num_partitions=n_join, on=("doc_id_b",),
        aggregator_ray_remote_args={"num_cpus": 0.25},
    )

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        inter = np.empty(len(batch), dtype=np.int64)
        union = np.empty(len(batch), dtype=np.int64)
        for i, (sa, sb) in enumerate(zip(batch["sh_a"], batch["sh_b"])):
            a = set(sa.split("\x1f")) if sa else set()
            b_ = set(sb.split("\x1f")) if sb else set()
            inter[i] = len(a & b_)
            union[i] = len(a | b_)
        out = pd.DataFrame(
            {
                "doc_id_a": batch["doc_id_a"].astype("int64"),
                "doc_id_b": batch["doc_id_b"].astype("int64"),
                "n_inter": inter,
                "n_union": union,
            }
        )
        return out[out["n_inter"] * JACCARD_DEN >= out["n_union"] * JACCARD_NUM]

    return joined.map_batches(verify, batch_format="pandas", batch_size=8192)


def simhash_near_dup(sf_dir: str, max_hamming: int = 3) -> ray.data.Dataset:
    """SimHash near-dup pairs: group by simhash band (4 x 15-bit chunks —
    <=3 differing bits can spoil at most 3 of 4 chunks, so banding is
    lossless for max_hamming=3), verify Hamming distance <= max_hamming.
    Columns: doc_id_a, doc_id_b, hamming.  Oracle: the same blocking +
    xor/bit_count verify in DuckDB (oracles.simhash_near_dup_sql)."""

    def sim(batch: pd.DataFrame) -> pd.DataFrame:
        token_lists = [
            hashing.tokens_of(hashing.normalize_text(t)) for t in batch["text"]
        ]
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].astype("int64"),
                "simhash": hashing.simhash60_many(token_lists),
            }
        )

    sims = _docs(sf_dir).map_batches(sim, batch_format="pandas", batch_size=2048)

    def explode_chunks(batch: pd.DataFrame) -> pd.DataFrame:
        n = len(batch)
        sh = batch["simhash"].to_numpy()
        frames = []
        for c in range(4):
            frames.append(
                pd.DataFrame(
                    {
                        "doc_id": batch["doc_id"],
                        "simhash": sh,
                        "chunk": np.full(n, c, dtype=np.int64),
                        "chunk_val": (sh >> (15 * c)) & 0x7FFF,
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    exploded = sims.map_batches(explode_chunks, batch_format="pandas")

    def slot_chunk_pairs(group: pd.DataFrame) -> pd.DataFrame:
        """Hamming-verified pairs for every (chunk, chunk_val) bucket of
        one slot (see _slot_pairs)."""
        hot, a, b = _hot_bucket_pairs(group.assign(
            code=group["chunk"].to_numpy(np.int64) * 32768
            + group["chunk_val"].to_numpy(np.int64)))
        ids = hot["doc_id"].to_numpy()
        hs = hot["simhash"].to_numpy()
        # vectorized 64-bit popcount (Hacker's Delight 5-2): the Python
        # int.bit_count() loop was fine at 64-doc buckets but not at the
        # ~36k pairs a 269-doc bucket generates
        v = (hs[a] ^ hs[b]).astype(np.uint64)
        v = v - ((v >> np.uint64(1)) & np.uint64(0x5555555555555555))
        v = ((v & np.uint64(0x3333333333333333))
             + ((v >> np.uint64(2)) & np.uint64(0x3333333333333333)))
        v = (v + (v >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        ham = ((v * np.uint64(0x0101010101010101)) >> np.uint64(56)
               ).astype(np.int64)
        keep = ham <= max_hamming
        return pd.DataFrame({"doc_id_a": ids[a][keep],
                             "doc_id_b": ids[b][keep], "hamming": ham[keep]})

    pairs = map_key_groups(exploded.repartition(shuffle_width()),
                           ["chunk", "chunk_val"], slot_chunk_pairs,
                           pair_slots())
    return (
        pairs.repartition(shuffle_width())
        .groupby(["doc_id_a", "doc_id_b"])
        .aggregate(Min("hamming", alias_name="hamming"))
    )


def embedding_dup_pairs(sf_dir: str, threshold: float = 0.42,
                        nlist: int = 16, nassign: int = 6) -> ray.data.Dataset:
    """Embedding-cosine near-dup pairs (vec_id_a < vec_id_b, sim >= threshold).

    The default threshold (0.42) is tuned to the synthetic corpus, whose
    vectors are near-orthogonal (max pairwise cosine ~0.51) — a production
    near-dup run would use ~0.95+.

    Scale design (no full-matrix broadcast): IVF centroids are trained on a
    bounded distributed sample; each batch assigns every vector to its
    ``nassign`` nearest centroid buckets (multi-probe — a qualifying pair
    only needs ONE shared bucket); within-bucket all-pairs cosine runs in
    ``groupby(bucket).map_groups``; cross-bucket duplicates collapse in a
    final pair-key groupby.  Per-task memory is O(bucket), not O(corpus).
    Multi-probe recall is validated against the exact DuckDB oracle by the
    driver's correctness gate.  Columns: vec_id_a, vec_id_b, sim (round 6).
    """
    from img2table_ray.pipelines.similarity import train_centroids
    from img2table_ray.sources.readers import read_parquet_clean

    cent = train_centroids(sf_dir, nlist)
    cent_ref = ray.put(cent)

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        centroids = ray.get(cent_ref)
        bm = np.array(batch["embedding"].tolist(), dtype=np.float64)
        bn = np.linalg.norm(bm, axis=1)
        bn[bn == 0] = 1.0
        buckets = np.argsort(-((bm / bn[:, None]) @ centroids.T), axis=1)[:, :nassign]
        return pd.DataFrame(
            {
                "bucket": buckets.ravel().astype(np.int64),
                "vec_id": np.repeat(batch["vec_id"].to_numpy().astype(np.int64),
                                    nassign),
                "embedding": [e for e in batch["embedding"] for _ in range(nassign)],
            }
        )

    def bucket_pairs(group: pd.DataFrame) -> pd.DataFrame:
        g = group.drop_duplicates("vec_id").sort_values("vec_id")
        ids = g["vec_id"].to_numpy()
        if len(ids) < 2:
            return pd.DataFrame({"vec_id_a": pd.Series(dtype="int64"),
                                 "vec_id_b": pd.Series(dtype="int64"),
                                 "sim": pd.Series(dtype="float64")})
        m = np.array(g["embedding"].tolist(), dtype=np.float64)
        n_ = np.linalg.norm(m, axis=1)
        n_[n_ == 0] = 1.0
        # same op order as the exact oracle path: raw dots, then /norm_a /norm_b
        sims = (m @ m.T) / n_[:, None] / n_[None, :]
        ia, ib = np.triu_indices(len(ids), k=1)
        s6 = np.round(sims[ia, ib], 6)
        keep = s6 >= threshold
        return pd.DataFrame({"vec_id_a": ids[ia][keep], "vec_id_b": ids[ib][keep],
                             "sim": s6[keep]})

    pairs = (
        read_parquet_clean(f"{sf_dir}/embeddings.parquet",
                           columns=["vec_id", "embedding"])
        .map_batches(assign, batch_format="pandas", batch_size=2048)
        .groupby("bucket")
        .map_groups(bucket_pairs, batch_format="pandas")
    )
    return (
        pairs.groupby(["vec_id_a", "vec_id_b"])
        .aggregate(Min("sim", alias_name="sim"))
    )
