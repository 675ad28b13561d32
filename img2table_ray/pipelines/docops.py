"""Text-analysis operators over the ``documents`` table — Ray-Data-native.

Each public function takes ``sf_dir`` and returns a lazy ``ray.data.Dataset``;
the matching DuckDB oracle SQL lives in :mod:`img2table_ray.pipelines.oracles`.

Design for scale: every op is a single vectorized ``map_batches`` over
pyarrow/pandas batches — no shuffle, no driver-side loop.  Outputs carry only
small derived columns (the input ``text`` is projected away), and all derived
values are integers or strings so the driver's value-hash compare is exact.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray.data

from img2table_ray.functions import hashing

# Fixed vocabularies — mirrored verbatim into the oracle SQL.
STOPWORDS = ("the", "a", "and", "of", "to", "in", "is", "on", "for", "with")

# language marker profiles for the n-gram/stopword language-ID heuristic
LANG_MARKERS: dict[str, tuple[str, ...]] = {
    "de": ("der", "die", "und", "das", "nicht", "ist"),
    "en": ("the", "and", "of", "is", "you", "that"),
    "es": ("el", "la", "los", "que", "de", "es"),
    "fr": ("le", "la", "les", "des", "est", "une"),
}
LANG_FALLBACK = "und"

_TOKEN_RE = r"\S+"
_WORD_RE = r"[a-z]+"
_PUNCT_RE = r"[!-/:-@\[-`{-~]"  # ASCII punctuation, regex-portable to DuckDB
_DIGIT_RE = r"[0-9]"
_UPPER_RE = r"[A-Z]"


def _read_documents(sf_dir: str, columns: list[str]) -> ray.data.Dataset:
    from img2table_ray.sources.readers import read_parquet_clean

    return read_parquet_clean(f"{sf_dir}/documents.parquet", columns=columns)


def token_count(sf_dir: str) -> ray.data.Dataset:
    """doc_id, n_tokens (whitespace tokenization) — single map_batches."""

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": batch["text"].str.count(_TOKEN_RE).astype("int64"),
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pandas", batch_size=4096
    )


def text_quality(sf_dir: str) -> ray.data.Dataset:
    """Integer quality-signal counts per document (hash-exact vs the oracle).

    Columns: doc_id, n_chars, n_tokens, n_words, n_stopwords, n_punct,
    n_digits, n_upper.  Ratios are derivable downstream; emitting integers
    keeps the value-hash compare exact across engines.
    """

    stop = set(STOPWORDS)

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        text = batch["text"]
        lower = text.str.lower()
        words = lower.str.findall(_WORD_RE)
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "n_chars": text.str.len().astype("int64"),
                "n_tokens": text.str.count(_TOKEN_RE).astype("int64"),
                "n_words": words.map(len).astype("int64"),
                "n_stopwords": words.map(
                    lambda ws: sum(1 for w in ws if w in stop)
                ).astype("int64"),
                "n_punct": text.str.count(_PUNCT_RE).astype("int64"),
                "n_digits": text.str.count(_DIGIT_RE).astype("int64"),
                "n_upper": text.str.count(_UPPER_RE).astype("int64"),
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pandas", batch_size=4096
    )


def lang_id(sf_dir: str) -> ray.data.Dataset:
    """Stopword-profile language ID.

    Per language L: score(L) = number of word tokens that are in L's marker
    set.  Prediction = language with max score (ties -> lexicographically
    smallest code); all-zero -> 'und'.  Deterministic, SQL-mirrorable.
    """

    langs = sorted(LANG_MARKERS)
    marker_sets = {lang: set(ws) for lang, ws in LANG_MARKERS.items()}

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        words = batch["text"].str.lower().str.findall(_WORD_RE)
        scores = {
            lang: words.map(lambda ws, m=marker_sets[lang]: sum(1 for w in ws if w in m))
            .astype("int64")
            .to_numpy()
            for lang in langs
        }
        mat = np.stack([scores[lang] for lang in langs], axis=1)
        best = mat.argmax(axis=1)  # argmax returns first (lexicographic) on tie
        pred = np.where(
            mat.max(axis=1) > 0, np.array(langs, dtype=object)[best], LANG_FALLBACK
        )
        out = {"doc_id": batch["doc_id"], "pred_lang": pred}
        for lang in langs:
            out[f"score_{lang}"] = scores[lang]
        return pd.DataFrame(out)

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pandas", batch_size=4096
    )


def doc_fingerprint(sf_dir: str) -> ray.data.Dataset:
    """Content fingerprints: md5 of normalized text + 60-bit SimHash.

    Columns: doc_id, content_hash (md5 hex of lower+ws-collapsed+stripped
    text), simhash (int64, 60-bit).
    """

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        norm = [hashing.normalize_text(t) for t in batch["text"]]
        token_lists = [hashing.tokens_of(t) for t in norm]
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "content_hash": hashing.md5_hex_many(norm),
                "simhash": hashing.simhash60_many(token_lists),
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pandas", batch_size=2048
    )


WINNOW_K = 5  # character k-grams
WINNOW_W = 4  # winnowing window (Schleimer et al. 2003, "local algorithms")


def winnow_fingerprints(sf_dir: str) -> ray.data.Dataset:
    """Winnowing document fingerprints (rolling k-gram hashes, window
    minimum): doc_id, n_fingerprints, min_fp, max_fp — SQL-mirrorable via
    md5-based k-gram hashes and list window minima.

    Hash = first 15 hex chars of md5(k-gram) as int (matches the DuckDB
    hex-cast trick); window min ties resolve to the SMALLEST hash value,
    deduplicated set semantics like the original algorithm.
    """
    from img2table_ray.functions.hashing import md5_int60_many

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        n_fp, min_fp, max_fp = [], [], []
        for text in batch["text"]:
            t = hashing.normalize_text(text)
            grams = [t[i : i + WINNOW_K] for i in range(max(0, len(t) - WINNOW_K + 1))]
            if not grams:
                n_fp.append(0)
                min_fp.append(None)
                max_fp.append(None)
                continue
            hs = md5_int60_many(grams)
            if len(hs) <= WINNOW_W:
                fps = {int(hs.min())}
            else:
                # sliding-window min in int64 (pandas rolling().min() would
                # round-trip through float64 and corrupt 60-bit hashes)
                wins = np.lib.stride_tricks.sliding_window_view(hs, WINNOW_W)
                fps = set(int(v) for v in np.unique(wins.min(axis=1)))
            n_fp.append(len(fps))
            min_fp.append(min(fps))
            max_fp.append(max(fps))
        return pd.DataFrame({
            "doc_id": batch["doc_id"].astype("int64"),
            "n_fingerprints": pd.Series(n_fp, dtype="int64"),
            "min_fp": pd.Series(min_fp, dtype="Int64"),
            "max_fp": pd.Series(max_fp, dtype="Int64"),
        })

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pandas", batch_size=2048
    )


SAMPLE_PCT = 10


def _sample_keys(doc_ids: pd.Series) -> np.ndarray:
    """Per-row sampling key in [0, 100): the first 8 hex digits of
    md5(str(doc_id)) mod 100 (the SQL oracles compute the same)."""
    import hashlib

    return np.fromiter(
        (int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) % 100
         for i in doc_ids),
        dtype="int64", count=len(doc_ids),
    )


def deterministic_sample(sf_dir: str, pct: int = SAMPLE_PCT
                         ) -> ray.data.Dataset:
    """Reproducible ``pct``% corpus sample keyed on md5(doc_id) — the
    sampling primitive a training-data pipeline needs: no RNG state, so
    any re-run (or a resumed partition) selects EXACTLY the same rows,
    and membership is decidable per row without coordination.  A pure
    streaming filter: no shuffle, output scales with the corpus so it
    stays a Dataset.  Columns: doc_id, lang, n_chars.
    """
    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[_sample_keys(batch["doc_id"]) < pct]

    return _read_documents(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(
        fn, batch_format="pandas", batch_size=4096
    )


def repetition_signals(sf_dir: str) -> ray.data.Dataset:
    """Gopher-style repetition quality signals (Rae et al. 2021 §A1.1):
    documents dominated by a few repeated n-grams are low-quality
    boilerplate/spam.  Emits the integer numerators/denominators (the
    downstream filter thresholds their ratios): per doc, total / distinct
    / top-occurrence counts for word bigrams and trigrams.  One
    vectorized-adjacent ``map_batches`` pass, no shuffle; all-int output
    keeps the oracle hash exact.
    """
    from collections import Counter

    def counts(ws: list[str], n: int) -> tuple[int, int, int]:
        grams = [" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)]
        if not grams:
            return 0, 0, 0
        c = Counter(grams)
        return len(grams), len(c), max(c.values())

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        out = {"doc_id": batch["doc_id"].astype("int64")}
        cols = {k: [] for k in
                ("n_bigrams", "n_distinct_bigrams", "top_bigram_n",
                 "n_trigrams", "n_distinct_trigrams", "top_trigram_n")}
        for text in batch["text"]:
            ws = re.findall(_WORD_RE, text.lower())
            t2, d2, m2 = counts(ws, 2)
            t3, d3, m3 = counts(ws, 3)
            cols["n_bigrams"].append(t2)
            cols["n_distinct_bigrams"].append(d2)
            cols["top_bigram_n"].append(m2)
            cols["n_trigrams"].append(t3)
            cols["n_distinct_trigrams"].append(d3)
            cols["top_trigram_n"].append(m3)
        for k, v in cols.items():
            out[k] = pd.Series(v, dtype="int64")
        return pd.DataFrame(out)

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pandas", batch_size=4096
    )


# per-language sampling rates for stratified_sample (mirrored in SQL)
STRATA_PCT = {"en": 20, "de": 50, "es": 80, "fr": 100}
STRATA_DEFAULT_PCT = 10


def stratified_sample(sf_dir: str) -> ray.data.Dataset:
    """Per-stratum deterministic sampling — the corpus-rebalancing
    primitive (e.g. downsample dominant languages, keep all of rare
    ones).  Same md5(doc_id) keying as :func:`deterministic_sample`
    (coordination-free, resume-stable), but the threshold is looked up
    per row from the stratum column.  Pure streaming filter, no shuffle.
    Columns: doc_id, lang, n_chars.
    """
    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        pcts = batch["lang"].map(
            lambda l: STRATA_PCT.get(l, STRATA_DEFAULT_PCT)).to_numpy()
        return batch[_sample_keys(batch["doc_id"]) < pcts]

    return _read_documents(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(
        fn, batch_format="pandas", batch_size=4096
    )


# --- benchmark decontamination -------------------------------------------
# Benchmark membership rule (mirrored by the oracle SQL): a fixed, cheap
# predicate on doc_id stands in for "the eval set" — in production this is
# a separate small table of benchmark documents.
DECON_BENCH_MOD = 29
DECON_N = 5  # word n-gram size


def _word_ngrams(text: str, n: int = DECON_N) -> list[str]:
    ws = re.findall(_WORD_RE, text.lower())
    return [" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)]


MAX_BENCH_GRAMS = 50_000_000  # ~2-4 GB of driver/object-store footprint


def decontaminate(sf_dir: str,
                  max_bench_grams: int = MAX_BENCH_GRAMS) -> ray.data.Dataset:
    """Benchmark decontamination: flag corpus documents sharing any word
    ``DECON_N``-gram with the benchmark set (doc_id % DECON_BENCH_MOD == 0).

    The canonical training-data shape: the benchmark side is SMALL (an
    eval set is MBs where the corpus is TBs), so it is collected once on
    the driver as a frozenset of n-grams — bounded by the benchmark's
    size, never the corpus — broadcast via ``ray.put``, and the corpus
    streams through ONE vectorized ``map_batches`` probing the set.  No
    shuffle, no join; at 100 TB only the benchmark grams move (once per
    node, via the object store).

    The smallness assumption is ENFORCED, not hoped: if the benchmark
    side exceeds ``max_bench_grams`` the collection aborts with a clear
    error instead of silently OOM-ing the driver — at that size the
    broadcast design is wrong and a hash-partitioned gram join is the
    right tool.

    Columns: doc_id, n_hits (distinct contaminated n-grams), contaminated
    (0/1 int64).  Benchmark documents flag themselves by construction —
    exactly what a decontamination pass should report.
    """
    import ray

    bench_grams: set[str] = set()
    bench = _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        lambda b: b[(b["doc_id"] % DECON_BENCH_MOD) == 0],
        batch_format="pandas", batch_size=4096,
    )
    # per-batch local gram sets -> driver union: the collected payload is
    # O(|benchmark grams|), already deduped per batch
    for batch in bench.iter_batches(batch_format="pandas", batch_size=4096):
        for text in batch["text"]:
            bench_grams.update(_word_ngrams(text))
        if len(bench_grams) > max_bench_grams:
            raise ValueError(
                f"benchmark side exceeds {max_bench_grams} n-grams — too "
                "large to broadcast; use a partitioned gram join instead")
    grams_ref = ray.put(frozenset(bench_grams))

    # ray.get of a pickled Python set deserializes on every call — memo
    # it once per worker process (same lifetime as the task pool), so the
    # object store ships the grams once per node and each worker unpickles
    # once, not once per batch
    memo: dict = {}

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        grams = memo.get("g")
        if grams is None:
            grams = memo["g"] = ray.get(grams_ref)
        hits = np.fromiter(
            (len(set(_word_ngrams(t)) & grams) for t in batch["text"]),
            dtype="int64", count=len(batch),
        )
        return pd.DataFrame({
            "doc_id": batch["doc_id"].astype("int64"),
            "n_hits": hits,
            "contaminated": (hits > 0).astype("int64"),
        })

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pandas", batch_size=4096
    )


def pii_scrub(sf_dir: str) -> ray.data.Dataset:
    """PII scrubbing counts over the corpus (emails / phones / IPv4s).

    The synthetic corpus carries no PII, so each document is wrapped with
    deterministic injected PII keyed on doc_id
    (``functions.pii.inject_pii`` — same seeded-harness pattern as
    ``main_content``) and the REAL regex scrubber
    (``functions.pii.scrub_text``) must find and redact exactly what was
    injected.  The oracle mirrors the injection rule; the scrubber's
    behavior on adversarial text is pinned in ``tests/test_pii_url.py``.

    Columns: doc_id, n_emails, n_phones, n_ipv4 — counts only, so the
    oracle compare stays hash-exact (the redacted text itself is pinned
    by the unit-test goldens, not by SQL).
    """
    from img2table_ray.functions.pii import inject_pii, scrub_text

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        n_e, n_p, n_i = [], [], []
        for d, t in zip(batch["doc_id"], batch["text"]):
            _, ne, ni, np_ = scrub_text(inject_pii(int(d), t))
            n_e.append(ne)
            n_i.append(ni)
            n_p.append(np_)
        return pd.DataFrame({
            "doc_id": batch["doc_id"].astype("int64"),
            "n_emails": pd.Series(n_e, dtype="int64"),
            "n_phones": pd.Series(n_p, dtype="int64"),
            "n_ipv4": pd.Series(n_i, dtype="int64"),
        })

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        fn, batch_format="pandas", batch_size=4096
    )


def url_canonicalize(sf_dir: str) -> ray.data.Dataset:
    """Crawl-URL canonicalization: each doc gets a deterministic messy URL
    (``functions.urlnorm.messy_url`` — mixed-case scheme/host, default
    port, dot-segments, percent-encoded unreserved chars, directory-index
    filename, utm tracking params, out-of-order query, fragment) and the
    REAL RFC-3986 normalizer (``functions.urlnorm.canonical_url``) must
    reduce it to the canonical form the oracle reconstructs from doc_id.

    Columns: doc_id, url (canonical), host.  Pure streaming map — the
    canonical url is the dedup/groupby key downstream pipelines use.
    """
    from img2table_ray.functions.urlnorm import canonical_url, messy_url
    from urllib.parse import urlsplit

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        urls = [canonical_url(messy_url(int(d))) for d in batch["doc_id"]]
        return pd.DataFrame({
            "doc_id": batch["doc_id"].astype("int64"),
            "url": urls,
            "host": [urlsplit(u).hostname for u in urls],
        })

    return _read_documents(sf_dir, ["doc_id"]).map_batches(
        fn, batch_format="pandas", batch_size=4096
    )


def main_content(sf_dir: str) -> ray.data.Dataset:
    """HTML boilerplate strip via DOM heuristics (north-rule surface):
    each document's text is embedded in seeded realistic boilerplate
    (nav bars, link-heavy sidebars, ads, comments, footers —
    ``extract.html_content.wrap_boilerplate``) and recovered by the
    Arc90-style readability extractor.  The oracle is byte-exact
    recovery: SELECT doc_id, text FROM documents.  Output scales with
    the corpus, so it stays a streaming Dataset; HTML parsing is
    inherently per-document (like hashing in doc_fingerprint), one
    vectorized-adjacent pass per row inside map_batches.
    """
    from img2table_ray.extract.html_content import (main_content as
                                                    strip_html,
                                                    wrap_boilerplate)
    from img2table_ray.sources.readers import read_parquet_clean
    from img2table_ray.stages.util import shuffle_width

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"],
                "main_text": [
                    strip_html(wrap_boilerplate(int(i), t))
                    for i, t in zip(batch["doc_id"], batch["text"])
                ],
            }
        )

    # cluster-derived block count: Ray's default split of the small
    # documents file makes blocks so small that per-task overhead beats
    # the ~0.35 ms/doc parse (measured 2.1 s @64 default blocks vs
    # 0.75 s @8 on the sf0.1 corpus); shuffle_width() keeps per-block
    # bytes bounded on a real cluster
    return read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"],
        override_num_blocks=shuffle_width(),
    ).map_batches(fn, batch_format="pandas", batch_size=4096)
