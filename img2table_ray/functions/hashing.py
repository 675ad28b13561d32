"""Deterministic hashing primitives shared by the dedup / fingerprint stages.

All hashes are MD5-derived so that the DuckDB oracle SQL (``md5(...)``) can
reproduce them bit-for-bit.  Integer hashes use the first 15 hex chars of the
MD5 digest (60 bits) because DuckDB can cast ``'0x' || substr(md5(x), 1, 15)``
to BIGINT without overflow.

Vectorization strategy: MD5 has no pyarrow kernel, so we hash only *unique*
strings per batch (shingles repeat heavily across documents) and gather the
results back with numpy indices.  At 100 TB scale this runs inside
``map_batches`` per block, so the unique-set never exceeds one block's
vocabulary.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np

# 60-bit integer hash space (15 hex chars) — matches the DuckDB cast trick.
HEX_CHARS = 15
SIMHASH_BITS = 60

_WS = re.compile(r"\s+")
_TOKEN = re.compile(r"\S+")


def md5_hex(s: str) -> str:
    return hashlib.md5(s.encode("utf-8")).hexdigest()


def md5_hex_many(strings: "list[str] | np.ndarray") -> np.ndarray:
    """MD5 hex digests for a sequence of strings (C-loop per item)."""
    md5 = hashlib.md5
    return np.array([md5(s.encode("utf-8")).hexdigest() for s in strings], dtype=object)


def md5_int60_many(strings) -> np.ndarray:
    md5 = hashlib.md5
    return np.array(
        [int(md5(s.encode("utf-8")).hexdigest()[:HEX_CHARS], 16) for s in strings],
        dtype=np.int64,
    )


def normalize_text(s: str) -> str:
    """Lowercase + collapse whitespace + strip — the canonical doc form."""
    return _WS.sub(" ", s.lower()).strip()


def tokens_of(s: str) -> list[str]:
    return _TOKEN.findall(s)


def shingles_of(tokens: list[str], k: int = 3) -> list[str]:
    """Word k-gram shingles, space-joined.  Empty when len(tokens) < k."""
    if len(tokens) < k:
        return []
    return [" ".join(tokens[i : i + k]) for i in range(len(tokens) - k + 1)]


def minhash_signatures(
    shingle_lists: list[list[str]], num_hashes: int
) -> list[list[str]]:
    """Per-document MinHash signature: sig[i] = min over shingles of
    md5(f"{i}:{shingle}") as a hex string (lexicographic min).

    DuckDB oracle:
      list_min(list_transform(shingles, s -> md5(i || ':' || s)))

    Hashes unique shingles once across the whole input list; a document with
    no shingles gets an empty signature.
    """
    uniq: dict[str, int] = {}
    for sl in shingle_lists:
        for s in sl:
            if s not in uniq:
                uniq[s] = len(uniq)
    n_uniq = len(uniq)
    # hash matrix: (num_hashes, n_uniq) of hex strings
    md5 = hashlib.md5
    uniq_keys = list(uniq.keys())
    mat = np.empty((num_hashes, n_uniq), dtype=object)
    for i in range(num_hashes):
        pref = f"{i}:".encode()
        mat[i] = [md5(pref + s.encode("utf-8")).hexdigest() for s in uniq_keys]
    out: list[list[str]] = []
    for sl in shingle_lists:
        if not sl:
            out.append([])
            continue
        idx = np.fromiter((uniq[s] for s in sl), dtype=np.int64, count=len(sl))
        sub = mat[:, idx]
        out.append([str(row.min()) for row in sub])
    return out


def band_hashes(signature: list[str], band_size: int) -> list[str]:
    """LSH band hash b = md5('|'.join(sig[b*r:(b+1)*r]))."""
    return [
        md5_hex("|".join(signature[b : b + band_size]))
        for b in range(0, len(signature), band_size)
    ]


def simhash60_many(token_lists: list[list[str]]) -> np.ndarray:
    """Vectorized SimHash over many docs; hashes unique tokens once."""
    uniq: dict[str, int] = {}
    for tl in token_lists:
        for t in tl:
            if t not in uniq:
                uniq[t] = len(uniq)
    ints = md5_int60_many(list(uniq.keys())) if uniq else np.empty(0, np.int64)
    shifts = np.arange(SIMHASH_BITS, dtype=np.int64)
    bitmat = (ints[:, None] >> shifts[None, :]) & 1 if len(ints) else None
    out = np.zeros(len(token_lists), dtype=np.int64)
    for d, tl in enumerate(token_lists):
        if not tl:
            continue
        idx = np.fromiter((uniq[t] for t in tl), dtype=np.int64, count=len(tl))
        sums = (2 * bitmat[idx] - 1).sum(axis=0)
        out[d] = int(((sums > 0).astype(np.int64) << shifts).sum())
    return out
