"""Content hash of one ``queries()`` output, for "same bytes" checks
across a code change.

    python tests/tools/output_hash.py QUERY SF

QUERY is a ``queries()`` name (e.g. ``extract_tables``); SF is a testdata
scale-factor directory (e.g. ``.../testdata/sf0.1``).  The query runs in
a local Ray session of ``NUM_CPUS`` CPUs.  Binary cells are written as
hex and list cells as JSON arrays, both as strings; the output is then
sorted by its key columns (those of url, doc_id, page and table_idx it
has) followed by every other column, written as pandas JSON lines (one
record per row) and hashed with sha256.  Prints one line: query, sf, row
count, status counts when the output has a ``status`` column, and the
hash.  Run it on both sides of a change with the same arguments and
compare the hashes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

# row key of the outputs: (url, page) for the page summaries, plus
# table_idx for the table rows; (doc_id, page) for the PDF words
KEY_COLUMNS = ("url", "doc_id", "page", "table_idx")
# the output is sorted before hashing, so the session size does not
# change the hash
NUM_CPUS = 4


def _cell(value):
    """A binary or list cell as a string that JSON and sorting both take."""
    if isinstance(value, (bytes, bytearray)):
        return value.hex()
    if isinstance(value, (list, tuple, np.ndarray)):
        return json.dumps(np.asarray(value).tolist())
    return value


def output_hash(df) -> str:
    return hashlib.sha256(
        df.to_json(orient="records", lines=True).encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("query")
    ap.add_argument("sf")
    args = ap.parse_args()

    import ray
    import ray.data

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False
    sys.path.insert(0, REPO)
    import __ray_entry__ as em

    out = em.queries()[args.query](args.sf)
    df = out.to_pandas() if hasattr(out, "to_pandas") else out
    for col in df.columns[df.dtypes == object]:
        df[col] = df[col].map(_cell)
    keys = [c for c in KEY_COLUMNS if c in df.columns]
    keys += [c for c in df.columns if c not in keys]
    df = df.sort_values(keys, kind="mergesort").reset_index(drop=True)
    status = ""
    if "status" in df.columns:
        counts = df["status"].value_counts().sort_index()
        status = " " + ",".join(f"{k}={v}" for k, v in counts.items())
    print(f"{args.query} {os.path.basename(os.path.normpath(args.sf))} "
          f"rows={len(df)}{status} sha256={output_hash(df)}")
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
