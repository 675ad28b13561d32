"""Regression pins for the borderless text mask on whole pages.

``tests/data/text_mask_pins.json`` holds, per page of
``tests/test_borderless_pins.py``'s set, every ``identify_text_mask``
output that the borderless path builds (as ``extract.borderless`` calls
it), and every ``find_obstacles`` mask built inside those calls: each as
its shape, its on-count and the md5 of its bytes.  The table pins cannot
see a text-mask change that leaves the tables the same; these can.

These are pins of the engine's own earlier outputs, not goldens.  A change
that moves one on purpose rewrites the table (run this file as a script)
and says which entries moved and why.

    python tests/test_text_mask_pins.py     # rewrite the table
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from test_borderless_pins import _pages, _tables  # noqa: E402

TABLE = os.path.join(HERE, "data", "text_mask_pins.json")


def _pin(mask: np.ndarray) -> dict:
    mask = np.ascontiguousarray(mask)
    return {"shape": list(mask.shape), "on": int(np.count_nonzero(mask)),
            "md5": hashlib.md5(mask.tobytes()).hexdigest()}


def _masks(img: np.ndarray, hocr, monkeypatch) -> dict:
    """The page's text masks and obstacle masks, in call order."""
    from img2table_ray.extract import borderless
    from img2table_ray.extract.borderless import rlsa

    out = {"text_masks": [], "obstacles": []}
    text_mask, obstacles = borderless.identify_text_mask, rlsa.find_obstacles

    def record_text_mask(*args, **kwargs):
        mask = text_mask(*args, **kwargs)
        out["text_masks"].append(_pin(mask))
        return mask

    def record_obstacles(*args, **kwargs):
        mask = obstacles(*args, **kwargs)
        out["obstacles"].append(_pin(mask))
        return mask

    monkeypatch.setattr(borderless, "identify_text_mask", record_text_mask)
    monkeypatch.setattr(rlsa, "find_obstacles", record_obstacles)
    try:
        _tables(img, hocr)
    finally:
        monkeypatch.undo()
    return out


@pytest.fixture(scope="module")
def pages():
    return _pages()


def _table() -> dict:
    with open(TABLE) as f:
        return json.load(f)


def test_table_covers_every_page(pages):
    assert sorted(_table()) == sorted(pages)


@pytest.mark.parametrize("name", sorted(_table()))
def test_text_mask_pinned(name, pages, monkeypatch):
    assert _masks(*pages[name], monkeypatch) == _table()[name]


def test_pins_hold_masks():
    for name, pins in _table().items():
        assert pins["text_masks"] and pins["obstacles"], name
        assert all(p["on"] > 0 for p in pins["text_masks"]), name


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        pins = {name: _masks(*page, mp) for name, page in _pages().items()}
    with open(TABLE, "w") as f:  # one line per page
        f.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                     for k, v in sorted(pins.items())) + "\n}\n")
    print(f"wrote {len(pins)} pages to {TABLE}")
