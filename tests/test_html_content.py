"""Adversarial pins for the readability extractor beyond its own harness
(the harness round-trip is oracle-checked per document by the driver)."""

from __future__ import annotations

import duckdb

from img2table_ray.extract.html_content import main_content, wrap_boilerplate


def test_harness_roundtrip_whole_corpus():
    rows = duckdb.connect().execute(
        "SELECT doc_id, text FROM "
        "'/root/testdata/sf0.001/documents.parquet'").fetchall()
    assert rows
    for doc_id, text in rows:
        assert main_content(wrap_boilerplate(doc_id, text)) == text


def test_harness_closes_comment_divs_cleanly():
    # every comment count (1-3) and block order: no stray quote after a
    # closing tag leaks into the boilerplate text
    for doc_id in range(30):
        html = wrap_boilerplate(doc_id, "some real words of content")
        assert "</div>'" not in html
        assert html.count("<div") == html.count("</div>")


def test_drops_script_style_nav_subtrees():
    html = ("<body><nav><p>menu menu menu menu</p></nav>"
            "<script>var p = '<p>fake</p>';</script>"
            "<style>p{color:red}</style>"
            "<div><p>the real story text goes here</p></div></body>")
    assert main_content(html) == "the real story text goes here"


def test_link_dense_block_loses_to_prose():
    html = ('<body><div class="links">'
            '<p><a href="/1">one link</a> <a href="/2">two link</a> '
            '<a href="/3">three link</a> <a href="/4">four link</a></p>'
            "</div>"
            "<div><p>plain prose wins here</p></div></body>")
    assert main_content(html) == "plain prose wins here"


def test_entities_unescape():
    html = "<body><div><p>a &amp; b &lt; c &gt; d</p></div></body>"
    assert main_content(html) == "a & b < c > d"


def test_misnested_tags_tolerated():
    html = ("<body><div><p>alpha <b>beta</p></div> stray</b>"
            "<div><span>tiny</span></div></body>")
    assert main_content(html) == "alpha beta"


def test_no_paragraphs_falls_back_to_text_mass():
    html = ("<body><div><a href='/'>home</a> <a href='/x'>about</a></div>"
            "<div>plenty of plain running text with no paragraph tags "
            "at all in this block</div></body>")
    got = main_content(html)
    assert got.startswith("plenty of plain running text")


def test_multiple_paragraphs_join_in_document_order():
    html = ("<body><article><p>first part</p><p>second part</p>"
            "<p>third part</p></article>"
            '<footer><small>&copy; footer</small></footer></body>')
    assert main_content(html) == "first part second part third part"
