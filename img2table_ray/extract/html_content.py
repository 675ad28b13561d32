"""Main-content extraction from HTML: boilerplate strip via DOM heuristics.

The north rule names "HTML boilerplate strip, DOM heuristics" as part of
the main-content extraction surface.  This implements the classic
readability scoring (Arc90 readability.js, public domain — paragraph
density bonus + link-density penalty over block containers) on a light
DOM built with the standard library's ``html.parser``:

* parse to a tree, DROPPING the subtrees that never carry main content
  (``script/style/noscript/template/nav/aside/header/footer/form``);
* each ``<p>`` credits ``25 + len(its non-link text)`` to its PARENT
  container and half of that to its grandparent (the Arc90 rule — an
  ancestor like ``<body>`` only ever collects half-credits, so the
  tightest container of the paragraphs wins);
* each candidate's collected score is scaled by ``1 - link_density``
  (text under ``<a>`` counts against — navigation/ad blocks are
  link-dense);
* the best candidate's paragraph text is the main content (documents
  with no ``<p>`` at all fall back to the largest text-mass block).

``wrap_boilerplate`` is the deterministic test harness for the oracle:
it embeds a document's text (as escaped ``<p>`` paragraphs) in seeded
realistic boilerplate — nav link bars, link-heavy sidebars, ad inserts,
comment blocks, footers, with order/classes/counts varying by doc_id —
so the pipeline's oracle is simply "the extractor recovers the original
text byte-exactly".
"""

from __future__ import annotations

import html
from html.parser import HTMLParser

DROP_TAGS = frozenset(
    "script style noscript template nav aside header footer form".split()
)
BLOCK_TAGS = frozenset(
    "div article section main body td li blockquote".split()
)
VOID_TAGS = frozenset(
    "br hr img meta link input area base col embed source track wbr".split()
)


class _Node:
    __slots__ = ("tag", "children", "text_len", "link_len", "p_count",
                 "p_texts", "own_texts", "cand_score")

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.children: list[_Node] = []
        self.text_len = 0       # total descendant text chars
        self.link_len = 0       # descendant text chars under an <a>
        self.p_count = 0        # descendant <p> elements
        self.p_texts: list[str] = []   # document-order <p> texts
        self.own_texts: list[str] = []  # direct text nodes
        self.cand_score = 0.0   # Arc90 credits from child/grandchild <p>


class _TreeBuilder(HTMLParser):
    """Light DOM: aggregates per-node text/link/paragraph statistics on
    close, so scoring needs no second traversal.  Subtrees under
    DROP_TAGS are discarded during the parse."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.root = _Node("#root")
        self.stack = [self.root]
        self.drop_depth = 0
        self.blocks: list[_Node] = []
        self._p_buf: list[str] | None = None

    def handle_starttag(self, tag, attrs):
        if self.drop_depth or tag in DROP_TAGS:
            if tag not in VOID_TAGS:
                self.drop_depth += 1
            return
        if tag in VOID_TAGS:
            return
        node = _Node(tag)
        self.stack[-1].children.append(node)
        self.stack.append(node)
        if tag == "p" and self._p_buf is None:
            self._p_buf = []

    def handle_endtag(self, tag):
        if self.drop_depth:
            if tag not in VOID_TAGS:
                self.drop_depth -= 1
            return
        if tag in VOID_TAGS or tag in DROP_TAGS:
            return
        # close the innermost matching open tag (tolerates misnesting)
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                while len(self.stack) > i:
                    self._close(self.stack.pop())
                break

    def handle_data(self, data):
        if self.drop_depth or not data:
            return
        node = self.stack[-1]
        node.own_texts.append(data)
        if self._p_buf is not None:
            self._p_buf.append(data)

    def _close(self, node: _Node) -> None:
        own = sum(len(t) for t in node.own_texts if t.strip())
        node.text_len += own
        if node.tag == "p":
            node.p_count += 1
            if self._p_buf is not None:
                node.p_texts.insert(0, "".join(self._p_buf))
                self._p_buf = None
            credit = 25.0 + (node.text_len - node.link_len)
            self.stack[-1].cand_score += credit
            if len(self.stack) >= 2:
                self.stack[-2].cand_score += credit / 2.0
        if node.tag == "a":
            node.link_len = node.text_len  # everything under <a> is link text
        parent = self.stack[-1]
        parent.text_len += node.text_len
        parent.link_len += node.link_len
        parent.p_count += node.p_count
        parent.p_texts.extend(node.p_texts)
        if node.tag in BLOCK_TAGS:
            self.blocks.append(node)

    def finish(self) -> None:
        while len(self.stack) > 1:
            self._close(self.stack.pop())
        self.blocks.append(self.root)


def main_content(html_text: str) -> str:
    """Extract the main content text of an HTML document (readability
    scoring: paragraph-density bonus, link-density penalty)."""
    tb = _TreeBuilder()
    tb.feed(html_text)
    tb.finish()
    best, best_score = None, float("-inf")
    for node in tb.blocks:
        if node.text_len == 0 or node.cand_score <= 0:
            continue
        link_density = node.link_len / node.text_len
        score = node.cand_score * (1.0 - link_density)
        # children close before parents, so on ties the TIGHTEST
        # container of the paragraphs wins (first max strictly greater)
        if score > best_score:
            best, best_score = node, score
    if best is not None:
        return " ".join(best.p_texts)
    # no <p> anywhere: fall back to the largest non-link text mass
    for node in tb.blocks:
        if node.text_len == 0:
            continue
        link_density = node.link_len / node.text_len
        score = (node.text_len - node.link_len) * (1.0 - link_density)
        if score > best_score:
            best, best_score = node, score
    if best is None:
        return ""
    return " ".join("".join(best.own_texts).split())


# --------------------------------------------------------------------------
# deterministic boilerplate harness (for the byte-exact-recovery oracle)
# --------------------------------------------------------------------------

_NAV_WORDS = ["Home", "About", "Products", "Pricing", "Blog", "Careers",
              "Contact", "Support", "Docs", "Login"]
_AD_LINES = ["Limited offer — save 20% today", "Try the new dashboard",
             "Upgrade your plan now", "Download the mobile app"]
_USERS = ["alice", "bob", "carol", "dave", "erin"]


def _split_at_spaces(text: str, k: int) -> list[str]:
    """Split ``text`` into <=k chunks at single-space boundaries such that
    ``" ".join(chunks) == text`` exactly (boundaries consume one space)."""
    if k <= 1:
        return [text]
    n = len(text)
    chunks, start = [], 0
    for i in range(1, k):
        target = start + max(1, (n - start) // (k - i + 1))
        cut = text.find(" ", target)
        if cut == -1 or cut <= start:
            break
        chunks.append(text[start:cut])
        start = cut + 1
    chunks.append(text[start:])
    return chunks


def wrap_boilerplate(doc_id: int, text: str) -> str:
    """Embed ``text`` in seeded realistic boilerplate HTML.  The main
    text is escaped into 1-3 ``<p>`` paragraphs split at space
    boundaries, so ``main_content`` recovering it byte-exactly means
    joining the winner's paragraphs with a single space."""
    r = doc_id
    nav = "".join(f'<li><a href="/{w.lower()}">{w}</a></li>'
                  for w in _NAV_WORDS[: 5 + r % 5])
    side = "".join(
        f'<a class="tag" href="/t/{i}">topic {i}</a> '
        for i in range(4 + r % 4))
    ad = (f'<div class="ad"><a href="https://ads.example/{r}">'
          f"{_AD_LINES[r % len(_AD_LINES)]}</a> sponsored</div>")
    comments = "".join(
        f'<div class="comment"><a href="/u/{_USERS[(r + i) % 5]}">'
        f"@{_USERS[(r + i) % 5]}</a><span> nice post "
        f"thanks for sharing #{i}</span></div>"
        for i in range(1 + r % 3))
    about = ('<div class="about"><p><a href="/team">Built by the team'
             "</a> est. 2020</p></div>")
    paras = "".join(
        f"<p>{html.escape(c)}</p>"
        for c in _split_at_spaces(text, 1 + r % 3))
    article = f'<article id="post-{r}">{paras}</article>'
    footer = (f'<footer><small>&copy; 2026 example.org &middot; '
              f'<a href="/privacy">privacy</a></small></footer>')
    blocks = [f"<nav><ul>{nav}</ul></nav>",
              f'<aside class="sidebar">{side}</aside>', ad, article,
              about, f'<section class="comments">{comments}</section>',
              footer]
    # seeded order variation for everything around the article
    if r % 2:
        blocks[1], blocks[2] = blocks[2], blocks[1]
    if r % 5 == 0:
        blocks.insert(0, blocks.pop(6))
    body = "".join(blocks)
    return (f"<!DOCTYPE html><html><head><title>doc {r}</title>"
            f"<style>body{{margin:0}}</style><script>var x={r};</script>"
            f"</head><body>{body}</body></html>")
