"""HTML/DOM boilerplate stripping (main-content extraction).

The north rule (BASELINE.json:14) requires HTML/DOM boilerplate stripping
for web-sourced papers; the reference has no direct implementation (its
closest analogues are the cleanup transformers, SURVEY.md M21), so this is a
from-scratch, deterministic main-content extractor in the spirit of the
published Readability / jusText / Boilerpipe line of work (block
segmentation + link-density & length heuristics):

1. tokenize tags with a regex scanner (no external HTML parser);
2. drop ``<script>/<style>/<noscript>`` subtrees and everything inside the
   semantic boilerplate containers ``<nav>/<footer>/<header>/<aside>``;
3. segment text into blocks at block-level tags;
4. keep a block iff its normalized text is at least ``min_text_len`` chars
   AND its link density (chars inside ``<a>`` / total chars) is at most
   ``max_link_density``.

Pure function of the input string → deterministic and unit-testable; hosted
inside the worker-cached span extractor (compiled regexes are per-worker
state).
"""

from __future__ import annotations

import html as html_lib
import re
from typing import List

from ..functions.text import normalize_str

_TOKEN_RE = re.compile(r"<\s*(/?)([a-zA-Z][a-zA-Z0-9]*)[^>]*?(/?)\s*>|<!--.*?-->", re.DOTALL)

BLOCK_TAGS = frozenset(
    """p div section article li ul ol h1 h2 h3 h4 h5 h6 table tr td th
    blockquote pre figure figcaption main body html br hr form""".split()
)
DROP_SUBTREE_TAGS = frozenset({"script", "style", "noscript", "svg", "iframe"})
BOILERPLATE_CONTAINERS = frozenset({"nav", "footer", "header", "aside"})
VOID_TAGS = frozenset({"br", "hr", "img", "meta", "link", "input"})


class BoilerplateStripper:
    def __init__(self, min_text_len: int = 25, max_link_density: float = 0.35):
        self.min_text_len = min_text_len
        self.max_link_density = max_link_density

    def extract_blocks(self, html: str) -> List[str]:
        """Return the main-content text blocks, in document order."""
        blocks: List[str] = []
        buf: List[str] = []
        buf_link_chars = 0
        drop_depth = 0  # inside script/style/...
        boiler_depth = 0  # inside nav/footer/header/aside
        anchor_depth = 0
        pos = 0

        def flush():
            nonlocal buf, buf_link_chars
            raw = "".join(buf)
            buf = []
            link_chars = buf_link_chars
            buf_link_chars = 0
            text = normalize_str(html_lib.unescape(raw))
            if len(text) < self.min_text_len:
                return
            density = link_chars / max(1, len(raw.strip()))
            if density > self.max_link_density:
                return
            blocks.append(text)

        for match in _TOKEN_RE.finditer(html):
            text_chunk = html[pos : match.start()]
            pos = match.end()
            if text_chunk and drop_depth == 0 and boiler_depth == 0:
                buf.append(text_chunk)
                if anchor_depth > 0:
                    buf_link_chars += len(text_chunk.strip())
            if match.group(2) is None:
                continue  # comment
            closing = match.group(1) == "/"
            tag = match.group(2).lower()
            self_closing = match.group(3) == "/" or tag in VOID_TAGS

            if tag in DROP_SUBTREE_TAGS:
                if not self_closing:
                    drop_depth = max(0, drop_depth + (-1 if closing else 1))
                continue
            if tag in BOILERPLATE_CONTAINERS:
                if not closing:
                    flush()
                boiler_depth = max(0, boiler_depth + (-1 if closing else 1))
                continue
            if drop_depth > 0 or boiler_depth > 0:
                continue
            if tag == "a":
                anchor_depth = max(0, anchor_depth + (-1 if closing else 1))
                continue
            if tag in BLOCK_TAGS:
                flush()

        tail = html[pos:]
        if tail and drop_depth == 0 and boiler_depth == 0:
            buf.append(tail)
            if anchor_depth > 0:
                buf_link_chars += len(tail.strip())
        flush()
        return blocks
