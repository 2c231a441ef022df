"""DOM → block segmentation — the layout-analysis analog.

nidaba's segmentation.tesseract/kraken produce page zones + lines
(nidaba/tasks/segmentation.py, UNVERIFIED per SURVEY.md §0); here a
lenient HTML parse produces a flat block list (p/h*/li/td/pre/...)
with DOM depth, tag kind, text length and anchor-text length — the
inputs to main-content scoring (the binarization analog).

The block *machine* (stack semantics: block/container/chrome/skip/
anchor handling) lives in ONE class, ``BlockMachine``, driven by two
parse fronts: ``segment_html``, a regex scanner (the production
segmenter — the stdlib parser was ~50% of flagship per-row cost,
BASELINE.md), and ``segment_html_stdlib`` over the stdlib
``html.parser`` (the reference). Sharing the machine means the two
fronts can only diverge in *tokenization*, which is exactly what the
equivalence fuzz suite (tests/test_fastsegment.py) gates: it pins
them block-identical on the synth corpus, the real-page fixtures and
a tag-soup fuzz, and a change to either must re-run it.

The scanner has two lanes. The fast lane is one compiled pattern,
``_FAST``, walked with ``finditer``: a text run, a strict end tag
``</name>`` and a start tag whose attributes are plain (no attribute
of interest, double-quoted values without ``<``/``>``) are each one C
match. Every other token — a gap in the walk (comment, doctype, stray
``<``, self-closing or unquoted tag, ...), a ``script``/``style``
start, or a start tag whose attribute text may carry ``class``/
``role``/``hidden``/... — goes to ``_faithful_token``, a transcription
of html.parser's own start/end-tag parsing over its own compiled
regexes, which consumes that one token; then the walk resumes. About
2 tokens per page take the faithful path. Tag-name and attribute
separators in ``_FAST`` are ASCII whitespace only: html.parser's tag
name runs through Unicode whitespace (``<p``, a no-break space, ``x>``
is one tag, not ``<p>`` with an attribute ``x``), so a Unicode-aware
separator would split names the reference keeps whole.

The scanner's intended scope is the one the reference needs:
  * entities decoded in text nodes (html.unescape) and attr values;
  * <script>/<style> content treated as raw data until the closing tag;
  * comments / doctype / CDATA skipped;
  * tag-soup tolerant (stray ``<`` is text; unclosed tags pop leniently).

Real-page semantics (beyond the synthetic corpus):
  * structural containers (div/section/ul/table/...) are block
    BOUNDARIES — sibling ``<div>A</div><div>B</div>`` texts become two
    blocks, not one (div-soup articles segment correctly);
  * chrome is detected by tag (nav/aside/...), by ``class``/``id``
    token (cookie banners, share bars, comment threads, related-link
    grids...), and by ``role`` (navigation/banner/contentinfo/...);
  * hidden subtrees (``hidden``, ``aria-hidden="true"``,
    ``style="display:none"``) and modal dialogs (``aria-modal="true"``,
    ``role="dialog"``) contribute no text at all.

Pure Python over C-backed ``re`` patterns, deterministic; one plain
function call per page, no per-actor state. At real 100 TB scale the
parser implementation is swappable behind the same block-list
contract (e.g. a C parser) — determinism requires every worker to run
the same one.
"""

from __future__ import annotations

import re
from html import unescape
from html.parser import HTMLParser

__all__ = ["segment_html", "segment_html_stdlib", "Block", "BlockMachine"]

# Tags whose text forms its own block (reading-order leaf zones).
BLOCK_TAGS = {
    "p", "h1", "h2", "h3", "h4", "h5", "h6", "li", "td", "th", "pre",
    "blockquote", "dd", "dt", "figcaption", "caption", "summary",
}
# Containers that mark "page chrome" (site furniture) — the prior that
# lowers a block's score, analog of layout zones labeled non-text.
CHROME_TAGS = {"nav", "aside", "footer", "header"}
# Structural containers: opening or closing one is a block boundary
# (an implicit div-text block never spans sibling containers). Chrome
# tags are containers too — the flush set is the union.
CONTAINER_TAGS = {
    "div", "section", "article", "main", "body", "ul", "ol", "dl",
    "table", "thead", "tbody", "tfoot", "tr", "form", "fieldset",
    "figure", "details", "address", "hgroup",
}
_FLUSH_TAGS = CONTAINER_TAGS | CHROME_TAGS
# Elements whose content is never page text: executable/styling
# payloads, the head, vector graphics (svg <text> labels are drawing
# instructions), MathML (glyph runs carry no inter-element spacing —
# formula markup is noise for a text corpus), and iframe inner markup
# (legacy fallback rendered only by frameless browsers; the framed
# document itself is a separate fetch).
SKIP_TAGS = {"script", "style", "noscript", "template", "svg", "head",
             "math", "iframe"}
# Void elements (never pushed on the open-tag stack).
VOID_TAGS = {"br", "hr", "img", "input", "meta", "link", "area", "base",
             "col", "embed", "source", "track", "wbr"}

_WS = re.compile(r"\s+")

# class/id tokens that mark site furniture on otherwise-neutral tags
# (a <div class="cookie-banner">, <section id="comments">, ...).
# Matched per whitespace-separated token, with -/_ as sub-separators:
# "site-header" and "main_nav" hit; "content" and "navigate" don't.
_CHROME_WORDS = (
    "nav|navbar|menu|sidebar|aside|footer|header|banner|breadcrumbs?|"
    "cookie|consent|gdpr|promo|ads?|advert|advertisement|sponsored?|"
    "share|sharing|social|related|recommended|recommendations|widget|"
    "newsletter|subscribe|signup|modal|popup|overlay|paywall|"
    "comments?|disqus|pagination|pager|toolbar|masthead|byline|meta|"
    "infobox|reply|replies|feedback"
)
_CHROME_CLASS = re.compile(
    rf"(?:^|[-_])(?:{_CHROME_WORDS})(?:[-_]|$)", re.IGNORECASE
)
_CHROME_ROLES = {"navigation", "banner", "contentinfo", "complementary",
                 "search"}
_HIDDEN_STYLE = re.compile(r"display\s*:\s*none|visibility\s*:\s*hidden",
                           re.IGNORECASE)


def _attrs_mark_chrome(attrs) -> bool:
    """True if class/id/role attributes mark this element as chrome."""
    for name, value in attrs:
        if not value:
            continue
        if name in ("class", "id"):
            for tok in value.split():
                if _CHROME_CLASS.search(tok):
                    return True
        elif name == "role" and value.strip().lower() in _CHROME_ROLES:
            return True
    return False


_MODAL_ROLES = {"dialog", "alertdialog"}


def _attrs_mark_hidden(attrs) -> bool:
    """True if the element is hidden (content contributes no text).

    Modal dialogs (``role="dialog"``/``"alertdialog"``, or
    ``aria-modal="true"``) count as hidden: a dialog overlays the
    document rather than being part of it — consent walls, paywall
    prompts, login modals — so its text is interaction UI, never page
    text (same rationale as iframe fallbacks). Class-marked walls
    without ARIA roles are handled by the chrome score damping
    instead (fixture ``consent_wall_classonly``)."""
    for name, value in attrs:
        if name == "hidden":
            return True
        if name == "aria-hidden" and value and value.strip().lower() == "true":
            return True
        if name == "aria-modal" and value and value.strip().lower() == "true":
            return True
        if name == "role" and value and value.strip().lower() in _MODAL_ROLES:
            return True
        if name == "style" and value and _HIDDEN_STYLE.search(value):
            return True
    return False


class Block:
    __slots__ = ("kind", "depth", "text", "anchor_chars", "in_chrome", "n_tags")

    def __init__(self, kind: str, depth: int, in_chrome: bool):
        self.kind = kind
        self.depth = depth
        self.in_chrome = in_chrome
        self.text = ""
        self.anchor_chars = 0
        self.n_tags = 0


class BlockMachine:
    """The shared stack machine: ``start``/``end``/``data`` events in,
    reading-order blocks out. Both parse fronts drive this one class —
    block semantics cannot diverge between them."""

    __slots__ = ("stack", "skip_flags", "chrome_flags", "blocks", "cur",
                 "cur_parts", "skip_depth", "chrome_depth", "anchor_depth",
                 "n_open")

    def __init__(self) -> None:
        self.stack: list[str] = []
        # per-tag count of ``stack``: "is it open?" is O(1), so an end
        # tag costs O(1) amortized at any nesting depth
        self.n_open: dict[str, int] = {}
        self.skip_flags: list[bool] = []
        self.chrome_flags: list[bool] = []
        self.blocks: list[Block] = []
        self.cur: Block | None = None
        self.cur_parts: list[str] = []
        self.skip_depth = 0
        self.chrome_depth = 0
        self.anchor_depth = 0

    def _flush(self) -> None:
        if self.cur is not None:
            text = _WS.sub(" ", "".join(self.cur_parts)).strip()
            self.cur.text = text
            if text:
                self.blocks.append(self.cur)
            self.cur = None
            self.cur_parts = []

    def start(self, tag: str, attrs=()) -> None:
        if tag in VOID_TAGS:
            if self.cur is not None and tag == "br":
                self.cur_parts.append(" ")
            return
        skip_inc = tag in SKIP_TAGS or (bool(attrs) and _attrs_mark_hidden(attrs))
        chrome_inc = tag in CHROME_TAGS or (
            not skip_inc and bool(attrs) and _attrs_mark_chrome(attrs)
        )
        if skip_inc:
            self.skip_depth += 1
        if chrome_inc:
            self.chrome_depth += 1
        if tag == "a":
            self.anchor_depth += 1
        entered_skip = skip_inc and self.skip_depth == 1
        if self.skip_depth == 0:
            if tag in BLOCK_TAGS:
                self._flush()
                self.cur = Block(tag, len(self.stack), self.chrome_depth > 0)
            elif tag in _FLUSH_TAGS:
                self._flush()
            elif self.cur is not None:
                self.cur.n_tags += 1
        elif entered_skip and (tag in BLOCK_TAGS or tag in _FLUSH_TAGS):
            # a newly-hidden subtree is still a block boundary
            self._flush()
        elif self.cur is not None:
            self.cur.n_tags += 1
        self.stack.append(tag)
        n_open = self.n_open
        n_open[tag] = n_open.get(tag, 0) + 1
        self.skip_flags.append(skip_inc)
        self.chrome_flags.append(chrome_inc)

    def end(self, tag: str) -> None:
        if tag in VOID_TAGS:
            return
        # lenient: pop to the nearest matching open tag (tag soup safe)
        n_open = self.n_open
        if n_open.get(tag):
            while self.stack:
                t = self.stack.pop()
                n_open[t] -= 1
                if self.skip_flags.pop():
                    self.skip_depth = max(0, self.skip_depth - 1)
                if self.chrome_flags.pop():
                    self.chrome_depth = max(0, self.chrome_depth - 1)
                if t == "a":
                    self.anchor_depth = max(0, self.anchor_depth - 1)
                if t in BLOCK_TAGS and self.cur is not None and t == self.cur.kind:
                    self._flush()
                elif t in _FLUSH_TAGS and self.skip_depth == 0:
                    self._flush()
                if t == tag:
                    break

    def data(self, text: str) -> None:
        """``text`` is already entity-decoded (both fronts decode)."""
        if self.skip_depth or not text:
            return
        if self.cur is None:
            # bare text directly under a container (leaf-div case):
            # open an implicit block so no text is lost.
            if text.strip():
                parent = self.stack[-1] if self.stack else "body"
                self.cur = Block("div" if parent not in BLOCK_TAGS else parent,
                                 len(self.stack), self.chrome_depth > 0)
            else:
                return
        self.cur_parts.append(text)
        if self.anchor_depth:
            self.cur.anchor_chars += len(_WS.sub(" ", text).strip())


class _Segmenter(HTMLParser):
    """stdlib parse front: one pass over the document, machine events
    out. Reference implementation for the equivalence suite."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.m = BlockMachine()

    def handle_starttag(self, tag: str, attrs) -> None:
        self.m.start(tag, attrs)

    def handle_endtag(self, tag: str) -> None:
        self.m.end(tag)

    def handle_data(self, data: str) -> None:
        self.m.data(data)

    def close(self) -> None:  # flush trailing block
        super().close()
        self.m._flush()


def segment_html_stdlib(html_text: str) -> list[Block]:
    """Reference implementation over stdlib html.parser — kept as the
    equivalence oracle for ``segment_html`` (tests/test_fastsegment.py
    asserts block-identical output; both must change together)."""
    seg = _Segmenter()
    seg.feed(html_text)
    seg.close()
    return seg.m.blocks


_TOKEN = re.compile(
    # tag-name charsets mirror html.parser's regexes exactly. An end
    # tag is parse_endtag's two tries: the strict endtagfind (letter/
    # digit/-.:_ name, then only whitespace before '>'); failing that,
    # the tagfind_tolerant name right after '</', which runs to
    # whitespace, '/', '>' or NUL (so '</li|<li>' closes 'li|<li'),
    # and everything up to the next '>' is consumed.
    r"<!--.*?(?:-->|$)"                 # comments
    r"|<!\[CDATA\[.*?(?:\]\]>|$)"       # CDATA
    r"|<![^>]*>"                        # doctype / other declarations
    r"|<\?[^>]*>"                       # processing instructions
    r"|</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>"   # strict end tag   (group 1)
    r"|</([a-zA-Z][^\t\n\r\f />\x00]*)[^>]*>"  # tolerant end tag (group 2)
    r"|</[^>]*>",                       # bogus end tag → skipped (</>, </123>)
    re.S,
)
_RAWDATA_END = {
    # lookahead mirrors set_cdata_mode: '</scripty>' must NOT close
    "script": re.compile(r"</script(?=[\s/>])[^>]*>|</script>", re.I),
    "style": re.compile(r"</style(?=[\s/>])[^>]*>|</style>", re.I),
}
_HAS_ENTITY = re.compile(r"&[#a-zA-Z]")

# Start tags off the fast lane are parsed with html.parser's OWN
# compiled regexes and a faithful transcription of parse_starttag/
# check_for_whole_start_tag — parity with the stdlib reference implementation by construction
# (verified by the equivalence fuzz suite). All three are C-backed
# compiled patterns; the walk runs once per tag.
from html.parser import attrfind_tolerant as _ATTRFIND
from html.parser import locatestarttagend_tolerant as _STDLIB_TAGEND
from html.parser import tagfind_tolerant as _TAGFIND

# a start tag opens on an ASCII letter only (html.parser's starttagopen);
# '<' before any other character, a non-ASCII letter too, is text
_ASCII_LETTERS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
)
_LETTERS_EQ_SLASH = _ASCII_LETTERS | {"=", "/"}

# Only these attributes influence block semantics (the machine above);
# values of all others are skipped without group extraction.
_INTEREST_ATTRS = frozenset(
    ("class", "id", "role", "hidden", "aria-hidden", "aria-modal", "style")
)
# Cheap pre-check on the raw tag slice, built from the set above so the
# two cannot drift apart: when none of the interesting attr names can
# occur, the fast lane takes the tag and the faithful attr walk skips
# all group extraction (the common case — most tags carry only
# href/src; false positives from substrings in values just take the
# slower exact path).
_HAS_INTEREST = re.compile(
    "|".join(map(re.escape, sorted(_INTEREST_ATTRS))), re.I
)

# The fast lane: one master pattern classifies the common tokens in C —
# a text run, a strict end tag, a start tag with no or only plain
# attributes (ASCII-whitespace separated, double-quoted values without
# '<'/'>'). Separators are ASCII on purpose: html.parser's tag name
# runs through Unicode whitespace ('<p\xa0x>' is one tag named
# 'p\xa0x'), so '\s' here would split names the reference keeps whole.
_NAME = r"[a-zA-Z][-.a-zA-Z0-9:_]*"
_FAST = re.compile(
    r"([^<]+)"                                          # text run  (1)
    rf"|</({_NAME})>"                                   # end tag   (2)
    rf"|<({_NAME})((?:[ \t\n\r\f]+[a-zA-Z][-a-zA-Z0-9_:.]*"
    r'(?:="[^"<>]*")?)*)>'                              # start tag (3, 4)
)


def _faithful_token(html_text: str, lt: int, m: BlockMachine, data) -> int:
    """Consume the one token at ``html_text[lt] == '<'`` that the fast
    lane declined, exactly as html.parser would, and return the offset
    after it."""
    n = len(html_text)
    nxt = html_text[lt + 1] if lt + 1 < n else ""
    if nxt in _ASCII_LETTERS:
        # faithful check_for_whole_start_tag
        m2 = _STDLIB_TAGEND.match(html_text, lt)
        j = m2.end()
        nxtc = html_text[j : j + 1]
        if nxtc == ">":
            endpos = j + 1
        elif nxtc == "/":
            if html_text.startswith("/>", j):
                endpos = j + 2
            elif j + 1 >= n:
                endpos = -1  # buffer boundary → incomplete at EOF
            else:
                endpos = j if j > lt else lt + 1
        elif nxtc == "" or nxtc in _LETTERS_EQ_SLASH:
            endpos = -1  # end of input mid-tag
        else:
            endpos = j if j > lt else lt + 1
        if endpos < 0:
            # goahead's EOF recovery: data up to and including the
            # next '>', else up to the next '<', else just '<'
            gt = html_text.find(">", lt + 1)
            if gt >= 0:
                k2 = gt + 1
            else:
                lt2 = html_text.find("<", lt + 1)
                k2 = lt2 if lt2 >= 0 else lt + 1
            data(html_text[lt:k2])
            return k2
        # faithful parse_starttag: name + attr walk decide whether
        # the trailing text is '>', '/>' or junk (→ data); attrs of
        # interest are extracted exactly as parse_starttag does
        # (lowercased name, quote-stripped + unescaped value).
        tm = _TAGFIND.match(html_text, lt + 1)
        name = tm.group(1).lower()
        k = tm.end()
        attrs: list[tuple[str, str | None]] = []
        if _HAS_INTEREST.search(html_text, k, endpos) is None:
            while k < endpos:  # fast path: no group extraction
                am = _ATTRFIND.match(html_text, k)
                if not am:
                    break
                k = am.end()
        else:
            while k < endpos:
                am = _ATTRFIND.match(html_text, k)
                if not am:
                    break
                aname = am.group(1).lower()
                if aname in _INTEREST_ATTRS:
                    rest, avalue = am.group(2), am.group(3)
                    if not rest:
                        avalue = None
                    elif avalue[:1] == "'" == avalue[-1:] or \
                            avalue[:1] == '"' == avalue[-1:]:
                        avalue = avalue[1:-1]
                    if avalue:
                        avalue = unescape(avalue)
                    attrs.append((aname, avalue))
                k = am.end()
        end = html_text[k:endpos].strip()
        if end not in (">", "/>"):
            data(html_text[lt:endpos])  # malformed slice → text
            return endpos
        if name in _RAWDATA_END and end == ">":
            m.start(name, attrs)
            m3 = _RAWDATA_END[name].search(html_text, endpos)
            m.end(name)
            return n if m3 is None else m3.end()
        m.start(name, attrs)
        if end == "/>" and name not in VOID_TAGS:
            m.end(name)
        return endpos
    tok = _TOKEN.match(html_text, lt)
    if tok is None:
        data("<")  # stray '<' is text (lenient, like html.parser)
        return lt + 1
    end_tag = tok.group(1) or tok.group(2)
    if end_tag is not None:
        m.end(end_tag.lower())
    # comments / doctype / CDATA / PI / bogus end tags: skipped
    return tok.end()


def segment_html(html_text: str) -> list[Block]:
    """Parse an HTML document into reading-order blocks.

    Never raises on tag soup (per-row error isolation happens one level
    up, on decode failures). One scan drives the shared machine: the
    ``_FAST`` lane takes every token it matches, and any other token
    (a gap in the scan, a script/style start, a start tag whose
    attributes may matter) goes through ``_faithful_token``, after
    which the scan resumes. Block-identical to ``segment_html_stdlib``."""
    m = BlockMachine()
    m_start = m.start
    m_end = m.end
    m_data = m.data

    def data(raw: str) -> None:
        # entity decode only when an entity is present
        if m.skip_depth or not raw:
            return
        m.data(unescape(raw) if _HAS_ENTITY.search(raw) else raw)

    pos = 0
    n = len(html_text)
    while pos < n:
        for fm in _FAST.finditer(html_text, pos):
            if fm.start() != pos:
                break
            text, end_name, name, attr_text = fm.groups()
            if text is not None:
                if not m.skip_depth:
                    m_data(unescape(text) if _HAS_ENTITY.search(text)
                           else text)
            elif end_name is not None:
                m_end(end_name.lower())
            else:
                name = name.lower()
                if name in _RAWDATA_END or (
                    attr_text and _HAS_INTEREST.search(attr_text)
                ):
                    break
                m_start(name)
            pos = fm.end()
        if pos < n:
            pos = _faithful_token(html_text, pos, m, data)
    m._flush()
    return m.blocks
