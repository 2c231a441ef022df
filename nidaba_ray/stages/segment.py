"""DOM → block segmentation — the layout-analysis analog.

nidaba's segmentation.tesseract/kraken produce page zones + lines
(nidaba/tasks/segmentation.py, UNVERIFIED per SURVEY.md §0); here a
lenient HTML parse produces a flat block list (p/h*/li/td/pre/...)
with DOM depth, tag kind, text length and anchor-text length — the
inputs to main-content scoring (the binarization analog).

The block *machine* (stack semantics: block/container/chrome/skip/
anchor handling) lives in ONE class, ``BlockMachine``, driven by two
parse fronts: ``segment_html``, a regex tokenizer (the production
segmenter — the stdlib parser was ~50% of flagship per-row cost,
BASELINE.md), and ``segment_html_stdlib`` over the stdlib
``html.parser`` (the reference). Both fronts hand the machine the same
event tuples ``(text, end, start)``: a text run ``(raw, "", "")``, an
end tag ``(_, name, "")`` and a start tag ``(_, attrs, name)``, where
``attrs`` is ``""`` or an attribute list. The machine's ``feed`` walks
a list of them in one loop over local variables, with one cached
action code per distinct raw tag name. Sharing the machine means the
two fronts can only diverge in *tokenization*, which is exactly what
the equivalence fuzz suite (tests/test_fastsegment.py) gates: it pins
them block-identical on the synth corpus, the real-page fixtures and
a tag-soup fuzz, and a change to either must re-run it.

The tokenizer is one compiled pattern, ``_FAST``, run with ``findall``
over a window of the page (``_WINDOW`` characters, cut at the next
``<``, so no token spans two windows and a page's token list stays
small). Its alternatives tile the window without gaps: a text run, a
strict end tag ``</name>``, a start tag whose attributes are all plain
(no attribute of interest, double-quoted values without ``<``/``>``,
and not ``script``/``style``), and a lone ``<``. Every ``<`` starts a
token, and the findall tuples are already machine events, except the
lone ``<``: the *declined* token. The front finds each one with
``list.index``, and ``_faithful_token`` — a transcription of
html.parser's own start/end-tag parsing over its own compiled regexes —
consumes the real token there (comment, doctype, stray ``<``,
self-closing or unquoted tag, a ``script``/``style`` element, a start
tag with ``class``/``role``/``hidden``/... attributes) into events. The
text up to the next ``<`` is one more text event, and the walk resumes
at the window token that starts at that ``<``. Tag-name and attribute
separators in ``_FAST`` are ASCII whitespace only: html.parser's tag
name runs through Unicode whitespace (``<p``, a no-break space, ``x>``
is one tag, not ``<p>`` with an attribute ``x``), so a Unicode-aware
separator would split names the reference keeps whole.

The tokenizer's intended scope is the one the reference needs:
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

A block's text is its text runs joined, with whitespace runs collapsed
to one space and trimmed by ``" ".join(s.split())``: ``str.split``'s
whitespace is ``str.isspace``, the same predicate as ``re``'s Unicode
``\\s`` (tests/test_properties.py checks every code point).

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
from operator import itemgetter

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
# tags are containers too.
CONTAINER_TAGS = {
    "div", "section", "article", "main", "body", "ul", "ol", "dl",
    "table", "thead", "tbody", "tfoot", "tr", "form", "fieldset",
    "figure", "details", "address", "hgroup",
}
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

    def __init__(self, kind: str, depth: int, in_chrome: bool, text: str = "",
                 anchor_chars: int = 0, n_tags: int = 0):
        self.kind = kind
        self.depth = depth
        self.in_chrome = in_chrome
        self.text = text
        self.anchor_chars = anchor_chars
        self.n_tags = n_tags


# One action code per tag name. An open element's stack entry carries
# ``code << 2`` plus its skip (1) and chrome (2) bits, so a plain
# inline element is 0 and its end tag costs no decoding.
_INLINE, _ANCHOR, _BLOCK, _FLUSH, _CHROME, _SKIP, _BR, _VOID = range(8)
_SKIP_BIT, _CHROME_BIT = 1, 2
_CODES = {tag: code for code, tags in (
    (_FLUSH, CONTAINER_TAGS), (_CHROME, CHROME_TAGS), (_BLOCK, BLOCK_TAGS),
    (_SKIP, SKIP_TAGS), (_VOID, VOID_TAGS), (_BR, {"br"}), (_ANCHOR, {"a"}),
) for tag in tags}
# raw tag name → (code, lowercased name); bounded so a page of distinct
# made-up names cannot grow it without limit
_ACTIONS: dict[str, tuple[int, str]] = {}
_ACTIONS_MAX = 4096


def _action(raw: str) -> tuple[int, str]:
    tag = raw.lower()
    act = (_CODES.get(tag, _INLINE), tag)
    if len(_ACTIONS) < _ACTIONS_MAX:
        _ACTIONS[raw] = act
    return act


def _close_block(blocks, parts, kind, depth, in_chrome, anchor, n_tags):
    """Join the open block's text runs; keep the block if any text is left."""
    text = " ".join("".join(parts).split())
    parts.clear()
    if text:
        blocks.append(Block(kind, depth, in_chrome, text, anchor, n_tags))


class BlockMachine:
    """The shared stack machine: event tuples in, reading-order blocks
    out. Both parse fronts drive this one class — block semantics
    cannot diverge between them. The open block lives in scalar fields
    (``kind`` is None when no block is open) and becomes a ``Block``
    only when it closes with text."""

    __slots__ = ("stack", "info", "n_open", "blocks", "parts", "kind",
                 "depth", "in_chrome", "n_tags", "anchor", "skip_depth",
                 "chrome_depth", "anchor_depth")

    def __init__(self) -> None:
        # open tag names, and per entry its code and skip/chrome bits
        self.stack: list[str] = []
        self.info: list[int] = []
        # per-tag count of ``stack``: "is it open?" is O(1), so an end
        # tag costs O(1) amortized at any nesting depth
        self.n_open: dict[str, int] = {}
        self.blocks: list[Block] = []
        self.parts: list[str] = []
        self.kind: str | None = None
        self.depth = 0
        self.in_chrome = False
        self.n_tags = 0
        self.anchor = 0
        self.skip_depth = 0
        self.chrome_depth = 0
        self.anchor_depth = 0

    def feed(self, events, decoded: bool = False) -> None:
        """Apply ``(text, end, start)`` events in order. Text is
        entity-decoded here unless the front already did
        (``decoded``)."""
        stack, info, n_open = self.stack, self.info, self.n_open
        blocks, parts = self.blocks, self.parts
        kind, depth, in_chrome = self.kind, self.depth, self.in_chrome
        n_tags, anchor = self.n_tags, self.anchor
        skip, chrome, anchor_depth = (self.skip_depth, self.chrome_depth,
                                      self.anchor_depth)
        actions = _ACTIONS
        push, pop = stack.append, stack.pop
        info_push, info_pop = info.append, info.pop
        add_part = parts.append
        for a, e, s in events:
            if s:  # start tag; e is "" or its attribute list
                try:
                    code, tag = actions[s]
                except KeyError:
                    code, tag = _action(s)
                if code <= _ANCHOR and not e:
                    # inline: one counter, one push
                    if code:
                        anchor_depth += 1
                    if kind is not None:
                        n_tags += 1
                    push(tag)
                    n_open[tag] = n_open.get(tag, 0) + 1
                    info_push(code << 2)
                    continue
                if code >= _BR:  # void
                    if code == _BR and kind is not None:
                        add_part(" ")
                    continue
                bits = (_SKIP_BIT if code == _SKIP
                        else _CHROME_BIT if code == _CHROME else 0)
                if e:
                    if not bits & _SKIP_BIT and _attrs_mark_hidden(e):
                        bits |= _SKIP_BIT
                    if not bits and _attrs_mark_chrome(e):
                        bits = _CHROME_BIT
                if bits & _SKIP_BIT:
                    skip += 1
                if bits & _CHROME_BIT:
                    chrome += 1
                if code == _ANCHOR:
                    anchor_depth += 1
                if _BLOCK <= code <= _CHROME and (
                        not skip or bits & _SKIP_BIT and skip == 1):
                    # a block boundary, also where it opens a newly
                    # hidden subtree; only a visible block opens one
                    if kind is not None:
                        _close_block(blocks, parts, kind, depth,
                                     in_chrome, anchor, n_tags)
                        kind = None
                    if code == _BLOCK and not skip:
                        kind, depth, in_chrome = tag, len(stack), chrome > 0
                        n_tags = anchor = 0
                elif kind is not None:
                    n_tags += 1
                push(tag)
                n_open[tag] = n_open.get(tag, 0) + 1
                info_push(code << 2 | bits)
            elif e:  # end tag
                try:
                    code, tag = actions[e]
                except KeyError:
                    code, tag = _action(e)
                # lenient: pop to the nearest matching open tag (tag
                # soup safe); a tag that is not open ends nothing
                if code >= _BR or not n_open.get(tag):
                    continue
                while True:
                    t = pop()
                    n_open[t] -= 1
                    bits = info_pop()
                    if bits:
                        if bits & _SKIP_BIT:
                            skip -= 1
                        if bits & _CHROME_BIT:
                            chrome -= 1
                        code = bits >> 2
                        if code == _ANCHOR:
                            anchor_depth -= 1
                        elif kind is not None and (
                            t == kind if code == _BLOCK
                            else not skip and (code == _FLUSH
                                               or code == _CHROME)
                        ):
                            _close_block(blocks, parts, kind, depth,
                                         in_chrome, anchor, n_tags)
                            kind = None
                    if t == tag:
                        break
            elif not skip:  # text run
                if not decoded and "&" in a and _HAS_ENTITY.search(a):
                    a = unescape(a)
                if kind is None:
                    # bare text directly under a container (leaf-div
                    # case): open an implicit block so no text is lost
                    if not a or a.isspace():
                        continue
                    kind = stack[-1] if stack else "body"
                    if kind not in BLOCK_TAGS:
                        kind = "div"
                    depth, in_chrome = len(stack), chrome > 0
                    n_tags = anchor = 0
                add_part(a)
                if anchor_depth:
                    anchor += len(" ".join(a.split()))
        self.kind, self.depth, self.in_chrome = kind, depth, in_chrome
        self.n_tags, self.anchor = n_tags, anchor
        self.skip_depth, self.chrome_depth, self.anchor_depth = (
            skip, chrome, anchor_depth)

    def close(self) -> list[Block]:
        """Close the trailing block; return the page's blocks."""
        if self.kind is not None:
            _close_block(self.blocks, self.parts, self.kind, self.depth,
                         self.in_chrome, self.anchor, self.n_tags)
            self.kind = None
        return self.blocks


class _Segmenter(HTMLParser):
    """stdlib parse front: one pass over the document, machine events
    out. Reference implementation for the equivalence suite."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.events: list[tuple] = []

    def handle_starttag(self, tag: str, attrs) -> None:
        self.events.append(("", attrs, tag))

    def handle_endtag(self, tag: str) -> None:
        self.events.append(("", tag, ""))

    def handle_data(self, data: str) -> None:
        self.events.append((data, "", ""))


def segment_html_stdlib(html_text: str) -> list[Block]:
    """Reference implementation over stdlib html.parser — kept as the
    equivalence oracle for ``segment_html`` (tests/test_fastsegment.py
    asserts block-identical output; both must change together)."""
    seg = _Segmenter()
    seg.feed(html_text)
    seg.close()
    m = BlockMachine()
    m.feed(seg.events, decoded=True)
    return m.close()


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

# Start tags that _FAST declines are parsed with html.parser's OWN
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
_INTEREST_NAME = "|".join(map(re.escape, sorted(_INTEREST_ATTRS)))
# Cheap pre-check on a declined tag's raw slice, built from the set
# above so the two cannot drift apart: when none of the interesting
# attr names can occur, the faithful attr walk skips all group
# extraction (false positives from substrings in values just take the
# slower exact path).
_HAS_INTEREST = re.compile(_INTEREST_NAME, re.I)

# The tokenizer: one master pattern whose alternatives tile the text.
# Group 1 is the whole token; group 2 an end tag's name, group 3 a
# start tag's. A start tag is taken only with no or only plain
# attributes (ASCII-whitespace separated, double-quoted values without
# '<'/'>'), none of them in _INTEREST_ATTRS, and not script/style.
# Separators are ASCII on purpose: html.parser's tag name runs through
# Unicode whitespace ('<p\xa0x>' is one tag named 'p\xa0x'), so '\s'
# here would split names the reference keeps whole. re.ASCII keeps the
# case-insensitive lookaheads to ASCII case folding.
_NAME = r"[a-zA-Z][-.a-zA-Z0-9:_]*"
_SEP = r"[ \t\n\r\f]"
_PLAIN_ATTR = (
    rf"{_SEP}+(?!(?i:{_INTEREST_NAME})[= \t\n\r\f>])"
    r'[a-zA-Z][-a-zA-Z0-9_:.]*(?:="[^"<>]*")?'
)
_FAST = re.compile(
    r"([^<]+"                                           # text run
    rf"|</({_NAME})>"                                   # end tag
    rf"|<(?!(?i:script|style)[ \t\n\r\f>])({_NAME})"  # start tag
    rf"(?:{_PLAIN_ATTR})*>"
    r"|<)",                                             # declined '<'
    re.ASCII,
)
_DECLINED = ("<", "", "")
_WHOLE = itemgetter(0)
# characters per findall call: a page's token list is built one window
# at a time, so its size stays bounded on any page
_WINDOW = 1 << 16


def _faithful_token(html_text: str, lt: int, events: list) -> int:
    """Consume the one token at ``html_text[lt] == '<'`` that ``_FAST``
    declined, exactly as html.parser would: append its machine events
    and return the offset after it."""
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
            events.append((html_text[lt:k2], "", ""))
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
            events.append((html_text[lt:endpos], "", ""))  # malformed → text
            return endpos
        events.append(("", attrs, name))
        if name in _RAWDATA_END and end == ">":
            m3 = _RAWDATA_END[name].search(html_text, endpos)
            events.append(("", name, ""))
            return n if m3 is None else m3.end()
        if end == "/>" and name not in VOID_TAGS:
            events.append(("", name, ""))
        return endpos
    tok = _TOKEN.match(html_text, lt)
    if tok is None:
        events.append(("<", "", ""))  # stray '<' is text, like html.parser
        return lt + 1
    end_tag = tok.group(1) or tok.group(2)
    if end_tag is not None:
        events.append(("", end_tag, ""))
    # comments / doctype / CDATA / PI / bogus end tags: skipped
    return tok.end()


def segment_html(html_text: str) -> list[Block]:
    """Parse an HTML document into reading-order blocks.

    Never raises on tag soup (per-row error isolation happens one level
    up, on decode failures). Per window, one ``findall`` builds the
    token list and the machine takes its runs between declined ``<``
    as they are; ``_faithful_token`` consumes the token at each declined
    ``<``, the text after it up to the next ``<`` is one text event,
    and the walk resumes at the token that starts there.
    Block-identical to ``segment_html_stdlib``."""
    m = BlockMachine()
    n = len(html_text)
    pos = 0
    while pos < n:
        # cut at a '<': every token holds at most one, at its start
        end = html_text.find("<", pos + _WINDOW)
        if end < 0:
            end = n
        toks = _FAST.findall(html_text, pos, end)
        events: list = []
        i, off, pos = 0, pos, end  # next token, its offset; next window
        while True:
            try:
                j = toks.index(_DECLINED, i)
            except ValueError:
                events += toks[i:] if i else toks
                break
            run = toks[i:j]
            events += run
            off += sum(map(len, map(_WHOLE, run)))
            k = _faithful_token(html_text, off, events)
            lt = html_text.find("<", k)
            if lt < 0:
                lt = n
            if k < lt:
                events.append((html_text[k:lt], "", ""))
            if lt >= end:
                pos = lt
                break
            # resume at the window token that starts at ``lt``
            i, off = j + 1, off + 1
            while off < lt:
                off += len(toks[i][0])
                i += 1
        m.feed(events)
    return m.close()
