"""Hand-authored realistic page fixtures with hand-labelled expected
main text — the hedge against the synthetic corpus's extraction-as-
identity circularity (VERDICT r1 item 1; docs/NEXT.md item 1).

Every fixture is an in-repo, hand-written HTML page exercising a shape
real pages have and the synthetic generator does not: inline markup
inside paragraphs, div-soup articles, layout vs data tables, comment
threads, cookie banners, hidden subtrees, share bars, breadcrumbs,
ad slots, figure captions, definition lists, FAQ accordions, unicode.

``expected_blocks`` is the hand-labelled main content in reading
order; the pipeline contract is that the extracted text equals
``SPAN_SEP.join(expected_blocks)`` byte-exactly (same separator
convention as the flagship pipeline, record.SPAN_SEP).

These run through the REAL distributed pipeline (FusedExtract:
extract → threshold/vote → spell) via ``extract_golden_real`` — a ``queries()``
rows-check entry — and are frozen as a pytest golden
(tests/test_realpages.py): every fixture must match exactly.
"""

from __future__ import annotations

import pyarrow as pa

from nidaba_ray.record import SPAN_SEP

__all__ = ["FIXTURES", "fixture_pages_table", "extract_golden_real",
           "golden_real_sql"]


def _page(name: str, html: str, expected_blocks: list[str],
          lang: str = "en") -> dict:
    return {
        "name": name,
        "html": html,
        "expected": SPAN_SEP.join(expected_blocks),
        # per-fixture language: drives the lang-keyed SpellFilter
        # lexicon cache through the real pipeline (round-2 verdict
        # item 7 — non-English fixtures exercise the spell path)
        "lang": lang,
    }


_P1 = ("The committee approved the new budget on Tuesday after a long "
       "debate that lasted well into the evening and touched on every "
       "department in the city.")
_P2 = ("Supporters argued the plan would repair aging bridges and "
       "expand the library system, while opponents warned about the "
       "rising cost of borrowing over the next decade.")
_P3 = ("A final vote on the amendments is expected next month, and "
       "officials said public comment sessions will continue every "
       "Thursday at the main hall.")

_NAV = ('<nav><ul><li><a href="/">Home</a></li><li><a href="/news">News'
        '</a></li><li><a href="/sports">Sports</a></li><li>'
        '<a href="/contact">Contact</a></li></ul></nav>')
_FOOTER = ('<footer><p><a href="/privacy">Privacy</a> <a href="/terms">'
           'Terms</a> © 2024 Example Media</p></footer>')
_SIDEBAR = ('<aside class="sidebar"><h3>Trending</h3><ul>'
            '<li><a href="/t/1">Storm closes harbor</a></li>'
            '<li><a href="/t/2">Rail line reopens</a></li>'
            '<li><a href="/t/3">Festival dates set</a></li></ul></aside>')


FIXTURES: list[dict] = [
    # 1. inline markup inside paragraphs must not split blocks
    _page(
        "inline_markup",
        f"""<html><body><header><h1>Example Media</h1>{_NAV}</header>
<main><article>
<p>The committee approved the <b>new budget</b> on Tuesday after a
<i>long debate</i> that lasted well into the evening and touched on
every department in the city.</p>
<p>Supporters argued the plan would repair <a href="/bridges">aging
bridges</a> and expand the library system, while opponents warned
about the rising cost of borrowing over the next decade.</p>
</article></main>{_SIDEBAR}{_FOOTER}</body></html>""",
        ["The committee approved the new budget on Tuesday after a "
         "long debate that lasted well into the evening and touched on "
         "every department in the city.",
         "Supporters argued the plan would repair aging bridges and "
         "expand the library system, while opponents warned about the "
         "rising cost of borrowing over the next decade."],
    ),
    # 2. div-soup article: content lives in sibling divs, no <p> at all
    _page(
        "div_soup_article",
        f"""<html><body><div class="page"><div class="topbar">{_NAV}</div>
<div class="content-area">
<div class="story-block">{_P1}</div>
<div class="story-block">{_P2}</div>
<div class="story-block">{_P3}</div>
</div>
<div class="cookie-consent">We use cookies to improve your experience.
<a href="/accept">Accept</a> <a href="/decline">Decline</a></div>
{_FOOTER}</div></body></html>""",
        [_P1, _P2, _P3],
    ),
    # 3. content deep in nested layout divs
    _page(
        "nested_divs",
        f"""<html><body><div id="root"><div class="shell"><div class="row">
<div class="col"><div class="inner">
<p>{_P1}</p><p>{_P2}</p>
</div></div></div></div>{_FOOTER}</body></html>""",
        [_P1, _P2],
    ),
    # 4. table used as page layout: nav cell + content cell
    _page(
        "layout_table",
        f"""<html><body><table><tr>
<td class="menu"><a href="/">Home</a><br><a href="/news">News</a><br>
<a href="/about">About</a><br><a href="/faq">FAQ</a></td>
<td class="main"><p>{_P1}</p><p>{_P2}</p></td>
</tr></table>{_FOOTER}</body></html>""",
        [_P1, _P2],
    ),
    # 5. data table inside the article is content
    _page(
        "data_table",
        f"""<html><body><header><h1>Example Media</h1>{_NAV}</header>
<main><article><p>{_P1}</p>
<table class="figures"><caption>Budget by department in millions</caption>
<tr><th>Department</th><th>Amount</th></tr>
<tr><td>Transport and roads</td><td>120 million approved</td></tr>
<tr><td>Libraries and culture</td><td>45 million approved</td></tr>
</table>
<p>{_P2}</p></article></main>{_FOOTER}</body></html>""",
        [_P1,
         "Budget by department in millions", "Department", "Amount",
         "Transport and roads", "120 million approved",
         "Libraries and culture", "45 million approved",
         _P2],
    ),
    # 6. comment thread below the article is not main content
    _page(
        "comments_section",
        f"""<html><body><main><article><p>{_P1}</p><p>{_P2}</p></article></main>
<section class="comments"><h3>12 Comments</h3>
<div class="comment"><p>First! Great reporting as always.</p></div>
<div class="comment"><p>They said the same thing last year and nothing
happened, I will believe it when I see the cranes.</p></div>
<div class="comment"><p>Thanks for covering this.</p></div>
</section>{_FOOTER}</body></html>""",
        [_P1, _P2],
    ),
    # 7. cookie banner ahead of the content
    _page(
        "cookie_banner",
        f"""<html><body>
<div class="cookie-banner">This site uses cookies to personalise
content and analyse traffic. <a href="/ok">Got it</a></div>
<main><article><p>{_P1}</p><p>{_P2}</p><p>{_P3}</p></article></main>
{_FOOTER}</body></html>""",
        [_P1, _P2, _P3],
    ),
    # 8. hidden subtrees contribute nothing
    _page(
        "hidden_elements",
        f"""<html><body>
<div style="display:none">skip navigation tracking pixel text</div>
<p hidden>prefetched teaser that is not rendered</p>
<main><article><p>{_P1}</p>
<div aria-hidden="true">decorative repeated headline</div>
<p>{_P2}</p></article></main>{_FOOTER}</body></html>""",
        [_P1, _P2],
    ),
    # 9. figure caption is kept with the article
    _page(
        "figure_caption",
        f"""<html><body><main><article><p>{_P1}</p>
<figure><img src="/img/bridge.jpg" alt="bridge">
<figcaption>The harbor bridge, photographed last spring during the
inspection that started the repair campaign.</figcaption></figure>
<p>{_P2}</p></article></main>{_SIDEBAR}{_FOOTER}</body></html>""",
        [_P1,
         "The harbor bridge, photographed last spring during the "
         "inspection that started the repair campaign.",
         _P2],
    ),
    # 10. blockquote inside the article is content
    _page(
        "blockquote_article",
        f"""<html><body><main><article><p>{_P1}</p>
<blockquote>We cannot keep patching a bridge that carries forty
thousand cars a day, the chief engineer told the council.</blockquote>
<p>{_P2}</p></article></main>{_FOOTER}</body></html>""",
        [_P1,
         "We cannot keep patching a bridge that carries forty "
         "thousand cars a day, the chief engineer told the council.",
         _P2],
    ),
    # 11. code blocks in a technical article are content
    _page(
        "code_article",
        f"""<html><body><main><article>
<p>To reproduce the benchmark, install the package and run the loader
with the default settings shown below on any machine with Python.</p>
<pre>pip install loader
loader run --input pages.parquet --workers 8</pre>
<p>The loader prints one line per shard and writes the manifest when
every shard has been verified against the checksum file.</p>
</article></main>{_SIDEBAR}{_FOOTER}</body></html>""",
        ["To reproduce the benchmark, install the package and run the "
         "loader with the default settings shown below on any machine "
         "with Python.",
         "pip install loader loader run --input pages.parquet --workers 8",
         "The loader prints one line per shard and writes the manifest "
         "when every shard has been verified against the checksum file."],
    ),
    # 12. content list kept, related-links list dropped
    _page(
        "list_content",
        f"""<html><body><main><article>
<p>The recipe needs only a handful of ingredients that most kitchens
already have on the shelf, measured for four servings.</p>
<ul class="ingredients">
<li>Two cups of flour, sifted twice</li>
<li>One spoon of baking powder</li>
<li>A pinch of salt and three eggs</li>
</ul>
<p>Mix the dry ingredients first, then fold in the eggs slowly until
the batter is smooth and pours like thick cream.</p>
</article></main>
<div class="related"><h4>Related</h4><ul>
<li><a href="/r/1">Ten quick breakfasts</a></li>
<li><a href="/r/2">Pancake history</a></li>
<li><a href="/r/3">Best griddles tested</a></li></ul></div>
{_FOOTER}</body></html>""",
        ["The recipe needs only a handful of ingredients that most "
         "kitchens already have on the shelf, measured for four servings.",
         "Two cups of flour, sifted twice",
         "One spoon of baking powder",
         "A pinch of salt and three eggs",
         "Mix the dry ingredients first, then fold in the eggs slowly "
         "until the batter is smooth and pours like thick cream."],
    ),
    # 13. share bar dropped
    _page(
        "share_social",
        f"""<html><body><main><article><p>{_P1}</p>
<div class="share-buttons"><a href="/s/tw">Tweet</a>
<a href="/s/fb">Share</a> <a href="/s/em">Email</a></div>
<p>{_P2}</p></article></main>{_FOOTER}</body></html>""",
        [_P1, _P2],
    ),
    # 14. newsletter signup mid-article dropped
    _page(
        "newsletter_mid",
        f"""<html><body><main><article><p>{_P1}</p>
<div class="newsletter-signup"><h4>Stay informed</h4>
<p>Sign up for our morning briefing and never miss a story.</p>
<form><input type="email"><input type="submit"></form></div>
<p>{_P2}</p><p>{_P3}</p></article></main>{_FOOTER}</body></html>""",
        [_P1, _P2, _P3],
    ),
    # 15. breadcrumb trail dropped
    _page(
        "breadcrumbs",
        f"""<html><body>
<nav class="breadcrumbs"><a href="/">Home</a> › <a href="/news">News</a>
› <a href="/news/city">City</a> › Budget</nav>
<main><article><p>{_P1}</p><p>{_P2}</p></article></main>
{_FOOTER}</body></html>""",
        [_P1, _P2],
    ),
    # 16. sticky site header + hero blurb + article
    _page(
        "sticky_header",
        f"""<html><body>
<header class="site-header sticky"><h1>Example Media</h1>{_NAV}
<div class="tagline">Independent reporting since 1999</div></header>
<main><article><h2>Budget passes first reading</h2>
<p>{_P1}</p><p>{_P2}</p></article></main>{_FOOTER}</body></html>""",
        ["Budget passes first reading", _P1, _P2],
    ),
    # 17. short article vs heavy chrome (the hard ratio case)
    _page(
        "short_article_heavy_chrome",
        f"""<html><body><header><h1>Example Media</h1>{_NAV}</header>
{_SIDEBAR}
<aside class="promo"><h3>Subscribe</h3><ul>
<li><a href="/sub/1">One month free trial</a></li>
<li><a href="/sub/2">Student discount offer</a></li>
<li><a href="/sub/3">Gift subscriptions here</a></li></ul></aside>
<main><article>
<p>The harbor ferry will skip the morning run on Friday because of
scheduled engine maintenance, the operator said.</p>
<p>Regular service resumes on Saturday with the usual timetable.</p>
</article></main>{_FOOTER}</body></html>""",
        ["The harbor ferry will skip the morning run on Friday because "
         "of scheduled engine maintenance, the operator said.",
         "Regular service resumes on Saturday with the usual timetable."],
    ),
    # 18. multi-section article with subheadings kept
    _page(
        "multi_section",
        f"""<html><body><main><article>
<h2>What the plan funds</h2><p>{_P1}</p>
<h2>What critics say</h2><p>{_P2}</p>
<h2>What happens next</h2><p>{_P3}</p>
</article></main>{_SIDEBAR}{_FOOTER}</body></html>""",
        ["What the plan funds", _P1,
         "What critics say", _P2,
         "What happens next", _P3],
    ),
    # 19. infinite-scroll stub and load-more button dropped
    _page(
        "infinite_scroll_stub",
        f"""<html><body><main><article><p>{_P1}</p><p>{_P2}</p></article>
<div class="pagination"><a href="/page/2">Load more stories</a></div>
<div class="feed-placeholder">Loading more content…</div>
</main>{_FOOTER}</body></html>""",
        [_P1, _P2],
    ),
    # 20. definition list glossary is content
    _page(
        "dl_definitions",
        f"""<html><body><main><article>
<p>The report uses a few terms of art that are worth pinning down
before reading the tables that follow in the appendix.</p>
<dl><dt>Debt service</dt>
<dd>The yearly cost of interest and principal on borrowed money.</dd>
<dt>Capital project</dt>
<dd>Construction or repair work with a useful life over ten years.</dd>
</dl></article></main>{_FOOTER}</body></html>""",
        ["The report uses a few terms of art that are worth pinning "
         "down before reading the tables that follow in the appendix.",
         "Debt service",
         "The yearly cost of interest and principal on borrowed money.",
         "Capital project",
         "Construction or repair work with a useful life over ten years."],
    ),
    # 21. unicode content survives byte-exactly (NFC input)
    _page(
        "unicode_content",
        f"""<html><body><main><article>
<p>Die Bürgermeisterin erklärte — nach langer Diskussion — die Brücke
für sanierungsbedürftig und kündigte Prüfungen an.</p>
<p>予算案は火曜日に承認され、委員会は来月の最終投票を予定している。</p>
</article></main>{_SIDEBAR}{_FOOTER}</body></html>""",
        ["Die Bürgermeisterin erklärte — nach langer Diskussion — die "
         "Brücke für sanierungsbedürftig und kündigte Prüfungen an.",
         "予算案は火曜日に承認され、委員会は来月の最終投票を予定している。"],
    ),
    # 22. entities decode inside content
    _page(
        "entities",
        f"""<html><body><main><article>
<p>Fares rise to &pound;4 &amp; the operator said &quot;tickets
bought before 1 May&quot; stay valid &mdash; details below.</p>
<p>{_P3}</p></article></main>{_FOOTER}</body></html>""",
        ["Fares rise to £4 & the operator said “tickets bought "
         "before 1 May” stay valid — details below."
         .replace("“", '"').replace("”", '"'),
         _P3],
    ),
    # 23. FAQ accordion: summary + answer are content
    _page(
        "faq_details",
        f"""<html><body><main><article>
<p>Readers sent in dozens of questions about the new timetable; the
three most common are answered below by the operations team.</p>
<details><summary>Will monthly passes still be valid on the new line?</summary>
<p>Yes, every existing pass is honored until its printed expiry date
with no surcharge on the new line.</p></details>
<details><summary>Is the night service keeping the same route?</summary>
<p>The night service keeps its route but adds one stop at the
hospital on request.</p></details>
</article></main>{_FOOTER}</body></html>""",
        ["Readers sent in dozens of questions about the new timetable; "
         "the three most common are answered below by the operations team.",
         "Will monthly passes still be valid on the new line?",
         "Yes, every existing pass is honored until its printed expiry "
         "date with no surcharge on the new line.",
         "Is the night service keeping the same route?",
         "The night service keeps its route but adds one stop at the "
         "hospital on request."],
    ),
    # 24. ad slots between paragraphs dropped
    _page(
        "ad_interspersed",
        f"""<html><body><main><article><p>{_P1}</p>
<div class="ad-slot">Advertisement</div>
<p>{_P2}</p>
<div class="ad-slot"><a href="/buy">Premium mattresses half price
this weekend only at SleepCo</a></div>
<p>{_P3}</p></article></main>{_FOOTER}</body></html>""",
        [_P1, _P2, _P3],
    ),
    # 25. byline and post-meta dropped, article kept
    _page(
        "byline_meta",
        f"""<html><body><main><article>
<div class="byline">By Dana Reyes, City Desk</div>
<div class="post-meta">Published 14 March 2024 · 6 min read</div>
<p>{_P1}</p><p>{_P2}</p></article></main>{_FOOTER}</body></html>""",
        [_P1, _P2],
    ),
    # 26. role attributes mark chrome
    _page(
        "role_chrome",
        f"""<html><body>
<ul role="navigation"><li><a href="/">Home</a></li>
<li><a href="/archive">Archive</a></li></ul>
<div role="banner">Example Media — your city, your news</div>
<main><article><p>{_P1}</p><p>{_P2}</p></article></main>
<div role="contentinfo">All rights reserved 2024</div>
</body></html>""",
        [_P1, _P2],
    ),
    # 27. bare text directly under body
    _page(
        "single_div_page",
        f"""<html><body>{_P1} {_P2}</body></html>""",
        [f"{_P1} {_P2}"],
    ),
    # 28. nested comment thread dropped entirely
    _page(
        "comment_thread_nested",
        f"""<html><body><main><article><p>{_P1}</p><p>{_P2}</p></article></main>
<div class="comments"><h3>Discussion</h3>
<div class="comment"><p>Does anyone know when the detour signs go up?</p>
<div class="comment"><p>They said next week on the radio.</p>
<div class="comment"><p>Confirmed, saw the notice at the depot.</p></div>
</div></div></div>{_FOOTER}</body></html>""",
        [_P1, _P2],
    ),
    # 29. RTL content (Arabic) survives byte-exactly with dir attrs
    _page(
        "rtl_content",
        f"""<html dir="rtl" lang="ar"><body><main><article dir="rtl">
<p>وافقت اللجنة على الميزانية الجديدة يوم الثلاثاء بعد نقاش طويل
استمر حتى ساعات المساء وتناول كل إدارات المدينة.</p>
<p>قال المؤيدون إن الخطة ستصلح الجسور القديمة وتوسع شبكة المكتبات
بينما حذر المعارضون من ارتفاع كلفة الاقتراض خلال العقد المقبل.</p>
</article></main>{_SIDEBAR}{_FOOTER}</body></html>""",
        ["وافقت اللجنة على الميزانية الجديدة يوم الثلاثاء بعد نقاش طويل "
         "استمر حتى ساعات المساء وتناول كل إدارات المدينة.",
         "قال المؤيدون إن الخطة ستصلح الجسور القديمة وتوسع شبكة المكتبات "
         "بينما حذر المعارضون من ارتفاع كلفة الاقتراض خلال العقد المقبل."],
    ),
    # 30. mixed-language page: content paragraphs in two languages
    _page(
        "mixed_language",
        f"""<html><body><main><article>
<p>{_P1}</p>
<p>Der Stadtrat stimmte dem Haushalt in erster Lesung zu und verwies
die Änderungsanträge an den Finanzausschuss zurück.</p>
<p>{_P3}</p></article></main>{_FOOTER}</body></html>""",
        [_P1,
         "Der Stadtrat stimmte dem Haushalt in erster Lesung zu und "
         "verwies die Änderungsanträge an den Finanzausschuss zurück.",
         _P3],
    ),
    # 31. long pull-quote duplicated from body text stays (it is content)
    _page(
        "pull_quote",
        f"""<html><body><main><article><p>{_P1}</p>
<blockquote class="pullquote-wide">Supporters argued the plan would
repair aging bridges and expand the library system.</blockquote>
<p>{_P2}</p><p>{_P3}</p></article></main>{_FOOTER}</body></html>""",
        [_P1,
         "Supporters argued the plan would repair aging bridges and "
         "expand the library system.",
         _P2, _P3],
    ),
    # 32. paywall teaser: visible teaser + hidden full text + prompt
    _page(
        "paywall_teaser",
        f"""<html><body><main><article>
<p>{_P1}</p>
<div class="paywall-gate"><h4>Subscribe to keep reading</h4>
<p>Get unlimited access for two euros a month, cancel anytime.</p></div>
<div class="article-full" style="display:none"><p>{_P2}</p><p>{_P3}</p></div>
</article></main>{_FOOTER}</body></html>""",
        [_P1],
    ),
    # 33. markup-heavy inline styling: every word wrapped in spans
    _page(
        "span_soup",
        """<html><body><main><article>
<p><span class="w">The</span> <span class="w">committee</span>
<span class="w">approved</span> <span class="w">the</span>
<span class="w">new</span> <span class="w">budget</span>
<span class="w">after</span> <span class="w">the</span>
<span class="w">longest</span> <span class="w">debate</span>
<span class="w">of</span> <span class="w">the</span>
<span class="w">year</span>.</p>
<p>A second paragraph written plainly to anchor the page's score
distribution with ordinary markup density.</p>
</article></main>""" + _FOOTER + """</body></html>""",
        ["The committee approved the new budget after the longest "
         "debate of the year.",
         "A second paragraph written plainly to anchor the page's "
         "score distribution with ordinary markup density."],
    ),
    # 34. content inside a table-of-tables wrapper (markup-heavy)
    _page(
        "table_wrapper_article",
        f"""<html><body><table class="outer"><tr><td>
<table class="inner"><tr><td>
<p>{_P1}</p><p>{_P2}</p>
</td></tr></table>
</td></tr></table>{_FOOTER}</body></html>""",
        [_P1, _P2],
    ),
    # 35. code-heavy technical doc: more code than prose, all content
    _page(
        "code_heavy",
        """<html><body><main><article>
<p>Configure the reader with explicit column pruning before running.</p>
<pre>reader = open_table("pages")
reader.select(["url", "html"])
for batch in reader.batches(size=256):
    process(batch)
    checkpoint(batch.id)</pre>
<p>Then enable the manifest writer so interrupted runs resume.</p>
<pre>writer = manifest(dir="out", buckets=64)
writer.commit_all()</pre>
</article></main>""" + _FOOTER + """</body></html>""",
        ["Configure the reader with explicit column pruning before running.",
         'reader = open_table("pages") reader.select(["url", "html"]) '
         "for batch in reader.batches(size=256): process(batch) "
         "checkpoint(batch.id)",
         "Then enable the manifest writer so interrupted runs resume.",
         'writer = manifest(dir="out", buckets=64) writer.commit_all()'],
    ),
    # 36. wiki-style page: infobox table is metadata, prose is content
    _page(
        "wiki_infobox",
        f"""<html><body><main>
<table class="infobox"><tr><th>Founded</th><td>1887</td></tr>
<tr><th>Population</th><td>412,000</td></tr>
<tr><th>Mayor</th><td>I. Example</td></tr></table>
<p>{_P1}</p><p>{_P2}</p><p>{_P3}</p></main>{_FOOTER}</body></html>""",
        [_P1, _P2, _P3],
    ),
    # 37. forum thread: the original post is content, replies are not
    _page(
        "forum_thread",
        f"""<html><body><main>
<div class="post original-post">
<p>Has anyone measured how long the detour adds to the morning
commute across the old bridge since the repair work started? My own
timing over two weeks says about eleven minutes on average, and I am
curious whether the pattern holds on the north side.</p>
</div>
<div class="reply"><p>About ten minutes for me, slightly worse on
Mondays when the market traffic joins in.</p></div>
<div class="reply"><p>Take the ferry, honestly.</p></div>
</main>{_FOOTER}</body></html>""",
        ["Has anyone measured how long the detour adds to the morning "
         "commute across the old bridge since the repair work started? "
         "My own timing over two weeks says about eleven minutes on "
         "average, and I am curious whether the pattern holds on the "
         "north side."],
    ),
    # 38. product page: description kept, commerce chrome dropped
    _page(
        "product_page",
        f"""<html><body><main>
<h2>Meridian 24 inch touring frame</h2>
<div class="promo">Save 15 percent this week with code RIDE15</div>
<p>The touring frame is welded from double-butted tubing and carries
mounts for three bottle cages, front and rear racks, and full
fenders, with clearance for forty millimeter tires.</p>
<p>Every frame ships with a hardware kit and a ten year warranty
against manufacturing defects, registered at purchase.</p>
<div class="related"><h4>Customers also viewed</h4><ul>
<li><a href="/p/2">Canyon handlebars</a></li>
<li><a href="/p/3">Touring panniers</a></li></ul></div>
</main>{_FOOTER}</body></html>""",
        ["Meridian 24 inch touring frame",
         "The touring frame is welded from double-butted tubing and "
         "carries mounts for three bottle cages, front and rear racks, "
         "and full fenders, with clearance for forty millimeter tires.",
         "Every frame ships with a hardware kit and a ten year "
         "warranty against manufacturing defects, registered at "
         "purchase."],
    ),
    # 39. liveblog: every timestamped update block is content
    _page(
        "liveblog_updates",
        f"""<html><body><main><article>
<div class="update"><p>14:05 The council session opened with a roll
call and the chair moved the budget to the top of the agenda.</p></div>
<div class="update"><p>14:32 The first amendment on library funding
passed by eleven votes to four after a short debate.</p></div>
<div class="update"><p>15:10 The session adjourned; the final vote is
scheduled for next month's meeting.</p></div>
</article></main>{_SIDEBAR}{_FOOTER}</body></html>""",
        ["14:05 The council session opened with a roll call and the "
         "chair moved the budget to the top of the agenda.",
         "14:32 The first amendment on library funding passed by "
         "eleven votes to four after a short debate.",
         "15:10 The session adjourned; the final vote is scheduled "
         "for next month's meeting."],
    ),
    # ------------------------------------------------------------------
    # 40-45: non-English fixtures with in-language chrome — these run
    # the lang-keyed SpellFilter lexicon path on realistic markup
    # (round-2 verdict item 7). Labels FROZEN like all others.
    # ------------------------------------------------------------------
    # 40. German news article, German boilerplate
    _page(
        "de_news_article",
        """<html lang="de"><body><header><h1>Stadtanzeiger</h1>
<nav><ul><li><a href="/">Startseite</a></li><li><a href="/politik">Politik
</a></li><li><a href="/kultur">Kultur</a></li><li><a href="/kontakt">
Kontakt</a></li></ul></nav></header>
<main><article>
<p>Der Gemeinderat billigte den neuen Haushalt am Dienstag nach einer
langen Debatte, die bis in den Abend dauerte und jede Abteilung der
Stadt berührte.</p>
<p>Befürworter erklärten, der Plan werde marode Brücken sanieren und
das Bibliotheksnetz erweitern, während Gegner vor steigenden
Zinskosten im kommenden Jahrzehnt warnten.</p>
</article></main>
<aside class="sidebar"><h3>Meistgelesen</h3><ul>
<li><a href="/t/1">Sturm schließt Hafen</a></li>
<li><a href="/t/2">Bahnstrecke wieder frei</a></li></ul></aside>
<footer><p><a href="/datenschutz">Datenschutz</a> <a href="/impressum">
Impressum</a> © 2024 Stadtanzeiger</p></footer></body></html>""",
        ["Der Gemeinderat billigte den neuen Haushalt am Dienstag nach "
         "einer langen Debatte, die bis in den Abend dauerte und jede "
         "Abteilung der Stadt berührte.",
         "Befürworter erklärten, der Plan werde marode Brücken sanieren "
         "und das Bibliotheksnetz erweitern, während Gegner vor "
         "steigenden Zinskosten im kommenden Jahrzehnt warnten."],
        lang="de",
    ),
    # 41. German product page with spec list and related-items chrome
    _page(
        "de_product_page",
        """<html lang="de"><body><main>
<h2>Tourenrahmen Meridian 24 Zoll</h2>
<p>Der Tourenrahmen ist aus doppelt konifizierten Rohren geschweißt
und trägt Ösen für drei Flaschenhalter, Front- und Heckträger sowie
durchgehende Schutzbleche mit Freiraum für vierzig Millimeter
Reifen.</p>
<p>Jeder Rahmen wird mit einem Schraubensatz geliefert und besitzt
zehn Jahre Garantie gegen Fabrikationsfehler, registriert beim
Kauf.</p>
<div class="related"><h4>Kunden sahen auch</h4><ul>
<li><a href="/p/2">Lenker aus Aluminium</a></li>
<li><a href="/p/3">Gepäcktaschen wasserdicht</a></li></ul></div>
</main><footer><p><a href="/agb">AGB</a> © 2024 Radhaus</p></footer>
</body></html>""",
        ["Tourenrahmen Meridian 24 Zoll",
         "Der Tourenrahmen ist aus doppelt konifizierten Rohren "
         "geschweißt und trägt Ösen für drei Flaschenhalter, Front- und "
         "Heckträger sowie durchgehende Schutzbleche mit Freiraum für "
         "vierzig Millimeter Reifen.",
         "Jeder Rahmen wird mit einem Schraubensatz geliefert und "
         "besitzt zehn Jahre Garantie gegen Fabrikationsfehler, "
         "registriert beim Kauf."],
        lang="de",
    ),
    # 42. Spanish recipe: ordered steps are content, print bar is not
    _page(
        "es_recipe_steps",
        """<html lang="es"><body><header><h1>Cocina Diaria</h1>
<nav><ul><li><a href="/">Inicio</a></li><li><a href="/recetas">Recetas
</a></li><li><a href="/contacto">Contacto</a></li></ul></nav></header>
<main><article>
<p>Esta tortilla de patatas queda jugosa por dentro y dorada por
fuera, y solo necesita cinco ingredientes básicos de despensa.</p>
<ol class="steps">
<li>Pela las patatas, córtalas en láminas finas y fríelas a fuego
suave durante veinte minutos sin que tomen color.</li>
<li>Bate los huevos con una pizca de sal, mezcla con las patatas
escurridas y deja reposar diez minutos.</li>
<li>Cuaja la mezcla en la sartén dos minutos por cada lado y sirve
templada.</li>
</ol></article></main>
<div class="printbar"><a href="/imprimir">Imprimir</a>
<a href="/pdf">Descargar PDF</a></div>
<footer><p><a href="/aviso">Aviso legal</a> © 2024 Cocina Diaria</p>
</footer></body></html>""",
        ["Esta tortilla de patatas queda jugosa por dentro y dorada por "
         "fuera, y solo necesita cinco ingredientes básicos de despensa.",
         "Pela las patatas, córtalas en láminas finas y fríelas a fuego "
         "suave durante veinte minutos sin que tomen color.",
         "Bate los huevos con una pizca de sal, mezcla con las patatas "
         "escurridas y deja reposar diez minutos.",
         "Cuaja la mezcla en la sartén dos minutos por cada lado y "
         "sirve templada."],
        lang="es",
    ),
    # 43. French blog post with share bar and newsletter box
    _page(
        "fr_blog_post",
        """<html lang="fr"><body><main><article>
<h2>Retour sur la fête du canal</h2>
<p>La fête du canal a rassemblé près de dix mille visiteurs samedi,
malgré une météo changeante et des travaux sur la ligne de tramway.</p>
<p>Les organisateurs annoncent déjà une seconde édition, avec des
péniches-concerts supplémentaires et un marché nocturne élargi.</p>
</article></main>
<div class="share"><a href="/fb">Partager</a> <a href="/tw">Tweeter</a>
<a href="/ml">Envoyer par courriel</a></div>
<div class="newsletter"><h4>Infolettre</h4><p><a href="/abo">Abonnez-vous
à notre infolettre hebdomadaire</a></p></div>
<footer><p><a href="/mentions">Mentions légales</a> © 2024 Le Carnet</p>
</footer></body></html>""",
        ["Retour sur la fête du canal",
         "La fête du canal a rassemblé près de dix mille visiteurs "
         "samedi, malgré une météo changeante et des travaux sur la "
         "ligne de tramway.",
         "Les organisateurs annoncent déjà une seconde édition, avec "
         "des péniches-concerts supplémentaires et un marché nocturne "
         "élargi."],
        lang="fr",
    ),
    # 44. Chinese news article (no spaces — paragraphs single-line so
    # whitespace collapse cannot alter the bytes)
    _page(
        "zh_news_article",
        """<html lang="zh"><body><header><h1>城市日报</h1>
<nav><ul><li><a href="/">首页</a></li><li><a href="/shizheng">时政</a></li>
<li><a href="/jingji">经济</a></li><li><a href="/lianxi">联系我们</a></li>
</ul></nav></header>
<main><article>
<p>市议会星期二经过长时间辩论后批准了新预算，讨论持续到深夜，涉及全市每一个部门。</p>
<p>支持者表示该计划将修复老化的桥梁并扩建图书馆网络，反对者则警告未来十年借贷成本不断上升。</p>
</article></main>
<aside class="sidebar"><h3>热门</h3><ul><li><a href="/t/1">风暴关闭港口
</a></li><li><a href="/t/2">铁路恢复通车</a></li></ul></aside>
<footer><p><a href="/yinsi">隐私政策</a> © 2024 城市日报</p></footer>
</body></html>""",
        ["市议会星期二经过长时间辩论后批准了新预算，讨论持续到深夜，涉及全市每一个部门。",
         "支持者表示该计划将修复老化的桥梁并扩建图书馆网络，反对者则警告未来十年借贷成本不断上升。"],
        lang="zh",
    ),
    # 45. Chinese FAQ with definition list; answers are content
    _page(
        "zh_faq_dl",
        """<html lang="zh"><body><main><article>
<h2>市立图书馆借阅服务常见问题解答</h2>
<dl class="faq">
<dt>如何申请借书证？</dt>
<dd>携带有效身份证件到任一分馆的服务台填写申请表，当场即可领取借书证，首次办理免收工本费。</dd>
<dt>图书可以续借几次？</dt>
<dd>每册图书最多可续借两次，每次三十天，可以在网站、自助机或服务台办理续借手续。</dd>
</dl></article></main>
<footer><p><a href="/tiaokuan">使用条款</a> © 2024 市立图书馆</p></footer>
</body></html>""",
        ["市立图书馆借阅服务常见问题解答",
         "如何申请借书证？",
         "携带有效身份证件到任一分馆的服务台填写申请表，当场即可领取借书证，首次办理免收工本费。",
         "图书可以续借几次？",
         "每册图书最多可续借两次，每次三十天，可以在网站、自助机或服务台办理续借手续。"],
        lang="zh",
    ),
    # 46. Russian news article (Cyrillic; no repo lexicon for ru — the
    # SpellFilter must still run cleanly on an unknown-lang page)
    _page(
        "ru_news_article",
        """<html lang="ru"><body><header><h1>Городские вести</h1>
<nav><ul><li><a href="/">Главная</a></li><li><a href="/novosti">Новости</a></li>
<li><a href="/kontakty">Контакты</a></li></ul></nav></header>
<main><article>
<p>Городской совет во вторник утвердил новый бюджет после долгих дебатов,
которые продолжались до позднего вечера и затронули каждое управление города.</p>
<p>Сторонники заявили, что план позволит отремонтировать стареющие мосты и
расширить сеть библиотек, а противники предупредили о росте стоимости
заимствований в ближайшее десятилетие.</p>
</article></main>
<footer><p><a href="/policy">Политика</a> © 2024 Городские вести</p></footer>
</body></html>""",
        ["Городской совет во вторник утвердил новый бюджет после долгих "
         "дебатов, которые продолжались до позднего вечера и затронули "
         "каждое управление города.",
         "Сторонники заявили, что план позволит отремонтировать "
         "стареющие мосты и расширить сеть библиотек, а противники "
         "предупредили о росте стоимости заимствований в ближайшее "
         "десятилетие."],
        lang="ru",
    ),
    # 47. Korean FAQ (Hangul with spaces)
    _page(
        "ko_library_faq",
        """<html lang="ko"><body><main><article>
<h2>시립 도서관 대출 서비스 자주 묻는 질문</h2>
<p>대출증은 유효한 신분증을 지참하고 가까운 분관 안내 데스크에서 신청서를
작성하면 즉시 발급되며, 첫 발급 수수료는 무료입니다.</p>
<p>모든 도서는 최대 두 번까지 연장할 수 있으며, 연장은 홈페이지나 무인
단말기 또는 안내 데스크에서 처리할 수 있습니다.</p>
</article></main>
<footer><p><a href="/terms">이용 약관</a> © 2024 시립 도서관</p></footer>
</body></html>""",
        ["시립 도서관 대출 서비스 자주 묻는 질문",
         "대출증은 유효한 신분증을 지참하고 가까운 분관 안내 데스크에서 "
         "신청서를 작성하면 즉시 발급되며, 첫 발급 수수료는 무료입니다.",
         "모든 도서는 최대 두 번까지 연장할 수 있으며, 연장은 홈페이지나 "
         "무인 단말기 또는 안내 데스크에서 처리할 수 있습니다."],
        lang="ko",
    ),
    # 48. table-layout email newsletter: hidden preheader and
    # unsubscribe row are chrome, story cells are content
    _page(
        "email_newsletter",
        """<html><body>
<div class="preheader" style="display:none">Your weekly digest is here</div>
<table role="presentation" width="600"><tr><td>
<h2>Harbor works enter the final phase</h2>
<p>Crews finished dredging the north channel this week, and the new
ferry berth is on track to open before the summer schedule begins.</p>
<p>The city will hold an open house at the terminal on Saturday with
tours of the rebuilt waiting hall.</p>
</td></tr><tr><td class="footer-links">
<p><a href="/unsubscribe">Unsubscribe</a> <a href="/preferences">Update
preferences</a> <a href="/view">View in browser</a></p>
</td></tr></table></body></html>""",
        ["Harbor works enter the final phase",
         "Crews finished dredging the north channel this week, and the "
         "new ferry berth is on track to open before the summer "
         "schedule begins.",
         "The city will hold an open house at the terminal on Saturday "
         "with tours of the rebuilt waiting hall."],
    ),
    # 49. AMP page: amp-img / amp-ad custom elements between content
    # paragraphs contribute nothing
    _page(
        "amp_page",
        """<html amp lang="en"><head><script async src="https://cdn.ampproject.org/v0.js"></script></head>
<body><header><h1>Example AMP</h1></header>
<main><article>
<amp-img src="/hero.jpg" width="600" height="300" layout="responsive"></amp-img>
<p>The committee approved the new budget on Tuesday after a long debate
that lasted well into the evening and touched on every department in the
city.</p>
<amp-ad width="300" height="250" type="adsense"></amp-ad>
<p>A final vote on the amendments is expected next month, and officials
said public comment sessions will continue every Thursday at the main
hall.</p>
</article></main>
<footer><p><a href="/privacy">Privacy</a> © 2024 Example AMP</p></footer>
</body></html>""",
        ["The committee approved the new budget on Tuesday after a long "
         "debate that lasted well into the evening and touched on every "
         "department in the city.",
         "A final vote on the amendments is expected next month, and "
         "officials said public comment sessions will continue every "
         "Thursday at the main hall."],
    ),
    # 50. LONG code listing: a wall of code much larger than the prose
    # around it must survive as one content block (docs/NEXT.md item 4
    # "long code-listing pages") — a length- or prose-ratio-biased
    # scorer would drop exactly this shape
    _page(
        "long_code_listing",
        """<html><body><header><h1>Pipeline Cookbook</h1></header>
<main><article>
<p>The full resumable-runner recipe below is what the earlier sections
build toward; read the inline checks before adapting it.</p>
<pre>import sys

def open_shards(root, pattern):
    shards = sorted(glob(root + "/" + pattern))
    if not shards:
        raise SystemExit("no shards under " + root)
    return shards

def plan(shards, buckets=64):
    groups = {}
    for s in shards:
        b = crc(s) % buckets
        groups.setdefault(b, []).append(s)
    return groups

def run(groups, out):
    done = load_manifest(out)
    for b, paths in sorted(groups.items()):
        if b in done:
            continue
        rows = 0
        for p in paths:
            for batch in read_batches(p, size=256):
                rows += write_bucket(out, b, transform(batch))
        commit(out, b, rows)

if __name__ == "__main__":
    g = plan(open_shards(sys.argv[1], "*.parquet"))
    run(g, sys.argv[2])</pre>
<p>Interrupted runs skip committed buckets on restart, so the listing
is safe to re-execute end to end.</p>
</article></main>
<footer><p><a href="/privacy">Privacy</a> © 2024 Example Docs</p></footer>
</body></html>""",
        ["The full resumable-runner recipe below is what the earlier "
         "sections build toward; read the inline checks before adapting "
         "it.",
         'import sys def open_shards(root, pattern): shards = '
         'sorted(glob(root + "/" + pattern)) if not shards: raise '
         'SystemExit("no shards under " + root) return shards def '
         "plan(shards, buckets=64): groups = {} for s in shards: b = "
         "crc(s) % buckets groups.setdefault(b, []).append(s) return "
         "groups def run(groups, out): done = load_manifest(out) for b, "
         "paths in sorted(groups.items()): if b in done: continue rows "
         "= 0 for p in paths: for batch in read_batches(p, size=256): "
         "rows += write_bucket(out, b, transform(batch)) commit(out, b, "
         'rows) if __name__ == "__main__": g = '
         'plan(open_shards(sys.argv[1], "*.parquet")) run(g, '
         "sys.argv[2])",
         "Interrupted runs skip committed buckets on restart, so the "
         "listing is safe to re-execute end to end."],
    ),
    # 51. SVG-heavy page: inline charts/icons (svg subtrees incl. their
    # <text>/<title> labels are graphics, not page text) between
    # paragraphs; an svg figure's <figcaption> IS content
    _page(
        "svg_heavy",
        f"""<html><body><header><h1>Transit Report</h1></header>
<main><article>
<svg viewBox="0 0 120 40" role="img"><title>Weekly ridership</title>
<rect x="0" y="10" width="20" height="30"></rect>
<rect x="30" y="5" width="20" height="35"></rect>
<text x="5" y="38">Mon</text><text x="35" y="38">Tue</text></svg>
<p>{_P1}</p>
<figure><svg viewBox="0 0 80 80"><circle cx="40" cy="40" r="30"></circle>
<text x="40" y="44" text-anchor="middle">62%</text></svg>
<figcaption>Share of riders who switched to the harbor ferry during
the bridge closure, per the spring survey.</figcaption></figure>
<p>{_P2}</p>
<svg class="icon" width="16" height="16"><use href="#warn"></use></svg>
<p>{_P3}</p>
</article></main>{_SIDEBAR}{_FOOTER}</body></html>""",
        [_P1,
         "Share of riders who switched to the harbor ferry during the "
         "bridge closure, per the spring survey.",
         _P2, _P3],
    ),
    # 52. MathML between paragraphs: formula markup (glyph runs with
    # no inter-element spacing) is dropped whole, prose survives
    _page(
        "mathml_article",
        f"""<html><body><main><article>
<p>{_P1}</p>
<math display="block"><mrow><mi>x</mi><mo>=</mo><mfrac>
<mrow><mo>-</mo><mi>b</mi><mo>&#xB1;</mo><msqrt><mrow><msup><mi>b</mi>
<mn>2</mn></msup><mo>-</mo><mn>4</mn><mi>a</mi><mi>c</mi></mrow></msqrt>
</mrow><mrow><mn>2</mn><mi>a</mi></mrow></mfrac></mrow></math>
<p>{_P2}</p>
<p>Officials said the projection uses the standard quadratic model
shown above, with coefficients re-estimated every quarter.</p>
</article></main>{_FOOTER}</body></html>""",
        [_P1, _P2,
         "Officials said the projection uses the standard quadratic "
         "model shown above, with coefficients re-estimated every "
         "quarter."],
    ),
    # 53. iframe ad wrappers: inner fallback markup (rendered only by
    # frameless browsers) never leaks into the page text
    _page(
        "iframe_ad_wrappers",
        f"""<html><body><main><article>
<p>{_P1}</p>
<div class="ad-slot"><iframe src="//ads.example/slot1" width="300"
height="250"><html><body><p>Your browser does not support frames.
Visit our sponsor for unbeatable deals today!</p></body></html>
</iframe></div>
<p>{_P2}</p>
<iframe src="//cmp.example/consent" title="consent">
<p>Consent manager requires frames.</p></iframe>
<p>{_P3}</p>
</article></main>{_SIDEBAR}{_FOOTER}</body></html>""",
        [_P1, _P2, _P3],
    ),
    # 54. print-stylesheet duplicate: a display:none print-only copy
    # of the article must not double the extracted text
    _page(
        "print_only_duplicate",
        f"""<html><body><main><article class="screen-view">
<p>{_P1}</p><p>{_P2}</p>
</article>
<div class="print-view" style="display:none">
<p>{_P1}</p><p>{_P2}</p>
<p>Printed from example.com — all rights reserved.</p>
</div></main>{_FOOTER}</body></html>""",
        [_P1, _P2],
    ),
    # 55. Arabic news article (RTL) with inline LTR runs (a product
    # name and a figure) — no ar lexicon in-repo, so the spell stage
    # must pass the text through untouched (same contract as ru)
    _page(
        "arabic_news",
        """<html lang="ar" dir="rtl"><body>
<header><h1>صحيفة المثال</h1><nav><ul><li><a href="/">الرئيسية</a></li>
<li><a href="/news">أخبار</a></li></ul></nav></header>
<main><article>
<p>وافقت اللجنة على الميزانية الجديدة يوم الثلاثاء بعد نقاش طويل
استمر حتى ساعات المساء وتناول كل إدارات المدينة.</p>
<p>وقال المتحدث إن نظام <span dir="ltr">Metro&nbsp;X2</span> الجديد
سيرفع الطاقة الاستيعابية بنسبة <span dir="ltr">40%</span> خلال
العام المقبل.</p>
</article></main>
<footer><p>© 2024 صحيفة المثال</p></footer></body></html>""",
        ["وافقت اللجنة على الميزانية الجديدة يوم الثلاثاء بعد نقاش طويل "
         "استمر حتى ساعات المساء وتناول كل إدارات المدينة.",
         "وقال المتحدث إن نظام Metro X2 الجديد سيرفع الطاقة "
         "الاستيعابية بنسبة 40% خلال العام المقبل."],
        lang="ar",
    ),
    # 56. giant data table: a reference page that IS one long table —
    # every cell is content even though prose is a tiny fraction
    _page(
        "giant_data_table",
        """<html><body><header><h1>Harbor Tide Tables</h1></header>
<main><p>Predicted high tides for the outer harbor, spring schedule.</p>
<table class="data"><tr><th>Date</th><th>Morning</th><th>Evening</th></tr>
"""
        + "".join(
            f"<tr><td>April {d}</td><td>{5 + d % 4}:{10 + d}0 am</td>"
            f"<td>{6 + d % 3}:{10 + d}5 pm</td></tr>\n"
            for d in range(1, 9)
        )
        + """</table></main>
<footer><p>© 2024 Harbor Authority</p></footer></body></html>""",
        ["Predicted high tides for the outer harbor, spring schedule.",
         "Date", "Morning", "Evening"]
        + [c for d in range(1, 9)
           for c in (f"April {d}", f"{5 + d % 4}:{10 + d}0 am",
                     f"{6 + d % 3}:{10 + d}5 pm")],
    ),
    # 57. pagination chrome: page-number links and prev/next bars
    # around the article contribute nothing
    _page(
        "pagination_chrome",
        f"""<html><body><main>
<nav class="pagination"><a href="/p/1">1</a> <a href="/p/2">2</a>
<a href="/p/3">3</a> <span>…</span> <a href="/p/9">9</a>
<a href="/p/2" rel="next">Next →</a></nav>
<article><p>{_P1}</p><p>{_P2}</p></article>
<div class="pager"><a href="/p/1">← Previous</a>
<a href="/p/2">Next page of results</a></div>
</main>{_FOOTER}</body></html>""",
        [_P1, _P2],
    ),
    # 58. JSON-LD / analytics script payloads never leak into text
    _page(
        "jsonld_scripts",
        f"""<html><head>
<script type="application/ld+json">{{"@context":"https://schema.org",
"@type":"NewsArticle","headline":"Committee approves budget",
"articleBody":"This structured copy of the article must never appear
in the extracted text."}}</script>
</head><body>
<script>window.dataLayer=[];dataLayer.push({{"event":"pageview"}});
</script>
<main><article><h1>Budget approved</h1><p>{_P1}</p><p>{_P2}</p>
</article></main>
<script type="application/ld+json">{{"@type":"BreadcrumbList",
"itemListElement":[{{"name":"News"}},{{"name":"Budget"}}]}}</script>
{_FOOTER}</body></html>""",
        ["Budget approved", _P1, _P2],
    ),
    # 59. lazy-load placeholders and <noscript> image fallbacks are
    # chrome; the figure caption is content
    _page(
        "noscript_lazyload",
        f"""<html><body><main><article><p>{_P1}</p>
<figure><img data-src="/img/bridge.jpg" class="lazyload"
src="data:image/gif;base64,R0lGOD" alt="">
<noscript><img src="/img/bridge.jpg" alt="The harbor bridge at dusk">
JavaScript is disabled; showing static image.</noscript>
<figcaption>The harbor bridge, whose repairs anchor the plan.
</figcaption></figure>
<p>{_P2}</p></article></main>
<noscript><div class="no-js-banner">Please enable JavaScript to see
personalized recommendations.</div></noscript>
{_FOOTER}</body></html>""",
        [_P1,
         "The harbor bridge, whose repairs anchor the plan.",
         _P2],
    ),
    # 60. documentation page: table-of-contents sidebar of anchor
    # links is chrome; section headings + prose are content
    _page(
        "docs_toc_sidebar",
        f"""<html><body>
<nav class="toc sidebar"><h3>On this page</h3><ul>
<li><a href="#install">Installation</a></li>
<li><a href="#config">Configuration</a></li>
<li><a href="#faq">FAQ</a></li></ul></nav>
<main><article>
<h2 id="install">Installation</h2>
<p>Install the package from the archive and verify the checksum
before unpacking it into the tools directory on the build host.</p>
<h2 id="config">Configuration</h2>
<p>{_P2}</p>
<div class="edit-this-page"><a href="/edit">Edit this page</a></div>
</article></main>{_FOOTER}</body></html>""",
        ["Installation",
         "Install the package from the archive and verify the checksum "
         "before unpacking it into the tools directory on the build host.",
         "Configuration", _P2],
    ),
    # 61. social-embed blockquote. POLICY (documented here, decided
    # round 4): the no-JS fallback text of a platform embed
    # (<blockquote class="twitter-tweet">…) is KEPT — it is the
    # quotation the author deliberately surfaced and often the subject
    # of the article; cross-page duplication of viral embeds is the
    # dedup family's job, not the extractor's. The attribution/date
    # line ("— Author (@handle) <a>date</a>") is boilerplate and is
    # dropped by the link-density prior; the platform <script> is
    # dropped by SKIP_TAGS.
    _page(
        "social_embed_blockquote",
        f"""<html><body><main><article>
<p>{_P1}</p>
<blockquote class="twitter-tweet"><p>Bridge repairs start Monday;
expect detours on the east approach while crews stage equipment.</p>
&mdash; City Roads (@cityroads) <a
href="https://twitter.com/cityroads/status/1">April 2, 2024</a>
</blockquote>
<script async src="https://platform.twitter.com/widgets.js"></script>
<p>{_P2}</p>
</article></main>{_FOOTER}</body></html>""",
        [_P1,
         "Bridge repairs start Monday; expect detours on the east "
         "approach while crews stage equipment.",
         _P2],
    ),
    # 62. server-rendered search results: snippets and displayed URLs
    # are the retained content (query-specific server text); the
    # anchor-only result titles pattern-match navigation under the
    # anchor-density prior and are dropped, as are pagination/footer.
    # The result-count line is plain server text and is kept.
    _page(
        "serp_results",
        """<html><body>
<header><form role="search"><input name="q" value="harbor bridge repairs">
</form></header>
<main>
<p class="result-stats">About 1,240 results (0.42 seconds)</p>
<div class="result"><h3><a href="https://example.com/a">Harbor bridge
repairs to begin in April</a></h3>
<cite>example.com/a</cite>
<p>The city confirmed that harbor bridge repairs will begin in early
April, with night closures limited to the east approach.</p></div>
<div class="result"><h3><a href="https://example.org/b">Bridge repair
budget approved after debate</a></h3>
<cite>example.org/b</cite>
<p>Officials approved the repair budget on Tuesday following a long
debate about borrowing costs and the library system.</p></div>
<nav class="pagination"><a href="/s?p=2">2</a><a href="/s?p=3">3</a>
<a rel="next" href="/s?p=2">Next</a></nav>
</main><footer><p>Search help</p></footer></body></html>""",
        ["About 1,240 results (0.42 seconds)",
         "example.com/a",
         "The city confirmed that harbor bridge repairs will begin in "
         "early April, with night closures limited to the east approach.",
         "example.org/b",
         "Officials approved the repair budget on Tuesday following a "
         "long debate about borrowing costs and the library system."],
    ),
    # 63. calendar/event grid: the month heading and populated event
    # cells are content; bare day-number cells and the weekday header
    # row are grid furniture and are dropped (uniformly — the month
    # heading between intro and grid keeps score smoothing from
    # bleeding prose score into the first header cell).
    _page(
        "event_calendar_grid",
        """<html><body><header><h1>Town Hall Events</h1></header>
<main><p>Events scheduled at the main hall this week, all open to the
public unless marked otherwise.</p>
<h2>April 2024</h2>
<table class="calendar"><tr><th>Mon</th><th>Tue</th><th>Wed</th></tr>
<tr><td>1</td><td>2<br>Budget hearing 6pm</td><td>3</td></tr>
<tr><td>8<br>Jazz night 7pm</td><td>9</td><td>10<br>Book fair opens</td></tr>
</table></main><footer><p>© 2024 Town Hall</p></footer></body></html>""",
        ["Events scheduled at the main hall this week, all open to the "
         "public unless marked otherwise.",
         "April 2024",
         "2 Budget hearing 6pm",
         "8 Jazz night 7pm",
         "10 Book fair opens"],
    ),
    # 64. full forum topic page: the POSTS are the main content —
    # richer than fixture 37's minimal thread (thread title, an
    # in-reply quotation, per-post meta, signature). Kept: title, post
    # bodies, the quotation. Dropped: the per-post meta lines (class
    # "post-meta" → chrome via the "meta" token, and link-led), the
    # link-only signature (anchor-dominated), pagination (chrome +
    # link farm).
    _page(
        "forum_topic_page",
        f"""<html><body><header><h1>City Forum</h1>{_NAV}</header>
<main><h2>Harbor bridge closure and alternate routes</h2>
<div class="post">
<div class="post-meta"><a href="/u/rider22">rider22</a> · 42 posts ·
April 2024</div>
<div class="post-body"><p>Has anyone heard when the east approach
actually closes? The notice on the pier gate says April but the city
page still shows the March dates from the first announcement.</p></div>
</div>
<div class="post">
<div class="post-meta"><a href="/u/ferrydan">ferrydan</a> · 980 posts ·
April 2024</div>
<div class="post-body">
<blockquote><p>The notice on the pier gate says April.</p></blockquote>
<p>The gate notice is the updated one; the city page usually lags the
posted schedule by a week or two after every revision.</p>
<p>Crews were staging equipment this morning, so plan for next week.
The ferry added two early runs while the approach is closed.</p></div>
<div class="signature">&mdash; <a href="/u/ferrydan/blog">My ferry
log</a></div>
</div>
<nav class="pagination"><a href="?p=2">2</a> <a href="?p=3">3</a>
<a rel="next" href="?p=2">Next</a></nav>
</main>{_FOOTER}</body></html>""",
        ["Harbor bridge closure and alternate routes",
         "Has anyone heard when the east approach actually closes? The "
         "notice on the pier gate says April but the city page still "
         "shows the March dates from the first announcement.",
         "The notice on the pier gate says April.",
         "The gate notice is the updated one; the city page usually "
         "lags the posted schedule by a week or two after every revision.",
         "Crews were staging equipment this morning, so plan for next "
         "week. The ferry added two early runs while the approach is "
         "closed."],
    ),
    # 65. print-friendly view: minimal chrome, but the print header
    # ("Printed from …" + print button) and the page footer are
    # furniture — both carry header/footer class tokens; the article
    # itself is the whole remaining page.
    _page(
        "print_friendly",
        f"""<html><body>
<div class="print-header"><p>Example Media &mdash; printed from
example.com/news/budget</p>
<button onclick="window.print()">Print this page</button></div>
<h1>Budget approved after marathon session</h1>
<p>{_P1}</p><p>{_P2}</p><p>{_P3}</p>
<div class="print-footer"><p>Page 1 of 1 &mdash; © 2024 Example
Media</p></div>
</body></html>""",
        ["Budget approved after marathon session", _P1, _P2, _P3],
    ),
    # 66. AMP article with figure: extends fixture 49's bare AMP shape
    # with a head (title + amp-boilerplate <style>, skipped wholesale)
    # and a figcaption under an amp-img, kept like any figure caption.
    _page(
        "amp_article_figure",
        f"""<html amp><head><title>Rail line reopens</title>
<style amp-boilerplate>body{{-amp-start:visibility 8s}}</style>
<script async src="https://cdn.ampproject.org/v0.js"></script></head>
<body><header><h1>Example Media</h1>{_NAV}</header>
<main><article>
<h1>Rail line reopens after repairs</h1>
<p>{_P1}</p>
<figure><amp-img src="viaduct.jpg" width="600" height="400"
layout="responsive"></amp-img>
<figcaption>Crews test the new signals on the east viaduct.</figcaption>
</figure>
<p>{_P2}</p>
<amp-ad width="300" height="250" type="adnet"
data-slot="/1/example"></amp-ad>
<p>{_P3}</p>
</article></main>{_FOOTER}</body></html>""",
        ["Rail line reopens after repairs", _P1,
         "Crews test the new signals on the east viaduct.",
         _P2, _P3],
    ),
    # 67. cookie-wall interstitial with an ARIA dialog role: a modal
    # overlays the document rather than being part of it, so the whole
    # subtree is skipped (segment._attrs_mark_hidden), prose-length
    # consent text and all.
    _page(
        "cookie_wall",
        f"""<html><body>
<div class="consent-wall" role="dialog" aria-modal="true">
<h2>We value your privacy</h2>
<p>We and our 143 partners store and access information on your device
to provide personalised content and measure audiences. You can accept
all purposes, or manage your choices for each partner individually.
Consent applies to this site only and can be withdrawn at any time
from the privacy page.</p>
<div class="consent-buttons"><a href="/consent/accept">Accept all</a>
<a href="/consent/manage">Manage choices</a>
<a href="/consent/reject">Reject non-essential</a></div>
</div>
<main><article><h1>Budget approved after marathon session</h1>
<p>{_P1}</p><p>{_P2}</p><p>{_P3}</p></article></main>
{_FOOTER}</body></html>""",
        ["Budget approved after marathon session", _P1, _P2, _P3],
    ),
    # 68. the same wall WITHOUT ARIA markup — only class tokens mark it
    # ("consent" → chrome). This is the case where text density alone
    # would keep the legal prose: the consent paragraph is paragraph-
    # length, and a linear 0.1× damp survives the log-space Otsu. The
    # chrome saturation cap (score.block_scores CHROME_SAT) pins it
    # below the threshold while the article stays.
    _page(
        "consent_wall_classonly",
        f"""<html><body>
<div class="consent-wall">
<h2>We value your privacy</h2>
<p>We and our 143 partners store and access information on your device
to provide personalised content and measure audiences. You can accept
all purposes, or manage your choices for each partner individually.
Consent applies to this site only and can be withdrawn at any time
from the privacy page.</p>
<div class="consent-buttons"><a href="/consent/accept">Accept all</a>
<a href="/consent/manage">Manage choices</a>
<a href="/consent/reject">Reject non-essential</a></div>
</div>
<main><article><h1>Budget approved after marathon session</h1>
<p>{_P1}</p><p>{_P2}</p><p>{_P3}</p></article></main>
{_FOOTER}</body></html>""",
        ["Budget approved after marathon session", _P1, _P2, _P3],
    ),
    # 69. legal/terms-of-service page: numbered section headings and
    # clause lists are ALL content (the whole main is the document);
    # only the nav/footer chrome and the back-to-top link row drop.
    _page(
        "legal_tos",
        f"""<html><body><header><h1>Example Media</h1>{_NAV}</header>
<main><h1>Terms of Service</h1>
<p>These terms govern your use of the service and form a binding
agreement between you and the operator from the moment you first
access any page.</p>
<h2>1. Accounts</h2>
<p>You are responsible for activity under your account and must keep
your credentials confidential at all times, including on shared
devices.</p>
<ol>
<li>You must provide accurate registration information.</li>
<li>You may not transfer your account to another person.</li>
</ol>
<h2>2. Content</h2>
<p>You retain ownership of material you submit, and you grant the
operator a non-exclusive licence to store and display it as part of
the service.</p>
<div class="toolbar"><a href="#top">Back to top</a></div>
</main>{_FOOTER}</body></html>""",
        ["Terms of Service",
         "These terms govern your use of the service and form a binding "
         "agreement between you and the operator from the moment you "
         "first access any page.",
         "1. Accounts",
         "You are responsible for activity under your account and must "
         "keep your credentials confidential at all times, including on "
         "shared devices.",
         "You must provide accurate registration information.",
         "You may not transfer your account to another person.",
         "2. Content",
         "You retain ownership of material you submit, and you grant "
         "the operator a non-exclusive licence to store and display it "
         "as part of the service."],
    ),
    # 70. 404 page with suggestions: the apology message is the page's
    # only text content; the suggestion list is a link farm and the
    # search form contributes nothing.
    _page(
        "error_404_suggestions",
        f"""<html><body><header><h1>Example Media</h1>{_NAV}</header>
<main><h1>Page not found</h1>
<p>The page you were looking for has moved or never existed; check
the address for typing mistakes or try one of the sections below.</p>
<form role="search"><input name="q" placeholder="Search"></form>
<ul class="suggestions">
<li><a href="/news">Latest news</a></li>
<li><a href="/archive">Article archive</a></li>
<li><a href="/contact">Contact the desk</a></li>
</ul>
</main>{_FOOTER}</body></html>""",
        ["Page not found",
         "The page you were looking for has moved or never existed; "
         "check the address for typing mistakes or try one of the "
         "sections below."],
    ),
    # 71. product page with review cards: description and review
    # bodies are content; the per-review reviewer lines are anchor-led
    # (name + verified badge are links) and drop on link density, the
    # buy box is links/buttons.
    _page(
        "product_reviews",
        f"""<html><body><header><h1>Example Shop</h1>{_NAV}</header>
<main><h1>Walnut desk organizer</h1>
<p>A five-compartment organizer milled from solid walnut, sized for
an A5 notebook, two pens, and a phone on a charging stand.</p>
<div class="buy"><a href="/cart/add">Add to cart</a>
<a href="/wishlist">Save</a></div>
<section>
<h2>Customer reviews</h2>
<div class="review-card">
<div class="reviewer"><a href="/u/jd88">JaneD88</a> ·
<a href="/verified">Verified buyer</a> · March 2024</div>
<p>The finish is better than the photos suggest, and the pen slots
hold fountain pens without scratching the barrel.</p>
</div>
<div class="review-card">
<div class="reviewer"><a href="/u/mk2">MKlein</a> ·
<a href="/verified">Verified buyer</a> · April 2024</div>
<p>Solid and heavy enough not to slide, though the phone stand angle
is too upright for video calls.</p>
</div>
</section></main>{_FOOTER}</body></html>""",
        ["Walnut desk organizer",
         "A five-compartment organizer milled from solid walnut, sized "
         "for an A5 notebook, two pens, and a phone on a charging stand.",
         "Customer reviews",
         "The finish is better than the photos suggest, and the pen "
         "slots hold fountain pens without scratching the barrel.",
         "Solid and heavy enough not to slide, though the phone stand "
         "angle is too upright for video calls."],
    ),
    # 72. faceted e-commerce category page: the category description is
    # the only content; the facet sidebar is chrome, and every product
    # tile is an anchor-dominated name + price stub.
    _page(
        "faceted_category",
        f"""<html><body><header><h1>Example Shop</h1>{_NAV}</header>
<aside class="sidebar facets"><h3>Filter</h3><ul>
<li><a href="?mat=walnut">Walnut (12)</a></li>
<li><a href="?mat=oak">Oak (8)</a></li>
<li><a href="?price=lt50">Under $50 (15)</a></li></ul></aside>
<main><h1>Desk organizers</h1>
<p>Hardwood organizers made in small batches; every piece is oiled
twice and shipped assembled, with a ten-year warranty on joinery.</p>
<div class="grid">
<div class="tile"><a href="/p/1">Walnut desk organizer</a> $49</div>
<div class="tile"><a href="/p/2">Oak pen tray</a> $19</div>
<div class="tile"><a href="/p/3">Maple monitor stand</a> $79</div>
</div>
</main>{_FOOTER}</body></html>""",
        ["Desk organizers",
         "Hardwood organizers made in small batches; every piece is "
         "oiled twice and shipped assembled, with a ten-year warranty "
         "on joinery."],
    ),
    # 73. live blog: update bodies are content; the permalink
    # timestamps are anchors (dropped on link density) and the
    # "updates paused" status chip is a link-led stub.
    _page(
        "live_blog",
        f"""<html><body><header><h1>Example Media</h1>{_NAV}</header>
<main><h1>Storm response — live updates</h1>
<div class="update"><a class="ts" href="#u3">14:32</a>
<p>The harbor authority confirmed that both ferry routes will stay
suspended until the wind drops below the safety threshold.</p></div>
<div class="update"><a class="ts" href="#u2">13:05</a>
<p>Crews reopened the east bridge approach after clearing a fallen
crane boom; expect single-lane traffic through the evening.</p></div>
<div class="update"><a class="ts" href="#u1">11:48</a>
<p>The city opened two shelters at the main hall and the north school
gym for residents of the flooded blocks.</p></div>
<div class="status"><a href="#refresh">Updates paused — refresh</a></div>
</main>{_FOOTER}</body></html>""",
        ["Storm response — live updates",
         "The harbor authority confirmed that both ferry routes will "
         "stay suspended until the wind drops below the safety threshold.",
         "Crews reopened the east bridge approach after clearing a "
         "fallen crane boom; expect single-lane traffic through the "
         "evening.",
         "The city opened two shelters at the main hall and the north "
         "school gym for residents of the flooded blocks."],
    ),
    # 74. wiki revision history: the intro line and the substantive
    # edit-summary cells are content; the (cur|prev)/user/date cells
    # are anchor-dominated grid furniture.
    _page(
        "wiki_edit_history",
        f"""<html><body><header><h1>Example Wiki</h1>{_NAV}</header>
<main><h1>Revision history of Harbor Bridge</h1>
<p>Showing the three most recent revisions of the article, with the
summary each editor left when saving the change.</p>
<table class="history">
<tr><td><a href="/d?cur=1">cur</a> <a href="/d?prev=1">prev</a>
<a href="/w/12:01">12:01, 3 April 2024</a>
<a href="/u/editor-a">EditorA</a></td>
<td>corrected the opening-year citation and moved it to the
infrastructure section of the article</td></tr>
<tr><td><a href="/d?cur=2">cur</a> <a href="/d?prev=2">prev</a>
<a href="/w/09:47">09:47, 2 April 2024</a>
<a href="/u/editor-b">EditorB</a></td>
<td>reverted the unsourced paragraph about the toll schedule pending
a reliable reference</td></tr>
</table></main>{_FOOTER}</body></html>""",
        ["Revision history of Harbor Bridge",
         "Showing the three most recent revisions of the article, with "
         "the summary each editor left when saving the change.",
         "corrected the opening-year citation and moved it to the "
         "infrastructure section of the article",
         "reverted the unsourced paragraph about the toll schedule "
         "pending a reliable reference"],
    ),
    # 75. recipe page: JSON-LD recipe markup is skipped with its
    # <script>, the star-rating chip is chrome (widget class), and the
    # per-serving nutrition line is ordinary prose — kept.
    _page(
        "recipe_page",
        f"""<html><body><header><h1>Example Kitchen</h1>{_NAV}</header>
<main><article>
<script type="application/ld+json">{{"@type":"Recipe",
"name":"Harbor oat pancakes","recipeYield":"4"}}</script>
<h1>Harbor oat pancakes</h1>
<div class="rating-widget">★★★★★ 4.8 from 212 votes</div>
<p>Thin oat pancakes that hold together without eggs; the batter
rests while the pan heats, which keeps the edges from tearing.</p>
<h2>Ingredients</h2>
<ul>
<li>Two cups of fine oat flour</li>
<li>One spoon of baking powder and a pinch of salt</li>
<li>Two cups of cold milk, added slowly</li>
</ul>
<h2>Method</h2>
<ol>
<li>Whisk the dry ingredients, then pour in the milk in three
additions until the batter runs off the spoon in ribbons.</li>
<li>Rest the batter ten minutes, then cook on a medium pan until the
edges lift cleanly.</li>
</ol>
<p>Per serving: 320 kcal, 9 g protein, 11 g fat, and roughly 40 g of
carbohydrate depending on the milk used.</p>
</article></main>{_FOOTER}</body></html>""",
        ["Harbor oat pancakes",
         "Thin oat pancakes that hold together without eggs; the "
         "batter rests while the pan heats, which keeps the edges from "
         "tearing.",
         "Ingredients",
         "Two cups of fine oat flour",
         "One spoon of baking powder and a pinch of salt",
         "Two cups of cold milk, added slowly",
         "Method",
         "Whisk the dry ingredients, then pour in the milk in three "
         "additions until the batter runs off the spoon in ribbons.",
         "Rest the batter ten minutes, then cook on a medium pan until "
         "the edges lift cleanly.",
         "Per serving: 320 kcal, 9 g protein, 11 g fat, and roughly "
         "40 g of carbohydrate depending on the milk used."],
    ),
    # 76. glossary page: definition-list terms and definitions are all
    # content (dt/dd are block tags); the alphabet jump bar is a link
    # farm.
    _page(
        "glossary_page",
        f"""<html><body><header><h1>Example Media</h1>{_NAV}</header>
<main><h1>Harbor glossary</h1>
<nav class="jump"><a href="#a">A</a> <a href="#b">B</a>
<a href="#d">D</a> <a href="#m">M</a></nav>
<dl>
<dt>Berth</dt>
<dd>The designated place where a vessel ties up alongside a quay or
pier to load and unload.</dd>
<dt>Dredging</dt>
<dd>Removing sediment from the channel bed so that vessels with a
deeper draft can pass at low tide.</dd>
<dt>Mooring</dt>
<dd>The lines, anchors and fittings that hold a vessel in position
when it is not under way.</dd>
</dl></main>{_FOOTER}</body></html>""",
        ["Harbor glossary",
         "Berth",
         "The designated place where a vessel ties up alongside a quay "
         "or pier to load and unload.",
         "Dredging",
         "Removing sediment from the channel bed so that vessels with "
         "a deeper draft can pass at low tide.",
         "Mooring",
         "The lines, anchors and fittings that hold a vessel in "
         "position when it is not under way."],
    ),
    # 77. photo essay: captions under each figure are the page's text
    # content alongside the standfirst; image credits are chrome-worded
    # ("meta") and the images themselves contribute nothing.
    _page(
        "photo_essay",
        f"""<html><body><header><h1>Example Media</h1>{_NAV}</header>
<main><article><h1>A day at the rebuilt harbor</h1>
<p>Photographs from the first morning of ferry service after the
two-year reconstruction of the terminal and the north quay.</p>
<figure><img src="/ph/1.jpg" alt="">
<figcaption>Deckhands secure the first arrival of the morning while
commuters wait behind the new glass windbreak.</figcaption>
<div class="photo-meta"><a href="/credits">© Example Media /
J. Shooter</a></div></figure>
<figure><img src="/ph/2.jpg" alt="">
<figcaption>The rebuilt waiting hall keeps the original trusses,
repainted in the harbor's traditional green.</figcaption>
<div class="photo-meta"><a href="/credits">© Example Media /
J. Shooter</a></div></figure>
</article></main>{_FOOTER}</body></html>""",
        ["A day at the rebuilt harbor",
         "Photographs from the first morning of ferry service after "
         "the two-year reconstruction of the terminal and the north "
         "quay.",
         "Deckhands secure the first arrival of the morning while "
         "commuters wait behind the new glass windbreak.",
         "The rebuilt waiting hall keeps the original trusses, "
         "repainted in the harbor's traditional green."],
    ),
    # 78. API reference docs: prose, signatures in <pre>, and parameter
    # dl entries are content; the version-switcher and endpoint nav are
    # chrome.
    _page(
        "api_reference",
        f"""<html><body><header><h1>Example API</h1>{_NAV}</header>
<aside class="sidebar"><ul><li><a href="/v1/pages">GET /pages</a></li>
<li><a href="/v1/jobs">POST /jobs</a></li></ul></aside>
<main><h1>GET /v1/pages</h1>
<div class="toolbar"><a href="/v1">v1</a> <a href="/v2">v2 (beta)</a></div>
<p>Returns extracted pages in submission order; responses are paged
and each page carries an opaque cursor for the next request.</p>
<pre>GET /v1/pages?cursor=abc123&amp;limit=100
Authorization: Bearer &lt;token&gt;</pre>
<h2>Query parameters</h2>
<dl>
<dt>cursor</dt><dd>Opaque continuation token from the previous
response; omit it on the first request.</dd>
<dt>limit</dt><dd>Maximum number of records per page, between 1 and
500; the default is 100.</dd>
</dl></main>{_FOOTER}</body></html>""",
        ["GET /v1/pages",
         "Returns extracted pages in submission order; responses are "
         "paged and each page carries an opaque cursor for the next "
         "request.",
         "GET /v1/pages?cursor=abc123&limit=100 Authorization: Bearer "
         "<token>",
         "Query parameters",
         "cursor",
         "Opaque continuation token from the previous response; omit "
         "it on the first request.",
         "limit",
         "Maximum number of records per page, between 1 and 500; the "
         "default is 100."],
    ),
    # 79. paginated article: the pager strip ("Prev 1 2 3 Next") is
    # pure links — link-density chrome; page paragraphs are content.
    _page(
        "paginated_article",
        f"""<html><body><header><h1>Example Media</h1>{_NAV}</header>
<main><article><p>{_P1}</p><p>{_P2}</p></article>
<div class="pager"><a href="/story?p=1">‹ Prev</a>
<a href="/story?p=1">1</a> <a href="/story?p=2">2</a>
<a href="/story?p=3">3</a> <a href="/story?p=3">Next ›</a></div>
</main>{_SIDEBAR}{_FOOTER}</body></html>""",
        [_P1, _P2],
    ),
    # 80. essay with endnotes: the footnote list inside the article is
    # prose content; the back-to-top strip below it is chrome.
    _page(
        "footnoted_essay",
        f"""<html><body><header><h1>Example Media</h1>{_NAV}</header>
<main><article><p>{_P1}</p><p>{_P2}</p>
<h2>Notes</h2>
<ol class="footnotes">
<li>The borrowing estimate follows the treasury model published in
the spring planning report and assumes level interest rates.</li>
<li>Attendance figures were compiled from the clerk's minutes of the
four public sessions held this quarter.</li>
</ol></article>
<div class="backtotop"><a href="#top">Back to top</a> <a
href="/print">Print</a> <a href="/share">Share</a></div>
</main>{_FOOTER}</body></html>""",
        [_P1, _P2,
         "Notes",
         "The borrowing estimate follows the treasury model published "
         "in the spring planning report and assumes level interest "
         "rates.",
         "Attendance figures were compiled from the clerk's minutes "
         "of the four public sessions held this quarter."],
    ),
    # 81. sitemap page: one intro paragraph is the only content; the
    # exhaustive link columns are all chrome by link density.
    _page(
        "sitemap_page",
        f"""<html><body><header><h1>Example Media</h1>{_NAV}</header>
<main><h1>Site map</h1>
<p>Every section of this site is listed below; use the search box if
you cannot find a page, or contact the desk for older archives.</p>
<div class="cols">
<ul><li><a href="/news/local">Local news</a></li>
<li><a href="/news/region">Regional news</a></li>
<li><a href="/news/world">World desk</a></li></ul>
<ul><li><a href="/sports/results">Results</a></li>
<li><a href="/sports/tables">League tables</a></li>
<li><a href="/sports/fixtures">Fixtures</a></li></ul>
<ul><li><a href="/arts/reviews">Reviews</a></li>
<li><a href="/arts/listings">Listings</a></li>
<li><a href="/arts/podcast">Podcast</a></li></ul>
</div></main>{_FOOTER}</body></html>""",
        ["Site map",
         "Every section of this site is listed below; use the search "
         "box if you cannot find a page, or contact the desk for "
         "older archives."],
    ),
    # 82. accessibility chrome: skip-link and ARIA landmark wrappers
    # around ordinary content — the skip strip and landmark nav are
    # chrome, the article inside role=main is content.
    _page(
        "aria_landmarks",
        f"""<html><body>
<a class="skip" href="#main">Skip to main content</a>
<div role="banner"><h1>Example Media</h1>{_NAV}</div>
<div role="navigation" aria-label="Breadcrumb"><a href="/">Home</a> ›
<a href="/news">News</a> › <a href="/news/city">City</a></div>
<div role="main" id="main"><article><p>{_P1}</p><p>{_P3}</p></article></div>
<div role="contentinfo">{_FOOTER}</div></body></html>""",
        [_P1, _P3],
    ),
    # 83. newsletter web view: "view in browser" strip and the
    # unsubscribe/preferences footer are chrome; the letter body is
    # content.
    _page(
        "newsletter_webview",
        f"""<html><body>
<div class="preheader"><a href="/web">View this email in your
browser</a> <a href="/forward">Forward to a friend</a></div>
<div class="email-body"><h1>This week at the harbor</h1>
<p>{_P1}</p><p>{_P2}</p></div>
<div class="email-footer"><a href="/unsubscribe">Unsubscribe</a>
<a href="/prefs">Update preferences</a> <a href="/archive">Past
issues</a></div></body></html>""",
        ["This week at the harbor", _P1, _P2],
    ),
    # 84. job posting: description prose and the details list are
    # content; the apply strip and similar-jobs rail are chrome.
    _page(
        "job_posting",
        f"""<html><body><header><h1>Example Media</h1>{_NAV}</header>
<main><article><h1>Harbor operations coordinator</h1>
<p>The port authority seeks a coordinator to schedule berths,
liaise with ferry operators and keep the daily movement log
accurate through the busy summer season.</p>
<dl class="details">
<dt>Location</dt><dd>Harbortown, on site at the terminal office
with one remote day each week.</dd>
<dt>Salary</dt><dd>From 42,000 to 48,000 a year depending on
experience, reviewed annually.</dd>
</dl>
<div class="apply"><a href="/apply/712">Apply now</a>
<a href="/save/712">Save job</a> <a href="/share/712">Share</a></div>
</article></main>
<aside class="similar"><h3>Similar jobs</h3><ul>
<li><a href="/j/1">Deck scheduler</a></li>
<li><a href="/j/2">Terminal clerk</a></li></ul></aside>
{_FOOTER}</body></html>""",
        ["Harbor operations coordinator",
         "The port authority seeks a coordinator to schedule berths, "
         "liaise with ferry operators and keep the daily movement log "
         "accurate through the busy summer season.",
         "Location",
         "Harbortown, on site at the terminal office with one remote "
         "day each week.",
         "Salary",
         "From 42,000 to 48,000 a year depending on experience, "
         "reviewed annually."],
    ),
    # 85. press release: headline, body and the "About" boilerplate
    # are content; the media-contact link strip is chrome.
    _page(
        "press_release",
        f"""<html><body><header><h1>Example Corp Newsroom</h1>{_NAV}</header>
<main><article><h1>Example Corp opens rebuilt ferry terminal</h1>
<p>HARBORTOWN — Example Corp today announced the opening of the
rebuilt passenger terminal, completing a two-year project that
doubles waiting capacity and restores year-round service.</p>
<p>{_P2}</p>
<h2>About Example Corp</h2>
<p>Example Corp operates regional ferry routes and port services
and has served the harbor communities for over forty years.</p>
<div class="media-contact"><a href="mailto:press@example.com">
press@example.com</a> <a href="tel:+15550100">+1 555 0100</a>
<a href="/press-kit">Press kit</a></div>
</article></main>{_FOOTER}</body></html>""",
        ["Example Corp opens rebuilt ferry terminal",
         "HARBORTOWN — Example Corp today announced the opening of "
         "the rebuilt passenger terminal, completing a two-year "
         "project that doubles waiting capacity and restores "
         "year-round service.",
         _P2,
         "About Example Corp",
         "Example Corp operates regional ferry routes and port "
         "services and has served the harbor communities for over "
         "forty years."],
    ),
    # 86. academic abstract landing page: title and abstract are
    # content; the publication-metadata dl is classed "meta" and
    # drops under the same chrome-class convention as fixture 25's
    # post-meta strip (pub metadata is furniture, like a byline);
    # download/cite buttons and the related-papers rail are chrome.
    _page(
        "academic_abstract",
        f"""<html><body><header><h1>Example Press</h1>{_NAV}</header>
<main><article><h1>Tidal scheduling of mixed-draft ferry fleets</h1>
<h2>Abstract</h2>
<p>We model berth assignment under tidal draft constraints and show
that a two-phase greedy schedule stays within four percent of the
optimal makespan on a season of real harbor movement logs.</p>
<dl class="meta">
<dt>Published</dt><dd>Journal of Port Operations, volume 18, pages
211 to 230, spring issue.</dd>
<dt>DOI</dt><dd>The digital object identifier for this record is
10.1000/jpo.2024.18211 and resolves to this page.</dd>
</dl>
<div class="actions"><a href="/pdf/18211">Download PDF</a>
<a href="/cite/18211">Cite</a> <a href="/alert">Alert me</a></div>
</article></main>
<aside class="related"><h3>Related</h3><ul>
<li><a href="/p/1">Berth windows under spring tides</a></li>
<li><a href="/p/2">Queueing at small harbors</a></li></ul></aside>
{_FOOTER}</body></html>""",
        ["Tidal scheduling of mixed-draft ferry fleets",
         "Abstract",
         "We model berth assignment under tidal draft constraints "
         "and show that a two-phase greedy schedule stays within "
         "four percent of the optimal makespan on a season of real "
         "harbor movement logs."],
    ),
    # 87. interview Q&A: alternating bold question / plain answer
    # paragraphs are all content; the subscribe interstitial between
    # them is chrome.
    _page(
        "interview_qa",
        f"""<html><body><header><h1>Example Media</h1>{_NAV}</header>
<main><article><h1>A conversation with the harbormaster</h1>
<p><b>What changed most in thirty years on the water?</b></p>
<p>The boats got bigger and the tides did not, so the whole job
became a negotiation between draft, schedule and patience.</p>
<div class="subscribe-inline"><a href="/subscribe">Subscribe for
unlimited access</a> <a href="/gift">Give a gift</a></div>
<p><b>Do you ever close the harbor entirely?</b></p>
<p>Twice a year on average, always for wind rather than fog,
because radar solved fog and nothing yet has solved wind.</p>
</article></main>{_SIDEBAR}{_FOOTER}</body></html>""",
        ["A conversation with the harbormaster",
         "What changed most in thirty years on the water?",
         "The boats got bigger and the tides did not, so the whole "
         "job became a negotiation between draft, schedule and "
         "patience.",
         "Do you ever close the harbor entirely?",
         "Twice a year on average, always for wind rather than fog, "
         "because radar solved fog and nothing yet has solved wind."],
    ),
    # 88. poetry: <br>-separated lines inside ONE block must stay one
    # block (brs are soft breaks, not block boundaries); the poem and
    # attribution are content, the poem-of-the-day widget is chrome.
    _page(
        "poetry_br_lines",
        f"""<html><body><header><h1>Example Press</h1>{_NAV}</header>
<main><article><h1>Harbor at first light</h1>
<p>Grey water folds against the pier,<br>
the ropes grow taut and slack by turn,<br>
a kettle sings behind some door,<br>
and gulls rehearse their one complaint.</p>
<p>From the collected harbor poems, printed with permission of the
estate and first published in the spring anthology.</p>
</article></main>
<aside class="potd"><h3>Poem of the day</h3>
<a href="/poems/today">Read today's poem</a>
<a href="/poems/archive">Archive</a></aside>
{_FOOTER}</body></html>""",
        ["Harbor at first light",
         "Grey water folds against the pier, the ropes grow taut and "
         "slack by turn, a kettle sings behind some door, and gulls "
         "rehearse their one complaint.",
         "From the collected harbor poems, printed with permission "
         "of the estate and first published in the spring anthology."],
    ),
    # 89. changelog / release notes: version headings and bullet
    # lists of changes are content; the version-picker dropdown and
    # edit-on-github strip are chrome.
    _page(
        "changelog_release_notes",
        f"""<html><body><header><h1>Example Docs</h1>{_NAV}</header>
<div class="version-picker"><a href="/v2">v2.x</a>
<a href="/v1">v1.x</a> <a href="/v0">v0.x</a></div>
<main><article><h1>Release notes</h1>
<h2>Version 2.4.0 improves scheduling and fixes berth assignment</h2>
<ul>
<li>The scheduler now considers tidal draft windows when assigning
berths to mixed-draft fleets during spring tides.</li>
<li>Fixed a crash when the movement log contained two departures
with the same timestamp on different piers.</li>
</ul>
<h2>Version 2.3.1 is a maintenance release</h2>
<ul>
<li>Corrected the displayed units on the draft column of the
exported movement report, which showed feet as meters.</li>
</ul>
</article></main>
<div class="edit-strip"><a href="/edit">Edit this page</a>
<a href="/history">Page history</a></div>
{_FOOTER}</body></html>""",
        ["Release notes",
         "Version 2.4.0 improves scheduling and fixes berth assignment",
         "The scheduler now considers tidal draft windows when "
         "assigning berths to mixed-draft fleets during spring tides.",
         "Fixed a crash when the movement log contained two "
         "departures with the same timestamp on different piers.",
         "Version 2.3.1 is a maintenance release",
         "Corrected the displayed units on the draft column of the "
         "exported movement report, which showed feet as meters."],
    ),
    # 90. help-center article: steps are content; the was-this-
    # helpful feedback widget and contact-support card are chrome.
    _page(
        "help_center_article",
        f"""<html><body><header><h1>Example Help</h1>{_NAV}</header>
<main><article><h1>How to change your sailing reservation</h1>
<p>Open your booking from the confirmation email and choose the
change sailing option to see every departure with open capacity
for your vehicle class.</p>
<p>Changes made more than 24 hours before departure are free, and
later changes carry the fare difference plus a small fee shown
before you confirm.</p>
<div class="feedback"><span>Was this article helpful?</span>
<a href="/yes">Yes</a> <a href="/no">No</a></div>
<div class="support-card"><a href="/contact">Contact support</a>
<a href="/chat">Start a chat</a></div>
</article></main>{_FOOTER}</body></html>""",
        ["How to change your sailing reservation",
         "Open your booking from the confirmation email and choose "
         "the change sailing option to see every departure with open "
         "capacity for your vehicle class.",
         "Changes made more than 24 hours before departure are free, "
         "and later changes carry the fare difference plus a small "
         "fee shown before you confirm."],
    ),
    # 91. sports recap with a box-score data table: recap paragraphs
    # and the score table are content (data table, like fixture 5);
    # the live-odds ribbon is chrome.
    _page(
        "sports_box_score",
        f"""<html><body><header><h1>Example Sports</h1>{_NAV}</header>
<div class="odds-ribbon"><a href="/bet/1">Rovers +120</a>
<a href="/bet/2">Harbor -140</a> <a href="/bet/3">Draw +260</a></div>
<main><article><h1>Harbor take the derby in the final minutes</h1>
<p>A late header settled a rough derby that had produced little
clear football but plenty of noise from both ends of the ground.</p>
<table class="boxscore"><caption>Score by half</caption>
<tr><th>Team</th><th>First half</th><th>Second half</th></tr>
<tr><td>Harbor Athletic</td><td>0 goals before the break</td>
<td>2 goals after the restart</td></tr>
<tr><td>River Rovers</td><td>1 goal before the break</td>
<td>0 goals after the restart</td></tr>
</table>
<p>The winner came from a corner in the ninetieth minute, flicked
on at the near post and nodded in from close range.</p>
</article></main>{_SIDEBAR}{_FOOTER}</body></html>""",
        # NOTE: the 4-char corner th "Team" falls under the global
        # cut, exactly like the calendar grid's "Mon/Tue/Wed" header
        # cells (fixture 63, frozen) — ultra-short header cells are
        # the documented casualty of the capped cell-smoothing
        # policy; longer headers ("First half") and every data cell
        # survive.
        ["Harbor take the derby in the final minutes",
         "A late header settled a rough derby that had produced "
         "little clear football but plenty of noise from both ends "
         "of the ground.",
         "Score by half", "First half", "Second half",
         "Harbor Athletic", "0 goals before the break",
         "2 goals after the restart",
         "River Rovers", "1 goal before the break",
         "0 goals after the restart",
         "The winner came from a corner in the ninetieth minute, "
         "flicked on at the near post and nodded in from close "
         "range."],
    ),
    # 92. developer Q&A page (StackOverflow shape): question body and
    # both answers are content; vote widgets, the ask-question
    # banner and the related-questions rail are chrome.
    _page(
        "developer_qa",
        f"""<html><body><header><h1>Example Overflow</h1>{_NAV}</header>
<div class="ask-banner"><a href="/ask">Ask a question</a>
<a href="/login">Log in</a> <a href="/signup">Sign up</a></div>
<main><div class="question"><h1>Why does my berth scheduler deadlock
when two ferries swap assignments?</h1>
<div class="vote"><a href="/up">▲</a> 14 <a href="/down">▼</a></div>
<p>My scheduler takes a lock per berth and swaps two assignments by
locking both berths, but under load two swaps running in opposite
order stop forever and the queue backs up.</p>
</div>
<div class="answer"><div class="vote"><a href="/up">▲</a> 21
<a href="/down">▼</a></div>
<p>You are acquiring the two locks in request order, so opposite
swaps wait on each other; order the acquisitions by berth number
and the circular wait disappears.</p>
</div>
<div class="answer"><div class="vote"><a href="/up">▲</a> 6
<a href="/down">▼</a></div>
<p>An alternative is one coarse lock over the whole assignment
table, which is simpler and fast enough unless you swap hundreds
of times a second.</p>
</div></main>
<aside class="related"><h3>Related</h3><ul>
<li><a href="/q/1">Lock ordering across shards</a></li>
<li><a href="/q/2">Deadlock detection basics</a></li></ul></aside>
{_FOOTER}</body></html>""",
        ["Why does my berth scheduler deadlock when two ferries swap "
         "assignments?",
         "My scheduler takes a lock per berth and swaps two "
         "assignments by locking both berths, but under load two "
         "swaps running in opposite order stop forever and the queue "
         "backs up.",
         "You are acquiring the two locks in request order, so "
         "opposite swaps wait on each other; order the acquisitions "
         "by berth number and the circular wait disappears.",
         "An alternative is one coarse lock over the whole "
         "assignment table, which is simpler and fast enough unless "
         "you swap hundreds of times a second."],
    ),
    # 93. obituary page: the notice is content (an inline <time>
    # element must not split its paragraph); the funeral-services
    # rail and guestbook links are chrome.
    _page(
        "obituary_page",
        f"""<html><body><header><h1>Example Media</h1>{_NAV}</header>
<main><article>
<h1>Margaret Ellen Voss, 1938 to 2024</h1>
<p>Margaret Ellen Voss, a retired harbor pilot who guided cargo ships
through the narrows for three decades, died on
<time datetime="2024-03-02">March 2</time> at her home above the
landing. She was 85.</p>
<p>Born on the island, she earned her license when few believed a
woman could hold one, and colleagues said she became the calm voice
every captain wanted on the radio when the fog rolled in.</p>
<p>She is survived by two sons, a sister, and four grandchildren, who
remember her patient teaching and her chowder at the annual dock
picnic.</p>
</article></main>
<aside class="services"><h3>Services</h3><ul>
<li><a href="/map">Chapel directions</a></li>
<li><a href="/guestbook">Sign the guestbook</a></li>
<li><a href="/flowers">Send flowers</a></li></ul></aside>
{_FOOTER}</body></html>""",
        ["Margaret Ellen Voss, 1938 to 2024",
         "Margaret Ellen Voss, a retired harbor pilot who guided "
         "cargo ships through the narrows for three decades, died on "
         "March 2 at her home above the landing. She was 85.",
         "Born on the island, she earned her license when few "
         "believed a woman could hold one, and colleagues said she "
         "became the calm voice every captain wanted on the radio "
         "when the fog rolled in.",
         "She is survived by two sons, a sister, and four "
         "grandchildren, who remember her patient teaching and her "
         "chowder at the annual dock picnic."],
    ),
    # 94. court opinion: the numbered holdings (an <ol>) are content
    # exactly like fixture 12's ingredient list; the related-cases
    # rail is chrome.
    _page(
        "court_opinion",
        f"""<html><body><header><h1>Court Reporter</h1>{_NAV}</header>
<main><article>
<h1>Opinion of the court in Harbor Ferries against the Port Authority</h1>
<p>The court considered whether the authority may reassign a leased
berth during an active season without the operator's consent, and
whether the storm clause excuses the reassignment that occurred.</p>
<ol class="holdings">
<li>The lease grants exclusive use of the berth for the stated season,
and reassignment during that season breaches the grant.</li>
<li>The emergency powers reach genuine hazards to navigation, not
commercial convenience, so the storm clause offers no defense.</li>
<li>Damages are limited to documented losses from the six affected
sailings, because the operator mitigated by chartering a substitute
vessel within the week.</li>
</ol>
<p>The judgment of the lower court is affirmed, and costs are awarded
to the operator.</p>
</article></main>
<aside class="related-cases"><h3>Cited by</h3><ul>
<li><a href="/c/1">Dockside Cranes v. Port</a></li>
<li><a href="/c/2">Narrows Pilots Assn v. City</a></li></ul></aside>
{_FOOTER}</body></html>""",
        ["Opinion of the court in Harbor Ferries against the Port "
         "Authority",
         "The court considered whether the authority may reassign a "
         "leased berth during an active season without the operator's "
         "consent, and whether the storm clause excuses the "
         "reassignment that occurred.",
         "The lease grants exclusive use of the berth for the stated "
         "season, and reassignment during that season breaches the "
         "grant.",
         "The emergency powers reach genuine hazards to navigation, "
         "not commercial convenience, so the storm clause offers no "
         "defense.",
         "Damages are limited to documented losses from the six "
         "affected sailings, because the operator mitigated by "
         "chartering a substitute vessel within the week.",
         "The judgment of the lower court is affirmed, and costs are "
         "awarded to the operator."],
    ),
    # 95. podcast episode page: player controls and the episode rail
    # are chrome; the description and plain-text show notes are
    # content.
    _page(
        "podcast_episode",
        f"""<html><body><header><h1>Harbor Stories</h1>{_NAV}</header>
<main><article>
<h1>Episode 48: The night shift at the drawbridge</h1>
<div class="player"><a href="/play">Play</a>
<a href="/download">Download</a> <a href="/subscribe">Subscribe</a>
<a href="/rss">RSS</a></div>
<p>This week we ride along with the overnight operator who raises the
span for a single sailboat at three in the morning and explains why
the bridge keeps its own weather log.</p>
<p>We also hear from the engineer who rebalances the counterweights
every spring, a job done with pallets of steel plate and a notebook
older than the bridge's paint.</p>
<h2>Show notes</h2>
<ul class="notes">
<li>The logbook pages mentioned in the interview date from the winter
the harbor froze over.</li>
<li>The counterweight rebuild described at the end took place in 1998
and is documented in the port annual report.</li>
</ul>
</article></main>
<aside class="episodes"><h3>More episodes</h3><ul>
<li><a href="/e/47">Episode 47: Chart tables</a></li>
<li><a href="/e/46">Episode 46: The bell buoy</a></li></ul></aside>
{_FOOTER}</body></html>""",
        ["Episode 48: The night shift at the drawbridge",
         "This week we ride along with the overnight operator who "
         "raises the span for a single sailboat at three in the "
         "morning and explains why the bridge keeps its own weather "
         "log.",
         "We also hear from the engineer who rebalances the "
         "counterweights every spring, a job done with pallets of "
         "steel plate and a notebook older than the bridge's paint.",
         "Show notes",
         "The logbook pages mentioned in the interview date from the "
         "winter the harbor froze over.",
         "The counterweight rebuild described at the end took place "
         "in 1998 and is documented in the port annual report."],
    ),
    # 96. real-estate listing: description and the spec DATA table
    # are content (fixture 5's convention); the agent card and
    # mortgage-tool links are chrome.
    _page(
        "real_estate_listing",
        f"""<html><body><header><h1>Example Homes</h1>{_NAV}</header>
<main><article>
<h1>Saltbox cottage on the east channel</h1>
<p>This four-room cottage sits a short walk from the ferry landing,
with a workshop in the old boathouse and morning light across the
water from every bedroom.</p>
<table class="specs"><caption>Property facts</caption>
<tr><th>Lot</th><td>A quarter acre with fruit trees along the lane</td></tr>
<tr><th>Heating</th><td>Heat pump installed two summers ago</td></tr>
</table>
<p>Showings begin Saturday morning, and offers will be reviewed the
following Friday afternoon.</p>
</article></main>
<div class="agent-card"><a href="/agent">Call the agent</a>
<a href="/mortgage">Mortgage calculator</a>
<a href="/save">Save listing</a></div>
{_FOOTER}</body></html>""",
        ["Saltbox cottage on the east channel",
         "This four-room cottage sits a short walk from the ferry "
         "landing, with a workshop in the old boathouse and morning "
         "light across the water from every bedroom.",
         "Property facts",
         "Lot", "A quarter acre with fruit trees along the lane",
         "Heating", "Heat pump installed two summers ago",
         "Showings begin Saturday morning, and offers will be "
         "reviewed the following Friday afternoon."],
    ),
    # 97. mailing-list archive (pipermail shape): prev/next/index
    # links and the From/Date strip (class "meta", the fixture-25
    # convention) are chrome; the message body is ONE <pre> whose
    # internal newlines collapse (fixture 11's convention), with an
    # entity-encoded quote marker surviving as text.
    _page(
        "mailing_list_archive",
        f"""<html><body>
<div class="navbar"><a href="/prev">Previous message</a>
<a href="/next">Next message</a> <a href="/thread">Thread index</a>
<a href="/date">Date index</a></div>
<main>
<h1>[harbor-dev] Mooring sensor firmware 2.4 released</h1>
<div class="meta">From: keeper at example.org — Tue Mar 5 09:14:02</div>
<pre>The 2.4 firmware fixes the tide-lag bug reported last month and
adds a watchdog for the salinity probe.
&gt; Does this need a new calibration pass after flashing?
No, stored calibration survives the update; only boards flashed
before 2021 need the full pass.
Release notes and checksums are on the downloads page.</pre>
</main>{_FOOTER}</body></html>""",
        ["[harbor-dev] Mooring sensor firmware 2.4 released",
         "The 2.4 firmware fixes the tide-lag bug reported last month "
         "and adds a watchdog for the salinity probe. > Does this "
         "need a new calibration pass after flashing? No, stored "
         "calibration survives the update; only boards flashed "
         "before 2021 need the full pass. Release notes and checksums "
         "are on the downloads page."],
    ),
    # 98. museum exhibit page: description and figcaption are content
    # (fixture 9's convention); the visit-info strip is chrome.
    _page(
        "museum_exhibit",
        f"""<html><body><header><h1>Harbor Museum</h1>{_NAV}</header>
<main><article>
<h1>Lanterns of the outer light: keeping the channel lit</h1>
<p>The exhibition traces a century of channel lighting, from whale-oil
lanterns to the automated beacon that still flashes its four-second
pattern today.</p>
<figure><img src="/lens.jpg" alt="lens">
<figcaption>The original fourth-order lens, on loan from the keeper's
descendants for the length of the exhibition.</figcaption></figure>
<p>Visitors can work a hand-cranked fog bell and read the keeper's
logs from the winter the harbor froze over.</p>
</article></main>
<div class="visit-info"><a href="/tickets">Tickets</a>
<a href="/hours">Hours</a> <a href="/directions">Directions</a></div>
{_FOOTER}</body></html>""",
        ["Lanterns of the outer light: keeping the channel lit",
         "The exhibition traces a century of channel lighting, from "
         "whale-oil lanterns to the automated beacon that still "
         "flashes its four-second pattern today.",
         "The original fourth-order lens, on loan from the keeper's "
         "descendants for the length of the exhibition.",
         "Visitors can work a hand-cranked fog bell and read the "
         "keeper's logs from the winter the harbor froze over."],
    ),
    # 99. city-council minutes: motions (an <ol>) and narrative are
    # content; the agenda-packet download strip is chrome.
    _page(
        "council_minutes",
        f"""<html><body><header><h1>City of Harborview</h1>{_NAV}</header>
<main><article>
<h1>Minutes of the regular council meeting, March twelfth</h1>
<p>The council met in open session with all seven members present and
took up the ferry landing repairs as the first order of business.</p>
<ol class="motions">
<li>A motion to accept the engineer's report on the south ramp
carried unanimously after brief discussion.</li>
<li>A motion to defer the parking-fee increase until the summer
schedule begins carried five to two.</li>
</ol>
<p>Public comment centered on dredging noise near the marina, and the
clerk was directed to post the contractor's schedule weekly.</p>
</article></main>
<div class="packet"><a href="/agenda.pdf">Agenda packet</a>
<a href="/minutes.pdf">Download PDF</a>
<a href="/video">Meeting video</a></div>
{_FOOTER}</body></html>""",
        ["Minutes of the regular council meeting, March twelfth",
         "The council met in open session with all seven members "
         "present and took up the ferry landing repairs as the first "
         "order of business.",
         "A motion to accept the engineer's report on the south ramp "
         "carried unanimously after brief discussion.",
         "A motion to defer the parking-fee increase until the summer "
         "schedule begins carried five to two.",
         "Public comment centered on dredging noise near the marina, "
         "and the clerk was directed to post the contractor's "
         "schedule weekly."],
    ),
    # 100. weather advisory: advisory prose is content; the map/radar
    # shortcut strip and county list rail are chrome.
    _page(
        "weather_advisory",
        f"""<html><body><header><h1>Coastal Weather Desk</h1>{_NAV}</header>
<main><article>
<h1>Small craft advisory in effect until Saturday evening</h1>
<p>Northwest winds of twenty to twenty-five knots are expected across
the outer waters, with seas building to six feet near the channel
entrance by Friday afternoon.</p>
<p>Operators of small vessels should remain in protected waters, and
the evening ferry may hold at the dock if gusts exceed the crossing
limit published in the harbor rules.</p>
</article></main>
<div class="wx-tools"><a href="/radar">Radar</a>
<a href="/map">Marine map</a> <a href="/alerts">All alerts</a></div>
<aside class="counties"><h3>Affected zones</h3><ul>
<li><a href="/z/1">Outer harbor</a></li>
<li><a href="/z/2">North channel</a></li></ul></aside>
{_FOOTER}</body></html>""",
        ["Small craft advisory in effect until Saturday evening",
         "Northwest winds of twenty to twenty-five knots are expected "
         "across the outer waters, with seas building to six feet "
         "near the channel entrance by Friday afternoon.",
         "Operators of small vessels should remain in protected "
         "waters, and the evening ferry may hold at the dock if "
         "gusts exceed the crossing limit published in the harbor "
         "rules."],
    ),
    # 101. charity appeal: the story is content; the donate widget and
    # amount buttons are chrome (link-dense, no prose).
    _page(
        "charity_appeal",
        f"""<html><body><header><h1>Harbor Relief Fund</h1>{_NAV}</header>
<main><article>
<h1>Rebuilding the fishing co-op after the December storm</h1>
<p>The storm took the co-op's ice house and half its floating dock,
and twelve families lost the place where their catch was weighed,
stored and sold for two generations.</p>
<p>Donations buy lumber and pilings first; the freezer units are
pledged by a mainland supplier at cost once the building is dry.</p>
</article></main>
<div class="donate"><a href="/give?amt=25">$25</a>
<a href="/give?amt=50">$50</a> <a href="/give?amt=100">$100</a>
<a href="/give">Other amount</a> <a href="/monthly">Give monthly</a></div>
{_FOOTER}</body></html>""",
        ["Rebuilding the fishing co-op after the December storm",
         "The storm took the co-op's ice house and half its floating "
         "dock, and twelve families lost the place where their catch "
         "was weighed, stored and sold for two generations.",
         "Donations buy lumber and pilings first; the freezer units "
         "are pledged by a mainland supplier at cost once the "
         "building is dry."],
    ),
    # 102. travel itinerary: day headings (h2) + day paragraphs are
    # content; the booking strip is chrome.
    _page(
        "travel_itinerary",
        f"""<html><body><header><h1>Island Routes</h1>{_NAV}</header>
<main><article>
<h1>Three days on the outer islands without a car</h1>
<h2>Day one</h2>
<p>Take the early ferry to the north landing, walk the shore path to
the lighthouse, and catch the afternoon mail boat back along the
cliffs.</p>
<h2>Day two</h2>
<p>Rent a bicycle at the harbor shed and ride the old rail grade to
the quarry ponds, where the swimming is best two hours after low
tide.</p>
<h2>Day three</h2>
<p>Join the morning bird walk on the marsh boardwalk, then spend the
afternoon in the village museum before the last ferry home.</p>
</article></main>
<div class="booking"><a href="/ferries">Ferry tickets</a>
<a href="/stay">Places to stay</a> <a href="/bikes">Bike rental</a></div>
{_FOOTER}</body></html>""",
        ["Three days on the outer islands without a car",
         "Day one",
         "Take the early ferry to the north landing, walk the shore "
         "path to the lighthouse, and catch the afternoon mail boat "
         "back along the cliffs.",
         "Day two",
         "Rent a bicycle at the harbor shed and ride the old rail "
         "grade to the quarry ponds, where the swimming is best two "
         "hours after low tide.",
         "Day three",
         "Join the morning bird walk on the marsh boardwalk, then "
         "spend the afternoon in the village museum before the last "
         "ferry home."],
    ),
    # 103. bank rates page: the rate DATA table is content (fixture
    # 5's convention); the calculator/apply links are chrome.
    _page(
        "bank_rates_table",
        f"""<html><body><header><h1>Harbor Savings</h1>{_NAV}</header>
<main><article>
<h1>Deposit rates effective this week</h1>
<p>Rates apply to new accounts opened at any branch and compound
monthly; existing accounts keep their opening terms until renewal.</p>
<table class="rates"><caption>Annual yield by term</caption>
<tr><th>Term</th><th>Yield</th></tr>
<tr><td>Six month certificate</td><td>Four point one percent</td></tr>
<tr><td>Twelve month certificate</td><td>Four point six percent</td></tr>
</table>
<p>Early withdrawal forfeits ninety days of interest on certificates,
as described in the account agreement.</p>
</article></main>
<div class="apply"><a href="/open">Open an account</a>
<a href="/calc">Savings calculator</a> <a href="/branches">Branches</a></div>
{_FOOTER}</body></html>""",
        ["Deposit rates effective this week",
         "Rates apply to new accounts opened at any branch and "
         "compound monthly; existing accounts keep their opening "
         "terms until renewal.",
         "Annual yield by term", "Term", "Yield",
         "Six month certificate", "Four point one percent",
         "Twelve month certificate", "Four point six percent",
         "Early withdrawal forfeits ninety days of interest on "
         "certificates, as described in the account agreement."],
    ),
    # 104. dictionary entry: senses (a content <ol>) and the usage
    # note are content; pronunciation widget links and the
    # word-of-the-day rail are chrome.
    _page(
        "dictionary_entry",
        f"""<html><body><header><h1>Harbor Dictionary</h1>{_NAV}</header>
<main><article>
<h1>fairlead, noun</h1>
<div class="pron"><a href="/audio/fairlead">Listen</a>
<a href="/ipa">IPA guide</a></div>
<ol class="senses">
<li>A fitting that guides a rope or cable so it runs without chafing
against the hull or deck hardware.</li>
<li>By extension, any fixed point chosen so a moving line keeps a
clear and constant path.</li>
</ol>
<p>The word entered harbor usage from square-rig practice, where a
fair lead meant the line ran true from sail to pin without fouling.</p>
</article></main>
<aside class="wotd"><h3>Word of the day</h3><ul>
<li><a href="/w/knot">knot</a></li>
<li><a href="/w/hawser">hawser</a></li></ul></aside>
{_FOOTER}</body></html>""",
        ["fairlead, noun",
         "A fitting that guides a rope or cable so it runs without "
         "chafing against the hull or deck hardware.",
         "By extension, any fixed point chosen so a moving line keeps "
         "a clear and constant path.",
         "The word entered harbor usage from square-rig practice, "
         "where a fair lead meant the line ran true from sail to pin "
         "without fouling."],
    ),
    # 105. errata page: original/corrected pairs in a dl are content
    # (fixture 20's convention); the edition-download strip is chrome.
    _page(
        "errata_corrections",
        f"""<html><body><header><h1>Harbor Press</h1>{_NAV}</header>
<main><article>
<h1>Corrections to the second printing of the pilot's handbook</h1>
<p>Readers of the second printing should note the following
corrections, all of which are fixed in the current edition.</p>
<dl class="errata">
<dt>Page forty, tide table</dt>
<dd>The spring range should read eleven feet, not nine; the neap
figures are unaffected.</dd>
<dt>Page sixty-two, light characteristics</dt>
<dd>The north beacon flashes every four seconds, not every six, as
the chart correctly shows.</dd>
</dl>
</article></main>
<div class="editions"><a href="/pdf">Download PDF</a>
<a href="/buy">Buy the third edition</a></div>
{_FOOTER}</body></html>""",
        ["Corrections to the second printing of the pilot's handbook",
         "Readers of the second printing should note the following "
         "corrections, all of which are fixed in the current edition.",
         "Page forty, tide table",
         "The spring range should read eleven feet, not nine; the "
         "neap figures are unaffected.",
         "Page sixty-two, light characteristics",
         "The north beacon flashes every four seconds, not every "
         "six, as the chart correctly shows."],
    ),
    # 106. user-manual steps: the numbered procedure and the warning
    # admonition are BOTH content (a warning is instruction text, not
    # furniture); the parts-order strip is chrome.
    _page(
        "user_manual_steps",
        f"""<html><body><header><h1>Pump Manuals</h1>{_NAV}</header>
<main><article>
<h1>Replacing the impeller on the bilge pump</h1>
<div class="warning">Disconnect the battery switch before opening the
pump housing; the float switch can start the motor without warning.</div>
<ol class="steps">
<li>Close the seacock and remove the four housing screws with a
stubby driver.</li>
<li>Pull the worn impeller straight off the shaft and note the
rotation arrow on the housing face.</li>
<li>Seat the new impeller with a little glycerine and turn the shaft
once by hand before closing up.</li>
</ol>
<p>Run the pump dry for no more than five seconds when testing, and
log the replacement date in the maintenance book.</p>
</article></main>
<div class="parts"><a href="/kit">Order impeller kit</a>
<a href="/manuals">All manuals</a></div>
{_FOOTER}</body></html>""",
        ["Replacing the impeller on the bilge pump",
         "Disconnect the battery switch before opening the pump "
         "housing; the float switch can start the motor without "
         "warning.",
         "Close the seacock and remove the four housing screws with "
         "a stubby driver.",
         "Pull the worn impeller straight off the shaft and note the "
         "rotation arrow on the housing face.",
         "Seat the new impeller with a little glycerine and turn the "
         "shaft once by hand before closing up.",
         "Run the pump dry for no more than five seconds when "
         "testing, and log the replacement date in the maintenance "
         "book."],
    ),
    # 107. restaurant menu: sections and dish/price pairs (dl) are
    # content; the reservation strip is chrome.
    _page(
        "restaurant_menu",
        f"""<html><body><header><h1>The Galley</h1>{_NAV}</header>
<main><article>
<h1>Dinner menu, served from five until the kitchen closes</h1>
<h2>Starters</h2>
<dl class="menu">
<dt>Smoked mackerel on rye with pickled onion and mustard cream</dt>
<dd>Brined overnight and smoked over alder down on the pier, served
warm on our own dark rye; twelve dollars.</dd>
<dt>Chowder of the day from whatever the boats brought in</dt>
<dd>Finished with cream and a little smoked butter, with crackers
baked each afternoon; nine dollars.</dd>
</dl>
<h2>Mains</h2>
<dl class="menu">
<dt>Whole skillet flounder with brown butter and fried capers</dt>
<dd>Pan-fried on the bone the old harbor way and brought to the
table in the pan; twenty-four dollars.</dd>
</dl>
</article></main>
<div class="reserve"><a href="/book">Reserve a table</a>
<a href="/call">Call us</a> <a href="/map">Find us</a></div>
{_FOOTER}</body></html>""",
        ["Dinner menu, served from five until the kitchen closes",
         "Starters",
         "Smoked mackerel on rye with pickled onion and mustard cream",
         "Brined overnight and smoked over alder down on the pier, "
         "served warm on our own dark rye; twelve dollars.",
         "Chowder of the day from whatever the boats brought in",
         "Finished with cream and a little smoked butter, with "
         "crackers baked each afternoon; nine dollars.",
         "Mains",
         "Whole skillet flounder with brown butter and fried capers",
         "Pan-fried on the bone the old harbor way and brought to "
         "the table in the pan; twenty-four dollars."],
    ),
    # 108. library catalog record: the bibliographic DATA table is
    # content; hold/request buttons and the nearby-shelf rail are
    # chrome.
    _page(
        "library_catalog_record",
        f"""<html><body><header><h1>Island Library</h1>{_NAV}</header>
<main><article>
<h1>Tides and the working harbor, first edition</h1>
<p>A local history of the harbor trades, drawing on the pilot
association's logbooks and interviews recorded in the eighties.</p>
<table class="biblio"><caption>Catalog record</caption>
<tr><th>Author</th><td>E. M. Voss, with the harbor oral history
project</td></tr>
<tr><th>Shelf mark</th><td>Local history, case three, second
shelf</td></tr>
</table>
</article></main>
<div class="actions"><a href="/hold">Place hold</a>
<a href="/ill">Interlibrary loan</a> <a href="/cite">Cite</a></div>
<aside class="nearby"><h3>On the same shelf</h3><ul>
<li><a href="/b/1">Ferry lines of the sound</a></li>
<li><a href="/b/2">The quarry railway</a></li></ul></aside>
{_FOOTER}</body></html>""",
        ["Tides and the working harbor, first edition",
         "A local history of the harbor trades, drawing on the pilot "
         "association's logbooks and interviews recorded in the "
         "eighties.",
         "Catalog record", "Author",
         "E. M. Voss, with the harbor oral history project",
         "Shelf mark", "Local history, case three, second shelf"],
    ),
    # 109. letters to the editor: each letter (heading + body +
    # signature line in a plain p) is content; the submit-a-letter
    # strip is chrome.
    _page(
        "letters_to_editor",
        f"""<html><body><header><h1>Example Media</h1>{_NAV}</header>
<main><article>
<h1>Letters: the ferry fare debate continues</h1>
<h2>Fares should track fuel, not politics</h2>
<p>Your editorial misses that the fare freeze simply moves the cost
to the repair budget, which is why the ramp took two years to fix.
Peg fares to fuel and publish the formula. Arthur Quinn, North
Landing.</p>
<h2>Riders already pay enough</h2>
<p>Commuters cannot absorb another increase while the bridge toll
also rises; the county should fund the difference from the tourism
levy it collects all summer. Mae Tran, Harborview.</p>
</article></main>
<div class="submit"><a href="/letters/new">Submit a letter</a>
<a href="/guidelines">Guidelines</a></div>
{_FOOTER}</body></html>""",
        ["Letters: the ferry fare debate continues",
         "Fares should track fuel, not politics",
         "Your editorial misses that the fare freeze simply moves "
         "the cost to the repair budget, which is why the ramp took "
         "two years to fix. Peg fares to fuel and publish the "
         "formula. Arthur Quinn, North Landing.",
         "Riders already pay enough",
         "Commuters cannot absorb another increase while the bridge "
         "toll also rises; the county should fund the difference "
         "from the tourism levy it collects all summer. Mae Tran, "
         "Harborview."],
    ),
    # 110. theater program: synopsis and the cast dl are content; the
    # ticket strip is chrome.
    _page(
        "theater_program",
        f"""<html><body><header><h1>Pier Theater</h1>{_NAV}</header>
<main><article>
<h1>The Drawbridge Keeper, a play in two acts</h1>
<p>A storm strands the last ferry on the wrong side of the channel,
and the keeper must decide whether to raise the span for a boat that
may not be there at all.</p>
<h2>Cast</h2>
<dl class="cast">
<dt>The keeper</dt>
<dd>Played by Rosa Imbert, returning for her third season.</dd>
<dt>The ferry master</dt>
<dd>Played by Dan Okafor, last seen in the quarry cycle.</dd>
</dl>
</article></main>
<div class="tickets"><a href="/buy">Buy tickets</a>
<a href="/season">Season pass</a> <a href="/times">Showtimes</a></div>
{_FOOTER}</body></html>""",
        ["The Drawbridge Keeper, a play in two acts",
         "A storm strands the last ferry on the wrong side of the "
         "channel, and the keeper must decide whether to raise the "
         "span for a boat that may not be there at all.",
         "Cast",
         "The keeper",
         "Played by Rosa Imbert, returning for her third season.",
         "The ferry master",
         "Played by Dan Okafor, last seen in the quarry cycle."],
    ),
    # 111. local-history timeline: the year entries (<ol>) are
    # content; the archive-search strip is chrome.
    _page(
        "timeline_history",
        f"""<html><body><header><h1>Harbor Archive</h1>{_NAV}</header>
<main><article>
<h1>A short timeline of the outer breakwater</h1>
<p>The breakwater that shelters the anchorage today was built in
fits and starts over seventy years, and the records tell the story
in storms and appropriations.</p>
<ol class="timeline">
<li>In 1901 the first stone arm reached the shoal, and the winter
gales promptly took back a third of it.</li>
<li>In 1938 the hurricane breached the middle section, and coasting
schooners anchored in the lee of the wreck itself for a season.</li>
<li>In 1972 the concrete cap and the light at the seaward end
finished the structure as it stands today.</li>
</ol>
<p>The archive holds the engineers' photographs from each campaign,
and the originals can be viewed by appointment.</p>
</article></main>
<div class="search"><a href="/archive">Search the archive</a>
<a href="/visit">Plan a visit</a></div>
{_FOOTER}</body></html>""",
        ["A short timeline of the outer breakwater",
         "The breakwater that shelters the anchorage today was built "
         "in fits and starts over seventy years, and the records "
         "tell the story in storms and appropriations.",
         "In 1901 the first stone arm reached the shoal, and the "
         "winter gales promptly took back a third of it.",
         "In 1938 the hurricane breached the middle section, and "
         "coasting schooners anchored in the lee of the wreck itself "
         "for a season.",
         "In 1972 the concrete cap and the light at the seaward end "
         "finished the structure as it stands today.",
         "The archive holds the engineers' photographs from each "
         "campaign, and the originals can be viewed by appointment."],
    ),
    # 112. book excerpt: decorative inline spans (drop cap, small
    # caps) must not split the prose; the buy strip is chrome.
    _page(
        "book_excerpt",
        f"""<html><body><header><h1>Harbor Press</h1>{_NAV}</header>
<main><article>
<h1>From chapter one of The Pilot's Daughter</h1>
<p><span class="dropcap">T</span>he fog came up the channel before
dawn, and by the time the first ferry blew its horn the town had
gone soft at the edges, <em>as it always did</em>, the way a chart
goes soft when the pencil lines are erased and drawn again.</p>
<p>Her father was already at the window with his glass, reading the
water the way other men read the morning paper, and she knew from
the set of his shoulders that no boats would move before noon.</p>
</article></main>
<div class="buy"><a href="/buy">Buy the book</a>
<a href="/sample">Read a longer sample</a></div>
{_FOOTER}</body></html>""",
        ["From chapter one of The Pilot's Daughter",
         "The fog came up the channel before dawn, and by the time "
         "the first ferry blew its horn the town had gone soft at "
         "the edges, as it always did, the way a chart goes soft "
         "when the pencil lines are erased and drawn again.",
         "Her father was already at the window with his glass, "
         "reading the water the way other men read the morning "
         "paper, and she knew from the set of his shoulders that no "
         "boats would move before noon."],
    ),
    # 113. artist bio: bio prose and the plain-text exhibition list
    # are content; the follow/contact strip is chrome.
    _page(
        "artist_bio",
        f"""<html><body><header><h1>Pier Gallery</h1>{_NAV}</header>
<main><article>
<h1>Rosa Imbert, painter of the working waterfront</h1>
<p>Imbert paints the harbor from the deck of her own dory, working
in oils on small panels that fit under the thwart when the weather
turns.</p>
<h2>Selected exhibitions</h2>
<ul class="shows">
<li>The winter fleet series, shown at the pier gallery two seasons
ago and now in the town collection.</li>
<li>Paintings of the dredge crews, first hung in the ferry terminal
waiting room where the crews could see them.</li>
</ul>
</article></main>
<div class="follow"><a href="/newsletter">Studio newsletter</a>
<a href="/contact">Contact the gallery</a></div>
{_FOOTER}</body></html>""",
        ["Rosa Imbert, painter of the working waterfront",
         "Imbert paints the harbor from the deck of her own dory, "
         "working in oils on small panels that fit under the thwart "
         "when the weather turns.",
         "Selected exhibitions",
         "The winter fleet series, shown at the pier gallery two "
         "seasons ago and now in the town collection.",
         "Paintings of the dredge crews, first hung in the ferry "
         "terminal waiting room where the crews could see them."],
    ),
    # 114. editorial review roundup: per-product h2 + verdict prose
    # are content; the deals strip is chrome.
    _page(
        "review_roundup",
        f"""<html><body><header><h1>Gear Desk</h1>{_NAV}</header>
<main><article>
<h1>Three anchors tested on a weedy bottom</h1>
<p>We set each anchor twenty times over eelgrass and mud, measured
the drag on a spring scale, and dove on every set to see what the
flukes actually did.</p>
<h2>The hinged plow</h2>
<p>It buried reliably once it tripped, but on short scope it skated
over the weed until the roll bar caught, which cost it a full boat
length every time.</p>
<h2>The flat claw</h2>
<p>Quickest to set of the three and the easiest to break out by
hand, though it dragged under load in the softest mud at the creek
mouth.</p>
</article></main>
<div class="deals"><a href="/buy/plow">See plow prices</a>
<a href="/buy/claw">See claw prices</a> <a href="/deals">All deals</a></div>
{_FOOTER}</body></html>""",
        ["Three anchors tested on a weedy bottom",
         "We set each anchor twenty times over eelgrass and mud, "
         "measured the drag on a spring scale, and dove on every set "
         "to see what the flukes actually did.",
         "The hinged plow",
         "It buried reliably once it tripped, but on short scope it "
         "skated over the weed until the roll bar caught, which cost "
         "it a full boat length every time.",
         "The flat claw",
         "Quickest to set of the three and the easiest to break out "
         "by hand, though it dragged under load in the softest mud "
         "at the creek mouth."],
    ),
    # 115. Portuguese news article (10th non-English shape) with
    # in-language chrome — drives the pt lexicon path end to end.
    _page(
        "pt_news_article",
        """<html lang="pt"><body><header><h1>Jornal do Porto</h1>
<nav><ul><li><a href="/">Início</a></li><li><a href="/cidade">Cidade
</a></li><li><a href="/economia">Economia</a></li><li>
<a href="/contato">Contato</a></li></ul></nav></header>
<main><article>
<p>A câmara municipal aprovou na terça-feira o novo orçamento do
porto, depois de um longo debate que avançou pela noite e tocou em
todos os serviços da cidade.</p>
<p>Os defensores afirmaram que o plano vai recuperar os cais antigos
e ampliar a rede de bibliotecas, enquanto os críticos alertaram para
o custo crescente dos juros na próxima década.</p>
</article></main>
<aside class="sidebar"><h3>Mais lidas</h3><ul>
<li><a href="/t/1">Tempestade fecha o porto</a></li>
<li><a href="/t/2">Linha férrea reaberta</a></li></ul></aside>
<footer><p><a href="/privacidade">Privacidade</a>
<a href="/termos">Termos</a> © 2024 Jornal do Porto</p></footer>
</body></html>""",
        ["A câmara municipal aprovou na terça-feira o novo orçamento "
         "do porto, depois de um longo debate que avançou pela noite "
         "e tocou em todos os serviços da cidade.",
         "Os defensores afirmaram que o plano vai recuperar os cais "
         "antigos e ampliar a rede de bibliotecas, enquanto os "
         "críticos alertaram para o custo crescente dos juros na "
         "próxima década."],
        lang="pt",
    ),
    # 116. Italian cultural listing (11th non-English shape): the
    # announcement is content; the biglietteria strip is chrome.
    _page(
        "it_event_page",
        """<html lang="it"><body><header><h1>Teatro del Porto</h1>
<nav><ul><li><a href="/">Inizio</a></li><li><a href="/stagione">
Stagione</a></li><li><a href="/contatti">Contatti</a></li></ul>
</nav></header>
<main><article>
<h1>La stagione d'autunno apre con una serata dedicata al mare</h1>
<p>Il teatro apre la nuova stagione con un concerto di canti dei
pescatori, raccolti nei paesi della costa e riarrangiati per coro e
fisarmonica.</p>
<p>La serata si chiude con la lettura di lettere dei guardiani del
faro, scelte dall'archivio comunale insieme agli studenti del
liceo.</p>
</article></main>
<div class="biglietti"><a href="/acquista">Acquista i biglietti</a>
<a href="/abbonamenti">Abbonamenti</a></div>
<footer><p><a href="/privacy">Privacy</a> © 2024 Teatro del Porto</p>
</footer></body></html>""",
        ["La stagione d'autunno apre con una serata dedicata al mare",
         "Il teatro apre la nuova stagione con un concerto di canti "
         "dei pescatori, raccolti nei paesi della costa e "
         "riarrangiati per coro e fisarmonica.",
         "La serata si chiude con la lettura di lettere dei "
         "guardiani del faro, scelte dall'archivio comunale insieme "
         "agli studenti del liceo."],
        lang="it",
    ),
    # 117. Dutch how-to (12th non-English shape): steps are content;
    # the webshop strip is chrome.
    _page(
        "nl_howto_page",
        """<html lang="nl"><body><header><h1>Havenwerk</h1>
<nav><ul><li><a href="/">Start</a></li><li><a href="/gidsen">Gidsen
</a></li><li><a href="/contact">Contact</a></li></ul></nav></header>
<main><article>
<h1>Zo maak je een landvast klaar voor de winter</h1>
<p>Spoel de lijn eerst met zoet water en laat haar volledig drogen
voordat je haar opbergt, anders blijft het zout vocht aantrekken in
de vezels.</p>
<p>Controleer daarna de splitsen en de ogen op slijtage, en vervang
elke lijn waarvan de mantel op de schavielpunten glanzend is
geworden.</p>
</article></main>
<div class="winkel"><a href="/shop/lijnen">Bekijk lijnen</a>
<a href="/shop">Naar de winkel</a></div>
<footer><p><a href="/privacy">Privacy</a> © 2024 Havenwerk</p>
</footer></body></html>""",
        ["Zo maak je een landvast klaar voor de winter",
         "Spoel de lijn eerst met zoet water en laat haar volledig "
         "drogen voordat je haar opbergt, anders blijft het zout "
         "vocht aantrekken in de vezels.",
         "Controleer daarna de splitsen en de ogen op slijtage, en "
         "vervang elke lijn waarvan de mantel op de schavielpunten "
         "glanzend is geworden."],
        lang="nl",
    ),
    # 118. harbor regulations: numbered rules are content; the permit
    # strip is chrome.
    _page(
        "harbor_regulations",
        f"""<html><body><header><h1>Port Authority</h1>{_NAV}</header>
<main><article>
<h1>Rules for the small-boat anchorage, summer season</h1>
<p>The following rules apply inside the marked anchorage from May
through September and are enforced by the harbor patrol.</p>
<ol class="rules">
<li>No vessel may anchor within fifty feet of the dredged channel
edge, marked by the green cans.</li>
<li>Rafting is limited to three boats in settled weather and is
prohibited when the storm pennant flies.</li>
<li>Holding tanks must be sealed inside the anchorage; the free
pump-out boat answers channel six-eight.</li>
</ol>
<p>Violations are logged against the vessel's registration, and
three entries in a season forfeit the anchoring privilege.</p>
</article></main>
<div class="permits"><a href="/permit">Apply for a mooring permit</a>
<a href="/fees">Fee schedule</a></div>
{_FOOTER}</body></html>""",
        ["Rules for the small-boat anchorage, summer season",
         "The following rules apply inside the marked anchorage from "
         "May through September and are enforced by the harbor "
         "patrol.",
         "No vessel may anchor within fifty feet of the dredged "
         "channel edge, marked by the green cans.",
         "Rafting is limited to three boats in settled weather and "
         "is prohibited when the storm pennant flies.",
         "Holding tanks must be sealed inside the anchorage; the "
         "free pump-out boat answers channel six-eight.",
         "Violations are logged against the vessel's registration, "
         "and three entries in a season forfeit the anchoring "
         "privilege."],
    ),
    # 119. craft pattern: materials list and step paragraphs are
    # content; the kit-shop strip is chrome.
    _page(
        "craft_pattern",
        f"""<html><body><header><h1>Net Loft Crafts</h1>{_NAV}</header>
<main><article>
<h1>A rope doormat in the flat five-strand weave</h1>
<p>This is the mat the ferry crews make from retired mooring line,
and one worn three-strand warp will yield two mats with rope to
spare.</p>
<h2>You will need</h2>
<ul class="materials">
<li>Forty feet of half-inch rope, washed and dried as in our line
care guide.</li>
<li>A sail needle and waxed twine for the hidden seizings at each
turn.</li>
</ul>
<h2>Working the weave</h2>
<p>Lay five bights side by side and weave the working end over and
under across the full width, snugging each pass before you turn,
until the mat squares up at about two feet.</p>
</article></main>
<div class="kits"><a href="/kit">Buy the rope kit</a>
<a href="/patterns">More patterns</a></div>
{_FOOTER}</body></html>""",
        ["A rope doormat in the flat five-strand weave",
         "This is the mat the ferry crews make from retired mooring "
         "line, and one worn three-strand warp will yield two mats "
         "with rope to spare.",
         "You will need",
         "Forty feet of half-inch rope, washed and dried as in our "
         "line care guide.",
         "A sail needle and waxed twine for the hidden seizings at "
         "each turn.",
         "Working the weave",
         "Lay five bights side by side and weave the working end "
         "over and under across the full width, snugging each pass "
         "before you turn, until the mat squares up at about two "
         "feet."],
    ),
    # 120. award citation: the citation prose is content; the
    # nomination strip is chrome.
    _page(
        "award_citation",
        f"""<html><body><header><h1>Maritime Society</h1>{_NAV}</header>
<main><article>
<h1>Citation for the lifesaving medal, awarded to Dan Okafor</h1>
<p>On the night of the February gale, Okafor took his skiff through
breaking seas to reach two kayakers swept off the breakwater, making
three trips when the skiff could safely carry only one survivor at a
time.</p>
<p>The committee notes that he refused to be named in the newspaper
account, and that the society learned of the rescue only from the
survivors themselves.</p>
</article></main>
<div class="nominate"><a href="/nominate">Nominate a rescuer</a>
<a href="/medals">Past citations</a></div>
{_FOOTER}</body></html>""",
        ["Citation for the lifesaving medal, awarded to Dan Okafor",
         "On the night of the February gale, Okafor took his skiff "
         "through breaking seas to reach two kayakers swept off the "
         "breakwater, making three trips when the skiff could safely "
         "carry only one survivor at a time.",
         "The committee notes that he refused to be named in the "
         "newspaper account, and that the society learned of the "
         "rescue only from the survivors themselves."],
    ),
    # 121. field-guide entry: description and identification list are
    # content; the checklist strip is chrome.
    _page(
        "field_guide_entry",
        f"""<html><body><header><h1>Shore Guide</h1>{_NAV}</header>
<main><article>
<h1>Common eider, the winter duck of the outer ledges</h1>
<p>Large rafts of eiders winter on the ledges beyond the breakwater,
diving for mussels where the swell breaks, and their low crooning
carries over calm water at dawn.</p>
<h2>How to know it</h2>
<ul class="idmarks">
<li>The drake shows clean black and white with a wedge-shaped head
that meets the bill in one straight line.</li>
<li>The hen is barred warm brown overall and is usually the bird
you hear first.</li>
</ul>
</article></main>
<div class="checklist"><a href="/list">Add to your list</a>
<a href="/sightings">Report a sighting</a></div>
{_FOOTER}</body></html>""",
        ["Common eider, the winter duck of the outer ledges",
         "Large rafts of eiders winter on the ledges beyond the "
         "breakwater, diving for mussels where the swell breaks, and "
         "their low crooning carries over calm water at dawn.",
         "How to know it",
         "The drake shows clean black and white with a wedge-shaped "
         "head that meets the bill in one straight line.",
         "The hen is barred warm brown overall and is usually the "
         "bird you hear first."],
    ),
    # 122. volunteer call: the appeal and shift list are content; the
    # signup strip is chrome.
    _page(
        "volunteer_call",
        f"""<html><body><header><h1>Festival Office</h1>{_NAV}</header>
<main><article>
<h1>Volunteers needed for the harbor festival weekend</h1>
<p>The festival runs on volunteer crews, and this year the committee
needs forty more pairs of hands across the weekend to keep every
float staffed and every gate open.</p>
<ul class="shifts">
<li>Morning crews rig the parade floats at the boatyard and must be
comfortable working around slings and jack stands.</li>
<li>Afternoon crews staff the gates and the information tent, where
a calm voice matters more than a strong back.</li>
</ul>
<p>Every volunteer gets a festival shirt, two meal chits and the
committee's undying gratitude at the wrap-up supper.</p>
</article></main>
<div class="signup"><a href="/volunteer">Sign up</a>
<a href="/schedule">Shift schedule</a></div>
{_FOOTER}</body></html>""",
        ["Volunteers needed for the harbor festival weekend",
         "The festival runs on volunteer crews, and this year the "
         "committee needs forty more pairs of hands across the "
         "weekend to keep every float staffed and every gate open.",
         "Morning crews rig the parade floats at the boatyard and "
         "must be comfortable working around slings and jack stands.",
         "Afternoon crews staff the gates and the information tent, "
         "where a calm voice matters more than a strong back.",
         "Every volunteer gets a festival shirt, two meal chits and "
         "the committee's undying gratitude at the wrap-up supper."],
    ),
    # 123. Japanese news article (no spaces — paragraphs single-line so
    # whitespace collapse cannot alter the bytes; 13th non-English
    # lexicon path, first ja)
    _page(
        "ja_news_article",
        """<html lang="ja"><body><header><h1>港町新聞</h1>
<nav><ul><li><a href="/">トップ</a></li><li><a href="/keizai">経済</a></li>
<li><a href="/chiiki">地域</a></li><li><a href="/toiawase">お問い合わせ</a></li>
</ul></nav></header>
<main><article>
<h1>市議会、防波堤の改修予算を可決</h1>
<p>市議会は火曜日、長時間の審議の末に防波堤改修の新年度予算を可決し、議論は深夜まで続いて市内すべての部局に及んだ。</p>
<p>賛成派は老朽化した桟橋の補修と図書館網の拡充につながると主張し、反対派は今後十年の借入費用の増加に警鐘を鳴らした。</p>
</article></main>
<aside class="sidebar"><h3>注目</h3><ul><li><a href="/t/1">嵐で港が閉鎖
</a></li><li><a href="/t/2">鉄道が運転再開</a></li></ul></aside>
<footer><p><a href="/privacy">プライバシー</a> © 2024 港町新聞</p></footer>
</body></html>""",
        ["市議会、防波堤の改修予算を可決",
         "市議会は火曜日、長時間の審議の末に防波堤改修の新年度予算を可決し、議論は深夜まで続いて市内すべての部局に及んだ。",
         "賛成派は老朽化した桟橋の補修と図書館網の拡充につながると主張し、反対派は今後十年の借入費用の増加に警鐘を鳴らした。"],
        lang="ja",
    ),
    # 124. Turkish how-to page (14th non-English path; dotted/dotless
    # i and other Turkish letters exercise the NFC + casefold chain)
    _page(
        "tr_howto_page",
        """<html lang="tr"><body><header><h1>Liman Rehberi</h1>
<nav><ul><li><a href="/">Anasayfa</a></li><li><a href="/rehber">Rehber</a>
</li><li><a href="/iletisim">İletişim</a></li></ul></nav></header>
<main><article>
<h1>Küçük teknenizi kışa hazırlamanın üç adımı</h1>
<p>Sezon kapanmadan önce yapılan birkaç saatlik bakım, ilkbaharda
günlerce sürecek onarımların önüne geçer ve teknenin değerini korur.</p>
<ol class="adimlar">
<li>Gövdeyi tatlı suyla yıkayın ve tuz kalıntısını tamamen
çıkarana kadar durulamaya devam edin.</li>
<li>Motoru yağlayıp yakıt deposunu ağzına kadar doldurun ki kış
boyunca yoğuşma olmasın.</li>
<li>Örtüyü bağlamadan önce sintineyi kuru bir bezle silin ve
havalandırma deliklerini açık bırakın.</li>
</ol>
</article></main>
<div class="paylas"><a href="/paylas">Paylaş</a>
<a href="/yazdir">Yazdır</a></div>
<footer><p><a href="/gizlilik">Gizlilik</a> © 2024 Liman Rehberi</p>
</footer></body></html>""",
        ["Küçük teknenizi kışa hazırlamanın üç adımı",
         "Sezon kapanmadan önce yapılan birkaç saatlik bakım, "
         "ilkbaharda günlerce sürecek onarımların önüne geçer ve "
         "teknenin değerini korur.",
         "Gövdeyi tatlı suyla yıkayın ve tuz kalıntısını tamamen "
         "çıkarana kadar durulamaya devam edin.",
         "Motoru yağlayıp yakıt deposunu ağzına kadar doldurun ki "
         "kış boyunca yoğuşma olmasın.",
         "Örtüyü bağlamadan önce sintineyi kuru bir bezle silin ve "
         "havalandırma deliklerini açık bırakın."],
        lang="tr",
    ),
    # 125. course syllabus: description and weekly schedule are
    # content; the enrollment strip is chrome.
    _page(
        "course_syllabus",
        f"""<html><body><header><h1>Harbor College</h1>{_NAV}</header>
<main><article>
<h1>Coastal Navigation 201, spring syllabus</h1>
<p>This course covers chart reading, tide and current calculation,
and dead reckoning under sail, with two evening practicals on the
training sloop weather permitting.</p>
<h2>Schedule by week</h2>
<ul class="weeks">
<li>Weeks one and two introduce the chart datum, symbols and the
compass rose, ending with a plotting exercise across the sound.</li>
<li>Weeks three through five cover tide tables and secondary port
corrections, including the rule of twelfths worked by hand.</li>
<li>The final weeks run passage planning drills, and each student
files a complete plan for the island circuit as the exam.</li>
</ul>
<p>Grading weighs the passage plan at half, the practicals at a
quarter, and weekly plotting sheets for the remainder.</p>
</article></main>
<div class="enroll"><a href="/register">Register</a>
<a href="/fees">Fee schedule</a> <a href="/advising">Advising</a></div>
{_FOOTER}</body></html>""",
        ["Coastal Navigation 201, spring syllabus",
         "This course covers chart reading, tide and current "
         "calculation, and dead reckoning under sail, with two "
         "evening practicals on the training sloop weather permitting.",
         "Schedule by week",
         "Weeks one and two introduce the chart datum, symbols and "
         "the compass rose, ending with a plotting exercise across "
         "the sound.",
         "Weeks three through five cover tide tables and secondary "
         "port corrections, including the rule of twelfths worked "
         "by hand.",
         "The final weeks run passage planning drills, and each "
         "student files a complete plan for the island circuit as "
         "the exam.",
         "Grading weighs the passage plan at half, the practicals "
         "at a quarter, and weekly plotting sheets for the remainder."],
    ),
    # 126. quarterly results: narrative and the figures DATA table are
    # content (fixture 5's convention); the investor-relations rail is
    # chrome.
    _page(
        "financial_results",
        f"""<html><body><header><h1>Harbor Ferries Ltd</h1>{_NAV}</header>
<main><article>
<h1>Third quarter results show steady ridership</h1>
<p>The company carried more passengers than in any autumn quarter on
record, and fuel hedging kept operating costs within the guidance
given at the spring meeting.</p>
<table class="figures"><caption>Quarter at a glance</caption>
<tr><th>Measure</th><th>This year</th><th>Last year</th></tr>
<tr><td>Passengers carried</td><td>Two point one million</td>
<td>One point nine million</td></tr>
<tr><td>Operating margin</td><td>Eleven percent</td>
<td>Nine percent</td></tr>
</table>
<p>The board declared an unchanged interim dividend and reiterated
its plan to retire the oldest vessel next summer.</p>
</article></main>
<aside class="ir"><a href="/reports">Annual reports</a>
<a href="/webcast">Results webcast</a> <a href="/alerts">Email alerts</a>
</aside>
{_FOOTER}</body></html>""",
        ["Third quarter results show steady ridership",
         "The company carried more passengers than in any autumn "
         "quarter on record, and fuel hedging kept operating costs "
         "within the guidance given at the spring meeting.",
         "Quarter at a glance", "Measure", "This year", "Last year",
         "Passengers carried", "Two point one million",
         "One point nine million",
         "Operating margin", "Eleven percent", "Nine percent",
         "The board declared an unchanged interim dividend and "
         "reiterated its plan to retire the oldest vessel next summer."],
    ),
    # 127. software download page: the release notes paragraph and the
    # artifact DATA table (names + checksums) are content; the mirror
    # strip is chrome. Hex checksum cells pin that data tables keep
    # non-prose tokens.
    _page(
        "software_downloads",
        f"""<html><body><header><h1>TideChart Project</h1>{_NAV}</header>
<main><article>
<h1>TideChart 3.2 downloads</h1>
<p>This release adds offline chart packs and fixes the daylight
saving fault in the tide clock; verify every file against the
checksum before installing.</p>
<table class="artifacts"><caption>Release artifacts</caption>
<tr><th>File name</th><th>Checksum</th></tr>
<tr><td>tidechart-3.2-linux.tar.gz</td><td>9f86d081884c7d65</td></tr>
<tr><td>tidechart-3.2-windows.zip</td><td>2c26b46b68ffc68f</td></tr>
</table>
<p>Older releases remain available in the archive and receive
security fixes for one year from their release date.</p>
</article></main>
<div class="mirrors"><a href="/mirror/eu">EU mirror</a>
<a href="/mirror/us">US mirror</a> <a href="/torrent">Torrent</a></div>
{_FOOTER}</body></html>""",
        ["TideChart 3.2 downloads",
         "This release adds offline chart packs and fixes the "
         "daylight saving fault in the tide clock; verify every file "
         "against the checksum before installing.",
         "Release artifacts", "File name", "Checksum",
         "tidechart-3.2-linux.tar.gz", "9f86d081884c7d65",
         "tidechart-3.2-windows.zip", "2c26b46b68ffc68f",
         "Older releases remain available in the archive and receive "
         "security fixes for one year from their release date."],
    ),
    # 128. cinema showtimes: film blurbs are content; the showtime
    # button strip and ticket links are chrome.
    _page(
        "movie_showtimes",
        f"""<html><body><header><h1>Pier Cinema</h1>{_NAV}</header>
<main><article>
<h1>Now showing at the Pier</h1>
<section class="film">
<h2>The Long Watch</h2>
<p>A lighthouse keeper's final season turns strange when the relief
boat stops coming, in a slow-burning drama shot entirely on the
outer islands.</p>
<div class="times"><a href="/t/1415">2:15</a> <a href="/t/1700">5:00</a>
<a href="/t/2045">8:45</a></div>
</section>
<section class="film">
<h2>Gulls</h2>
<p>An animated comedy about a harbor flock that organizes to win
back the best pilings from the weekend sailors, suitable for all
ages.</p>
<div class="times"><a href="/t/1300">1:00</a> <a href="/t/1530">3:30</a>
</div>
</section>
</article></main>
<div class="tickets"><a href="/buy">Buy tickets</a>
<a href="/gift">Gift cards</a> <a href="/members">Membership</a></div>
{_FOOTER}</body></html>""",
        ["Now showing at the Pier",
         "The Long Watch",
         "A lighthouse keeper's final season turns strange when the "
         "relief boat stops coming, in a slow-burning drama shot "
         "entirely on the outer islands.",
         "Gulls",
         "An animated comedy about a harbor flock that organizes to "
         "win back the best pilings from the weekend sailors, "
         "suitable for all ages."],
    ),
    # 129. Hindi news article (Devanagari with combining matras — the
    # 15th non-English lexicon path; single-line paragraphs as the
    # other no-Latin fixtures)
    _page(
        "hi_news_article",
        """<html lang="hi"><body><header><h1>बंदरगाह समाचार</h1>
<nav><ul><li><a href="/">मुखपृष्ठ</a></li><li><a href="/desh">देश</a></li>
<li><a href="/sampark">संपर्क</a></li></ul></nav></header>
<main><article>
<h1>नगर परिषद ने बंदरगाह की मरम्मत का बजट पारित किया</h1>
<p>नगर परिषद ने मंगलवार को लंबी बहस के बाद नया बजट पारित किया, चर्चा देर रात तक चली और शहर के हर विभाग तक पहुंची।</p>
<p>समर्थकों ने कहा कि योजना से पुराने पुलों की मरम्मत होगी और पुस्तकालयों का विस्तार होगा, जबकि विरोधियों ने अगले दशक में बढ़ती उधारी लागत की चेतावनी दी।</p>
</article></main>
<footer><p><a href="/niyam">गोपनीयता</a> © 2024 बंदरगाह समाचार</p></footer>
</body></html>""",
        ["नगर परिषद ने बंदरगाह की मरम्मत का बजट पारित किया",
         "नगर परिषद ने मंगलवार को लंबी बहस के बाद नया बजट पारित किया, चर्चा देर रात तक चली और शहर के हर विभाग तक पहुंची।",
         "समर्थकों ने कहा कि योजना से पुराने पुलों की मरम्मत होगी और पुस्तकालयों का विस्तार होगा, जबकि विरोधियों ने अगले दशक में बढ़ती उधारी लागत की चेतावनी दी।"],
        lang="hi",
    ),
    # 130. Polish recipe steps (16th non-English path; ogonki and
    # digraphs through the NFC chain)
    _page(
        "pl_recipe_steps",
        """<html lang="pl"><body><header><h1>Kuchnia Portowa</h1>
<nav><ul><li><a href="/">Start</a></li><li><a href="/przepisy">Przepisy</a>
</li><li><a href="/kontakt">Kontakt</a></li></ul></nav></header>
<main><article>
<h1>Zupa rybna z wędzonym dorszem w trzech krokach</h1>
<p>Ta prosta zupa powstała w kuchniach portowych i najlepiej smakuje
z chlebem żytnim, a cały przepis zajmuje niecałą godzinę.</p>
<ol class="kroki">
<li>Podsmaż cebulę i seler na maśle, aż zmiękną i lekko się
zezłocą, potem dodaj liść laurowy.</li>
<li>Wlej wywar, dodaj ziemniaki i gotuj kwadrans, aż będą prawie
miękkie.</li>
<li>Włóż kawałki wędzonego dorsza i śmietanę, ogrzewaj bez
gotowania i dopraw świeżym koperkiem.</li>
</ol>
</article></main>
<div class="udostepnij"><a href="/share">Udostępnij</a>
<a href="/drukuj">Drukuj</a></div>
<footer><p><a href="/prywatnosc">Prywatność</a> © 2024 Kuchnia
Portowa</p></footer></body></html>""",
        ["Zupa rybna z wędzonym dorszem w trzech krokach",
         "Ta prosta zupa powstała w kuchniach portowych i najlepiej "
         "smakuje z chlebem żytnim, a cały przepis zajmuje niecałą "
         "godzinę.",
         "Podsmaż cebulę i seler na maśle, aż zmiękną i lekko się "
         "zezłocą, potem dodaj liść laurowy.",
         "Wlej wywar, dodaj ziemniaki i gotuj kwadrans, aż będą "
         "prawie miękkie.",
         "Włóż kawałki wędzonego dorsza i śmietanę, ogrzewaj bez "
         "gotowania i dopraw świeżym koperkiem."],
        lang="pl",
    ),
    # 131. parliament transcript: speaker-labelled exchanges are
    # content; the session toolbar is chrome.
    _page(
        "parliament_transcript",
        f"""<html><body><header><h1>Assembly Record</h1>{_NAV}</header>
<main><article>
<h1>Transcript: question period on the ferry subsidy</h1>
<div class="session-tools"><a href="/video">Session video</a>
<a href="/pdf">Download PDF</a> <a href="/search">Search record</a></div>
<p>The Speaker: The member for the outer islands has the floor for
the first question of the afternoon.</p>
<p>Ms. Harmon: Will the minister confirm that the winter ferry
subsidy survives this budget unchanged, because island clinics
depend on the Tuesday crossing for their supplies?</p>
<p>The Minister of Transport: The subsidy is preserved in full, and
the Tuesday sailing gains a backup vessel from January onward.</p>
<p>Ms. Harmon: I thank the minister, and the islands will hold him
to the January date.</p>
</article></main>
{_FOOTER}</body></html>""",
        ["Transcript: question period on the ferry subsidy",
         "The Speaker: The member for the outer islands has the floor "
         "for the first question of the afternoon.",
         "Ms. Harmon: Will the minister confirm that the winter ferry "
         "subsidy survives this budget unchanged, because island "
         "clinics depend on the Tuesday crossing for their supplies?",
         "The Minister of Transport: The subsidy is preserved in "
         "full, and the Tuesday sailing gains a backup vessel from "
         "January onward.",
         "Ms. Harmon: I thank the minister, and the islands will "
         "hold him to the January date."],
    ),
    # 132. lecture notes: definition paragraph and worked example are
    # content; the course-nav rail is chrome.
    _page(
        "lecture_notes",
        f"""<html><body><header><h1>Open Courseware</h1>{_NAV}</header>
<main><article>
<h1>Lecture 7: why the tide turns before the current does</h1>
<p>High water and slack water are different events, and confusing
them is the most common error in small-craft passage planning; the
tide is a height, the current is a flow, and in a long channel the
flow keeps running after the height has peaked.</p>
<h2>Worked example</h2>
<p>In the narrows the height peaks at nine but the flood keeps
pushing north until half past ten, so a southbound boat that leaves
at high water fights the current for ninety minutes.</p>
</article></main>
<aside class="coursenav"><h3>This course</h3><ul>
<li><a href="/l6">Lecture 6</a></li><li><a href="/l8">Lecture 8</a></li>
<li><a href="/problems">Problem sets</a></li></ul></aside>
{_FOOTER}</body></html>""",
        ["Lecture 7: why the tide turns before the current does",
         "High water and slack water are different events, and "
         "confusing them is the most common error in small-craft "
         "passage planning; the tide is a height, the current is a "
         "flow, and in a long channel the flow keeps running after "
         "the height has peaked.",
         "Worked example",
         "In the narrows the height peaks at nine but the flood "
         "keeps pushing north until half past ten, so a southbound "
         "boat that leaves at high water fights the current for "
         "ninety minutes."],
    ),
    # 133. tide table: the predictions DATA table is content (fixture
    # 5's convention); the station picker is chrome.
    _page(
        "tide_table",
        f"""<html><body><header><h1>Tide Service</h1>{_NAV}</header>
<main><article>
<h1>Tide predictions for the inner harbor, this weekend</h1>
<p>Heights are in feet above chart datum and times are local; storm
surge can raise observed water well above any prediction.</p>
<table class="tides"><caption>Saturday and Sunday</caption>
<tr><th>Which day</th><th>High water</th><th>Low water</th></tr>
<tr><td>Saturday</td><td>Nine twenty, eleven point one feet</td>
<td>Three forty, one point two feet</td></tr>
<tr><td>Sunday</td><td>Ten oh five, ten point eight feet</td>
<td>Four thirty, one point five feet</td></tr>
</table>
</article></main>
<div class="stations"><a href="/s/outer">Outer harbor</a>
<a href="/s/narrows">The narrows</a> <a href="/s/flats">The flats</a></div>
{_FOOTER}</body></html>""",
        ["Tide predictions for the inner harbor, this weekend",
         "Heights are in feet above chart datum and times are local; "
         "storm surge can raise observed water well above any "
         "prediction.",
         "Saturday and Sunday", "Which day", "High water", "Low water",
         "Saturday", "Nine twenty, eleven point one feet",
         "Three forty, one point two feet",
         "Sunday", "Ten oh five, ten point eight feet",
         "Four thirty, one point five feet"],
    ),
    # 134. marine forecast: period paragraphs are content; the
    # zone-selection strip is chrome.
    _page(
        "marine_forecast",
        f"""<html><body><header><h1>Marine Weather</h1>{_NAV}</header>
<main><article>
<h1>Coastal waters forecast, harbor approaches</h1>
<h2>Tonight</h2>
<p>Southwest winds fifteen to twenty knots becoming west after
midnight, seas three to five feet with a long southerly swell, and
patchy fog lifting before dawn.</p>
<h2>Tomorrow</h2>
<p>West winds ten knots backing light and variable by afternoon,
seas subsiding to two feet, with visibility unrestricted and a
small-craft-friendly evening.</p>
</article></main>
<div class="zones"><a href="/z/150">Zone 150</a>
<a href="/z/152">Zone 152</a> <a href="/z/154">Zone 154</a></div>
{_FOOTER}</body></html>""",
        ["Coastal waters forecast, harbor approaches",
         "Tonight",
         "Southwest winds fifteen to twenty knots becoming west "
         "after midnight, seas three to five feet with a long "
         "southerly swell, and patchy fog lifting before dawn.",
         "Tomorrow",
         "West winds ten knots backing light and variable by "
         "afternoon, seas subsiding to two feet, with visibility "
         "unrestricted and a small-craft-friendly evening."],
    ),
    # 135. auction catalog lot: description and provenance are
    # content; the bidding widget is chrome.
    _page(
        "auction_lot",
        f"""<html><body><header><h1>Harbor Auctions</h1>{_NAV}</header>
<main><article>
<h1>Lot 47: ship portrait of the schooner Meridian</h1>
<p>Oil on canvas, signed lower right and dated, showing the schooner
close-hauled off the lighthouse with the pilot cutter standing by;
original carved frame with old gilding.</p>
<h2>Provenance</h2>
<p>From the estate of the builder's granddaughter, by descent in the
family since the launch, and exhibited once at the maritime museum's
centenary show.</p>
</article></main>
<div class="bidding"><a href="/bid">Place bid</a>
<a href="/watch">Watch lot</a> <a href="/terms">Buyer terms</a></div>
{_FOOTER}</body></html>""",
        ["Lot 47: ship portrait of the schooner Meridian",
         "Oil on canvas, signed lower right and dated, showing the "
         "schooner close-hauled off the lighthouse with the pilot "
         "cutter standing by; original carved frame with old gilding.",
         "Provenance",
         "From the estate of the builder's granddaughter, by descent "
         "in the family since the launch, and exhibited once at the "
         "maritime museum's centenary show."],
    ),
    # 136. election results: the returns DATA table and the summary
    # paragraph are content; the precinct navigation is chrome.
    _page(
        "election_results",
        f"""<html><body><header><h1>County Clerk</h1>{_NAV}</header>
<main><article>
<h1>Harbor district council seat, certified returns</h1>
<p>All twelve precincts reporting; turnout reached forty one percent
of registered voters, the highest for an off-year council race in
two decades.</p>
<table class="returns"><caption>Certified totals</caption>
<tr><th>Candidate</th><th>Votes</th><th>Share</th></tr>
<tr><td>Alvarez</td><td>Four thousand ninety</td>
<td>Fifty two percent</td></tr>
<tr><td>Chen</td><td>Three thousand seven hundred</td>
<td>Forty seven percent</td></tr>
</table>
</article></main>
<div class="precincts"><a href="/p/1">Precinct maps</a>
<a href="/audit">Audit trail</a> <a href="/past">Past results</a></div>
{_FOOTER}</body></html>""",
        ["Harbor district council seat, certified returns",
         "All twelve precincts reporting; turnout reached forty one "
         "percent of registered voters, the highest for an off-year "
         "council race in two decades.",
         "Certified totals", "Candidate", "Votes", "Share",
         "Alvarez", "Four thousand ninety", "Fifty two percent",
         "Chen", "Three thousand seven hundred", "Forty seven percent"],
    ),
    # 137. church bulletin: notices are content; the giving links are
    # chrome.
    _page(
        "church_bulletin",
        f"""<html><body><header><h1>Seamen's Chapel</h1>{_NAV}</header>
<main><article>
<h1>Parish notices for the second week of the month</h1>
<p>The blessing of the fleet moves to the town pier this year, and
skippers who want their boats included should arrive by nine so the
procession can walk the full float line.</p>
<p>The winter clothing drive continues through the month; sea boots
and wool in any condition are welcome, and the mending circle meets
Wednesday to patch what can be patched.</p>
</article></main>
<div class="giving"><a href="/give">Give online</a>
<a href="/pledge">Pledge card</a></div>
{_FOOTER}</body></html>""",
        ["Parish notices for the second week of the month",
         "The blessing of the fleet moves to the town pier this "
         "year, and skippers who want their boats included should "
         "arrive by nine so the procession can walk the full float "
         "line.",
         "The winter clothing drive continues through the month; sea "
         "boots and wool in any condition are welcome, and the "
         "mending circle meets Wednesday to patch what can be "
         "patched."],
    ),
    # 138. release diff notes: prose plus a pre/code block of config
    # changes is content (the code_article convention); the version
    # switcher is chrome.
    _page(
        "release_diff_notes",
        f"""<html><body><header><h1>TideChart Docs</h1>{_NAV}</header>
<main><article>
<h1>Upgrading from 3.1: configuration changes</h1>
<p>The chart cache moved out of the user directory, and two renamed
keys must change in every config file before first launch.</p>
<pre><code>- cache_dir = ~/.tidechart/cache
+ cache_dir = /var/cache/tidechart
- offline = true
+ packs.offline = true</code></pre>
<p>The migration tool rewrites both keys in place and keeps a backup
beside the original file.</p>
</article></main>
<div class="versions"><a href="/v/3.1">3.1 docs</a>
<a href="/v/3.2">3.2 docs</a></div>
{_FOOTER}</body></html>""",
        ["Upgrading from 3.1: configuration changes",
         "The chart cache moved out of the user directory, and two "
         "renamed keys must change in every config file before first "
         "launch.",
         "- cache_dir = ~/.tidechart/cache "
         "+ cache_dir = /var/cache/tidechart "
         "- offline = true "
         "+ packs.offline = true",
         "The migration tool rewrites both keys in place and keeps a "
         "backup beside the original file."],
    ),
    # 139. match report with box-score table: recap paragraph + the
    # score DATA table are content (the tide_table convention: wordy
    # cells so no th suppression); standings links are chrome.
    _page(
        "match_report_table",
        f"""<html><body><header><h1>Harbor Sports Desk</h1>{_NAV}</header>
<main><article>
<h1>Mariners take the derby in extra time</h1>
<p>A scrambled winner two minutes into added extra time settled a
derby that had everything else already: a missed penalty, a
disallowed header, and a goalkeeper playing the half of his life.</p>
<table class="boxscore"><caption>Match summary</caption>
<tr><th>Which side</th><th>First half</th><th>Final score</th></tr>
<tr><td>Mariners</td><td>One goal, from the corner</td>
<td>Three after extra time</td></tr>
<tr><td>Rovers</td><td>One goal, on the break</td>
<td>Two after extra time</td></tr>
</table>
</article></main>
<div class="standings"><a href="/table">League table</a>
<a href="/fixtures">Remaining fixtures</a></div>
{_FOOTER}</body></html>""",
        ["Mariners take the derby in extra time",
         "A scrambled winner two minutes into added extra time "
         "settled a derby that had everything else already: a missed "
         "penalty, a disallowed header, and a goalkeeper playing the "
         "half of his life.",
         "Match summary", "Which side", "First half", "Final score",
         "Mariners", "One goal, from the corner",
         "Three after extra time",
         "Rovers", "One goal, on the break", "Two after extra time"],
    ),
    # 140. Q&A thread: question body and both answers are content;
    # vote widgets and the related-questions rail are chrome by class
    # token.
    _page(
        "qa_thread",
        f"""<html><body><header><h1>Sailing Answers</h1>{_NAV}</header>
<main><article>
<h1>Why does my anchor drag only on the ebb tide?</h1>
<p>The anchor holds all night on the flood and then drags just after
the turn; the bottom here is mud over clay and the scope is five to
one, so what changes at the turn that the holding does not survive?</p>
<div class="vote-widget"><a href="/up">Upvote</a>
<a href="/down">Downvote</a></div>
<h2>Accepted answer</h2>
<p>At the turn the boat swings through the anchor and loads it from
the opposite side, and a fluke anchor that set beautifully one way
can trip itself when reversed; veer more chain before the turn or
switch to a pattern that resets itself quickly.</p>
<h2>Another answer</h2>
<p>Check whether the ebb runs harder than the flood in your spot; in
many rivers the ebb carries the drainage on top of the tide, so the
load is simply bigger than anything the night tested before.</p>
</article></main>
<aside class="related"><h3>Related questions</h3><ul>
<li><a href="/q/1">Chain versus rope</a></li>
<li><a href="/q/2">Anchoring in weed</a></li></ul></aside>
{_FOOTER}</body></html>""",
        ["Why does my anchor drag only on the ebb tide?",
         "The anchor holds all night on the flood and then drags just "
         "after the turn; the bottom here is mud over clay and the "
         "scope is five to one, so what changes at the turn that the "
         "holding does not survive?",
         "Accepted answer",
         "At the turn the boat swings through the anchor and loads it "
         "from the opposite side, and a fluke anchor that set "
         "beautifully one way can trip itself when reversed; veer "
         "more chain before the turn or switch to a pattern that "
         "resets itself quickly.",
         "Another answer",
         "Check whether the ebb runs harder than the flood in your "
         "spot; in many rivers the ebb carries the drainage on top of "
         "the tide, so the load is simply bigger than anything the "
         "night tested before."],
    ),
    # 141. changelog: version headings + bullet lists of changes are
    # content (li convention); the download rail is chrome.
    _page(
        "changelog",
        f"""<html><body><header><h1>TideChart</h1>{_NAV}</header>
<main><article>
<h1>Release history</h1>
<h2>Version 3.2, the harbor update</h2>
<ul>
<li>Chart packs now download in the background and resume after an
interrupted connection instead of starting over.</li>
<li>The depth alarm accepts a draft offset so the warning fires on
water under the keel, not water under the transducer.</li>
</ul>
<h2>Version 3.1, maintenance</h2>
<ul>
<li>Fixed the route editor losing its undo history when a waypoint
was dragged across the date line.</li>
<li>Reduced battery use while the screen shows a stationary anchor
watch overnight.</li>
</ul>
</article></main>
<div class="downloads"><a href="/dl/32">Get 3.2</a>
<a href="/dl/31">Get 3.1</a></div>
{_FOOTER}</body></html>""",
        ["Release history",
         "Version 3.2, the harbor update",
         "Chart packs now download in the background and resume after "
         "an interrupted connection instead of starting over.",
         "The depth alarm accepts a draft offset so the warning fires "
         "on water under the keel, not water under the transducer.",
         "Version 3.1, maintenance",
         "Fixed the route editor losing its undo history when a "
         "waypoint was dragged across the date line.",
         "Reduced battery use while the screen shows a stationary "
         "anchor watch overnight."],
    ),
    # 142. encyclopedia article with an infobox: the article prose is
    # content; the infobox table is chrome BY CLASS TOKEN ("infobox"
    # is in _CHROME_WORDS) even though it sits inside the article.
    _page(
        "encyclopedia_article",
        f"""<html><body><header><h1>Open Encyclopedia</h1>{_NAV}</header>
<main><article>
<h1>Meridian (schooner)</h1>
<table class="infobox"><tr><th>Launched</th><td>1901</td></tr>
<tr><th>Builder</th><td>Harbor yard</td></tr>
<tr><th>Fate</th><td>Preserved</td></tr></table>
<p>Meridian is a two-masted coasting schooner built for the granite
trade, one of the last survivors of a fleet that once numbered in
the hundreds on this coast.</p>
<p>After sixty years carrying stone she was converted for sail
training, and she still ships a volunteer crew every summer on the
same run her cargoes once took.</p>
</article></main>
{_FOOTER}</body></html>""",
        ["Meridian (schooner)",
         "Meridian is a two-masted coasting schooner built for the "
         "granite trade, one of the last survivors of a fleet that "
         "once numbered in the hundreds on this coast.",
         "After sixty years carrying stone she was converted for sail "
         "training, and she still ships a volunteer crew every summer "
         "on the same run her cargoes once took."],
    ),
    # 143. incident status page: timestamped update paragraphs are
    # content; the subscribe strip is chrome by class token.
    _page(
        "status_page",
        f"""<html><body><header><h1>TideChart Status</h1>{_NAV}</header>
<main><article>
<h1>Chart downloads degraded in the eastern region</h1>
<p>Fourteen twenty, investigating: downloads are timing out for
about a third of requests in the eastern region while map browsing
remains unaffected everywhere.</p>
<p>Fifteen oh five, identified: a storage node lost its network path
after a failed switch update, and traffic is being drained to the
healthy nodes now.</p>
<p>Fifteen forty, resolved: error rates returned to baseline and the
failed switch stays out of rotation until the vendor patch lands.</p>
</article></main>
<div class="subscribe"><a href="/notify">Get status updates</a></div>
{_FOOTER}</body></html>""",
        ["Chart downloads degraded in the eastern region",
         "Fourteen twenty, investigating: downloads are timing out "
         "for about a third of requests in the eastern region while "
         "map browsing remains unaffected everywhere.",
         "Fifteen oh five, identified: a storage node lost its "
         "network path after a failed switch update, and traffic is "
         "being drained to the healthy nodes now.",
         "Fifteen forty, resolved: error rates returned to baseline "
         "and the failed switch stays out of rotation until the "
         "vendor patch lands."],
    ),
    # 144. public notice: docket paragraphs are content; the agency
    # action rail is chrome.
    _page(
        "gov_notice",
        f"""<html><body><header><h1>Harbor Authority</h1>{_NAV}</header>
<main><article>
<h1>Notice of proposed mooring fee schedule, docket 24-117</h1>
<p>The authority proposes to raise the seasonal mooring fee by six
percent and to introduce a reduced rate for vessels under twenty
feet, effective at the start of the next permit year.</p>
<p>Written comments will be received until the last business day of
the month and may be submitted by mail or through the docket portal;
all comments become part of the public record.</p>
<p>A public hearing will be held in the harbor office if twenty five
or more residents request one in writing before the comment deadline.</p>
</article></main>
<div class="actions"><a href="/docket/24-117">View docket</a>
<a href="/comment">Submit comment</a></div>
{_FOOTER}</body></html>""",
        ["Notice of proposed mooring fee schedule, docket 24-117",
         "The authority proposes to raise the seasonal mooring fee by "
         "six percent and to introduce a reduced rate for vessels "
         "under twenty feet, effective at the start of the next "
         "permit year.",
         "Written comments will be received until the last business "
         "day of the month and may be submitted by mail or through "
         "the docket portal; all comments become part of the public "
         "record.",
         "A public hearing will be held in the harbor office if "
         "twenty five or more residents request one in writing before "
         "the comment deadline."],
    ),
    # 145. stock quote page: the company summary and the key-figures
    # DATA table are content; the ticker lookup is chrome (role
    # search).
    _page(
        "stock_quote",
        f"""<html><body><header><h1>Market Pages</h1>{_NAV}
<form role="search"><input name="q" placeholder="Ticker"></form></header>
<main><article>
<h1>Harbor Logistics, quarterly summary</h1>
<p>The carrier beat its own guidance on volume while margins held,
and management raised the full-year outlook on the strength of the
new coastal feeder routes.</p>
<table class="figures"><caption>Key figures this quarter</caption>
<tr><th>Which measure</th><th>Reported value</th></tr>
<tr><td>Revenue</td><td>Up nine percent on the year</td></tr>
<tr><td>Operating margin</td><td>Eleven point five percent</td></tr>
<tr><td>Fleet utilization</td><td>Ninety three percent</td></tr>
</table>
</article></main>
{_FOOTER}</body></html>""",
        ["Harbor Logistics, quarterly summary",
         "The carrier beat its own guidance on volume while margins "
         "held, and management raised the full-year outlook on the "
         "strength of the new coastal feeder routes.",
         "Key figures this quarter", "Which measure", "Reported value",
         "Revenue", "Up nine percent on the year",
         "Operating margin", "Eleven point five percent",
         "Fleet utilization", "Ninety three percent"],
    ),
    # 146. genealogy record: the record DATA table and the archival
    # note are content; the tree-building tools are chrome.
    _page(
        "genealogy_record",
        f"""<html><body><header><h1>Coastal Archives</h1>{_NAV}</header>
<main><article>
<h1>Crew list entry, schooner Meridian, spring voyage</h1>
<table class="record"><caption>Transcribed entry</caption>
<tr><th>Name as written</th><th>Rated position</th><th>Where born</th></tr>
<tr><td>Josiah Crane</td><td>Master of the vessel</td>
<td>The harbor parish</td></tr>
<tr><td>Samuel Obed Lane</td><td>Able seaman, first voyage</td>
<td>The outer islands</td></tr>
</table>
<p>The original list is water-stained along the left margin, and the
transcriber notes that the second surname could also read Layne in
the clerk's hand.</p>
</article></main>
<div class="tools"><a href="/tree">Add to tree</a>
<a href="/scan">View original scan</a></div>
{_FOOTER}</body></html>""",
        ["Crew list entry, schooner Meridian, spring voyage",
         "Transcribed entry", "Name as written", "Rated position",
         "Where born",
         "Josiah Crane", "Master of the vessel", "The harbor parish",
         "Samuel Obed Lane", "Able seaman, first voyage",
         "The outer islands",
         "The original list is water-stained along the left margin, "
         "and the transcriber notes that the second surname could "
         "also read Layne in the clerk's hand."],
    ),
    # 147. transit timetable: the departures DATA table and the
    # service-change paragraph are content; route picker is chrome.
    _page(
        "transit_timetable",
        f"""<html><body><header><h1>Harbor Transit</h1>{_NAV}</header>
<main><article>
<h1>Route 7 ferry, winter weekday departures</h1>
<p>The winter schedule trims the late boats and adds a second early
run for the shipyard shift; times below are departures from the town
pier and crossings take about twenty minutes.</p>
<table class="timetable"><caption>Weekday departures</caption>
<tr><th>Leaves town pier</th><th>Leaves the island</th></tr>
<tr><td>Six ten in the morning</td><td>Six forty in the morning</td></tr>
<tr><td>Seven thirty in the morning</td><td>Eight in the morning</td></tr>
<tr><td>Five fifteen in the evening</td><td>Five forty five in the
evening</td></tr>
</table>
</article></main>
<div class="routes"><a href="/r/5">Route 5</a>
<a href="/r/9">Route 9</a> <a href="/alerts">Service alerts</a></div>
{_FOOTER}</body></html>""",
        ["Route 7 ferry, winter weekday departures",
         "The winter schedule trims the late boats and adds a second "
         "early run for the shipyard shift; times below are "
         "departures from the town pier and crossings take about "
         "twenty minutes.",
         "Weekday departures", "Leaves town pier", "Leaves the island",
         "Six ten in the morning", "Six forty in the morning",
         "Seven thirty in the morning", "Eight in the morning",
         "Five fifteen in the evening",
         "Five forty five in the evening"],
    ),
    # 148. survey results: findings paragraphs + the percentages DATA
    # table are content; methodology download is chrome.
    _page(
        "survey_results",
        f"""<html><body><header><h1>Harbor Poll</h1>{_NAV}</header>
<main><article>
<h1>Residents split on the waterfront rezoning, survey finds</h1>
<p>Support falls sharply with distance from the water: respondents
within two blocks favor the plan by a wide margin while the rest of
the town leans against, and renters are warmer to it than owners in
every neighborhood.</p>
<table class="results"><caption>Do you support the rezoning?</caption>
<tr><th>Answer given</th><th>Share of respondents</th></tr>
<tr><td>Support it</td><td>Forty four percent</td></tr>
<tr><td>Oppose it</td><td>Forty one percent</td></tr>
<tr><td>Not yet decided</td><td>Fifteen percent</td></tr>
</table>
<p>The poll reached six hundred adults by phone and online panel,
and the margin of error is four points either way.</p>
</article></main>
<div class="downloads"><a href="/method.pdf">Methodology</a>
<a href="/crosstabs">Full crosstabs</a></div>
{_FOOTER}</body></html>""",
        ["Residents split on the waterfront rezoning, survey finds",
         "Support falls sharply with distance from the water: "
         "respondents within two blocks favor the plan by a wide "
         "margin while the rest of the town leans against, and "
         "renters are warmer to it than owners in every neighborhood.",
         "Do you support the rezoning?", "Answer given",
         "Share of respondents",
         "Support it", "Forty four percent",
         "Oppose it", "Forty one percent",
         "Not yet decided", "Fifteen percent",
         "The poll reached six hundred adults by phone and online "
         "panel, and the margin of error is four points either way."],
    ),
    # 149. rendered open-source README: install pre block + usage
    # prose are content (code_article convention); repo toolbar is
    # chrome.
    _page(
        "open_source_readme",
        f"""<html><body><header><h1>Code Forge</h1>{_NAV}</header>
<div class="toolbar"><a href="/fork">Fork</a> <a href="/star">Star</a>
<a href="/issues">Issues</a></div>
<main><article>
<h1>tidelib: tide predictions from harmonic constants</h1>
<p>A small library that turns published harmonic constants into tide
height and current predictions, with no network dependency and no
data files beyond the constants you give it.</p>
<h2>Install</h2>
<pre><code>pip install tidelib
python -m tidelib demo --station harbor</code></pre>
<h2>Usage</h2>
<p>Construct a station from its constants and ask for heights at any
timestamp; the result is a plain number in the units the constants
were published in, and vectorized queries accept any array.</p>
</article></main>
{_FOOTER}</body></html>""",
        ["tidelib: tide predictions from harmonic constants",
         "A small library that turns published harmonic constants "
         "into tide height and current predictions, with no network "
         "dependency and no data files beyond the constants you give "
         "it.",
         "Install",
         "pip install tidelib "
         "python -m tidelib demo --station harbor",
         "Usage",
         "Construct a station from its constants and ask for heights "
         "at any timestamp; the result is a plain number in the units "
         "the constants were published in, and vectorized queries "
         "accept any array."],
    ),
    # 150. children's story: plain narrative paragraphs with quoted
    # dialogue; the reading-level strip is chrome.
    _page(
        "childrens_story",
        f"""<html><body><header><h1>Story Corner</h1>{_NAV}</header>
<main><article>
<h1>The buoy who wanted to see the town</h1>
<p>The red buoy had watched the harbor lights for so many winters
that it knew every window, and one foggy night it asked the tide,
very politely, to carry it in for a closer look.</p>
<p>"Hold fast," laughed the tide, "for you are the one thing out
here that must never wander," and it told the buoy stories of the
town instead, until the fog lifted and the lights came back.</p>
</article></main>
<div class="meta-level"><a href="/age/5">Ages five and up</a></div>
{_FOOTER}</body></html>""",
        ["The buoy who wanted to see the town",
         "The red buoy had watched the harbor lights for so many "
         "winters that it knew every window, and one foggy night it "
         "asked the tide, very politely, to carry it in for a closer "
         "look.",
         "\"Hold fast,\" laughed the tide, \"for you are the one "
         "thing out here that must never wander,\" and it told the "
         "buoy stories of the town instead, until the fog lifted and "
         "the lights came back."],
    ),
    # 151. video how-to page: the embed is an iframe (skipped subtree,
    # the iframe_fallback convention) and the step list is content.
    _page(
        "video_howto",
        f"""<html><body><header><h1>Boatwright Channel</h1>{_NAV}</header>
<main><article>
<h1>Whipping a rope end without a needle, step by step</h1>
<iframe src="https://video.example/embed/whip"><p>Your browser does
not support embedded video.</p></iframe>
<p>The video runs four minutes; the written steps below match the
chapters if you prefer to work from text.</p>
<ol>
<li>Lay the twine along the rope with a long loop hanging past the
end you mean to whip.</li>
<li>Wrap tight turns against the lay, working toward the end, until
the whipping is as wide as the rope is thick.</li>
<li>Pass the working end through the loop, then pull the buried tail
until the loop disappears under the turns, and trim both ends.</li>
</ol>
</article></main>
{_FOOTER}</body></html>""",
        ["Whipping a rope end without a needle, step by step",
         "The video runs four minutes; the written steps below match "
         "the chapters if you prefer to work from text.",
         "Lay the twine along the rope with a long loop hanging past "
         "the end you mean to whip.",
         "Wrap tight turns against the lay, working toward the end, "
         "until the whipping is as wide as the rope is thick.",
         "Pass the working end through the loop, then pull the buried "
         "tail until the loop disappears under the turns, and trim "
         "both ends."],
    ),
    # 152. product recall notice: the affected-models DATA table and
    # the instruction paragraphs are content; registration rail is
    # chrome.
    _page(
        "recall_notice",
        f"""<html><body><header><h1>Marine Safety Board</h1>{_NAV}</header>
<main><article>
<h1>Recall: inflatable lifejacket auto-release cartridges</h1>
<p>The affected cartridges can fire years early in humid storage,
leaving the jacket inflated in its pouch and unusable when it is
actually needed; no injuries are reported but owners should act
before the season starts.</p>
<table class="affected"><caption>Affected production</caption>
<tr><th>Model family</th><th>Date codes affected</th></tr>
<tr><td>Coastal one fifty</td><td>Codes alpha through delta</td></tr>
<tr><td>Offshore two seventy</td><td>Codes alpha through charlie</td></tr>
</table>
<p>Check the code stamped under the cartridge collar, and if it
matches, stop using the jacket and request a free replacement kit;
manual inflation remains safe in the meantime.</p>
</article></main>
<div class="actions"><a href="/register">Request replacement</a>
<a href="/faq">Recall questions</a></div>
{_FOOTER}</body></html>""",
        ["Recall: inflatable lifejacket auto-release cartridges",
         "The affected cartridges can fire years early in humid "
         "storage, leaving the jacket inflated in its pouch and "
         "unusable when it is actually needed; no injuries are "
         "reported but owners should act before the season starts.",
         "Affected production", "Model family", "Date codes affected",
         "Coastal one fifty", "Codes alpha through delta",
         "Offshore two seventy", "Codes alpha through charlie",
         "Check the code stamped under the cartridge collar, and if "
         "it matches, stop using the jacket and request a free "
         "replacement kit; manual inflation remains safe in the "
         "meantime."],
    ),
    # 153. cooking blog post: the long personal story AND the recipe
    # card are both content (the infamous shape); the jump link and
    # print strip are chrome.
    _page(
        "cooking_blog_post",
        f"""<html><body><header><h1>The Galley Stove</h1>{_NAV}</header>
<main><article>
<div class="toolbar"><a href="#recipe">Jump to recipe</a>
<a href="/print">Print recipe</a></div>
<h1>The chowder my grandmother made on the boat</h1>
<p>She cooked it on a single burner in a pot with a dented lid, and
the trick she never wrote down was to let the potatoes sit off the
heat while the fish finished in the steam, so nothing ever boiled
after the milk went in.</p>
<h2>The recipe</h2>
<ul>
<li>Render the salt pork slowly, then sweat the onions in the fat
until they go quiet.</li>
<li>Add potatoes and just enough water to cover, simmer until almost
tender, and lay the fish on top off the heat.</li>
<li>Warm the milk separately and add it last with the butter, then
let the pot rest, covered, for ten minutes before serving.</li>
</ul>
</article></main>
{_FOOTER}</body></html>""",
        ["The chowder my grandmother made on the boat",
         "She cooked it on a single burner in a pot with a dented "
         "lid, and the trick she never wrote down was to let the "
         "potatoes sit off the heat while the fish finished in the "
         "steam, so nothing ever boiled after the milk went in.",
         "The recipe",
         "Render the salt pork slowly, then sweat the onions in the "
         "fat until they go quiet.",
         "Add potatoes and just enough water to cover, simmer until "
         "almost tender, and lay the fish on top off the heat.",
         "Warm the milk separately and add it last with the butter, "
         "then let the pot rest, covered, for ten minutes before "
         "serving."],
    ),
    # 154. library hours: the hours DATA table and the holiday note
    # are content; the branch picker is chrome.
    _page(
        "library_hours",
        f"""<html><body><header><h1>Town Library</h1>{_NAV}</header>
<main><article>
<h1>Opening hours at the harbor branch</h1>
<table class="hours"><caption>Regular weekly hours</caption>
<tr><th>Days of the week</th><th>Hours kept</th></tr>
<tr><td>Monday through Thursday</td>
<td>Nine in the morning to eight at night</td></tr>
<tr><td>Friday and Saturday</td>
<td>Nine in the morning to five in the afternoon</td></tr>
<tr><td>Sunday</td><td>Closed all day</td></tr>
</table>
<p>The branch closes for town holidays and for the boat parade, and
the book drop stays open around the clock even when the doors are
locked.</p>
</article></main>
<div class="branches"><a href="/b/main">Main branch</a>
<a href="/b/island">Island branch</a></div>
{_FOOTER}</body></html>""",
        ["Opening hours at the harbor branch",
         "Regular weekly hours", "Days of the week", "Hours kept",
         "Monday through Thursday",
         "Nine in the morning to eight at night",
         "Friday and Saturday",
         "Nine in the morning to five in the afternoon",
         "Sunday", "Closed all day",
         "The branch closes for town holidays and for the boat "
         "parade, and the book drop stays open around the clock even "
         "when the doors are locked."],
    ),
    # 155. municipal ordinance: numbered sections are content; the
    # code-navigation rail is chrome.
    _page(
        "city_ordinance",
        f"""<html><body><header><h1>Town Code</h1>{_NAV}</header>
<main><article>
<h1>Ordinance 24-3: overnight anchoring in the inner harbor</h1>
<p>Section one. No vessel may anchor overnight in the inner harbor
between the channel markers and the town float except in an
emergency declared to the harbormaster.</p>
<p>Section two. Vessels awaiting a mooring assignment may anchor for
up to seventy two hours in the designated waiting area shown on the
harbor plan.</p>
<p>Section three. A violation of this ordinance is punishable by a
fine of fifty dollars per night, and repeated violations may result
in removal of the vessel at the owner's expense.</p>
</article></main>
<div class="codenav"><a href="/code/24-2">Previous ordinance</a>
<a href="/code/24-4">Next ordinance</a></div>
{_FOOTER}</body></html>""",
        ["Ordinance 24-3: overnight anchoring in the inner harbor",
         "Section one. No vessel may anchor overnight in the inner "
         "harbor between the channel markers and the town float "
         "except in an emergency declared to the harbormaster.",
         "Section two. Vessels awaiting a mooring assignment may "
         "anchor for up to seventy two hours in the designated "
         "waiting area shown on the harbor plan.",
         "Section three. A violation of this ordinance is punishable "
         "by a fine of fifty dollars per night, and repeated "
         "violations may result in removal of the vessel at the "
         "owner's expense."],
    ),
    # 156. practice exam: question stems and answer options are all
    # content; the score widget is chrome.
    _page(
        "boating_exam_quiz",
        f"""<html><body><header><h1>Safe Boating Course</h1>{_NAV}</header>
<main><article>
<h1>Practice questions: rules of the road</h1>
<p>Question one. Two power-driven vessels are meeting head on; what
action should each take?</p>
<ul>
<li>Each alters course to starboard and passes port to port.</li>
<li>Each alters course to port and passes starboard to starboard.</li>
<li>The smaller vessel gives way and the larger holds course.</li>
</ul>
<p>Question two. At night you see a green light ahead and slightly to
port; what are you looking at?</p>
<ul>
<li>The starboard side of a vessel crossing from your left.</li>
<li>The port side of a vessel crossing from your right.</li>
<li>A vessel at anchor showing an all-round light.</li>
</ul>
</article></main>
<div class="feedback"><a href="/score">Check answers</a></div>
{_FOOTER}</body></html>""",
        ["Practice questions: rules of the road",
         "Question one. Two power-driven vessels are meeting head on; "
         "what action should each take?",
         "Each alters course to starboard and passes port to port.",
         "Each alters course to port and passes starboard to "
         "starboard.",
         "The smaller vessel gives way and the larger holds course.",
         "Question two. At night you see a green light ahead and "
         "slightly to port; what are you looking at?",
         "The starboard side of a vessel crossing from your left.",
         "The port side of a vessel crossing from your right.",
         "A vessel at anchor showing an all-round light."],
    ),
    # 157. classifieds listing page: each ad paragraph is content;
    # the post-an-ad rail is chrome.
    _page(
        "marine_classifieds",
        f"""<html><body><header><h1>Harbor Classifieds</h1>{_NAV}</header>
<main><article>
<h1>Boats and gear for sale this week</h1>
<p>Twelve foot sailing dinghy with nearly new sail and galvanized
trailer, stored under cover, ready for the season; eight hundred or
best offer, evenings only.</p>
<p>Pair of bronze winches off a retired cruiser, serviced and
greased, with handles; sold together, collection from the boatyard
shed.</p>
<p>Wanted: a tender under eight feet that fits on a foredeck, rowing
preferred, condition unimportant if it floats.</p>
</article></main>
<div class="actions"><a href="/post">Post an ad</a>
<a href="/rules">Listing rules</a></div>
{_FOOTER}</body></html>""",
        ["Boats and gear for sale this week",
         "Twelve foot sailing dinghy with nearly new sail and "
         "galvanized trailer, stored under cover, ready for the "
         "season; eight hundred or best offer, evenings only.",
         "Pair of bronze winches off a retired cruiser, serviced and "
         "greased, with handles; sold together, collection from the "
         "boatyard shed.",
         "Wanted: a tender under eight feet that fits on a foredeck, "
         "rowing preferred, condition unimportant if it floats."],
    ),
    # 158. meeting agenda: timed agenda items as a list are content;
    # the RSVP strip is chrome.
    _page(
        "club_meeting_agenda",
        f"""<html><body><header><h1>Harbor Yacht Club</h1>{_NAV}</header>
<main><article>
<h1>Agenda for the annual general meeting</h1>
<ul>
<li>Seven o'clock: welcome, apologies, and approval of last year's
minutes as circulated.</li>
<li>Seven fifteen: treasurer's report and the proposed dues schedule
for the coming season.</li>
<li>Seven forty five: motion to fund the junior sailing fleet's two
replacement boats from reserves.</li>
<li>Eight fifteen: any other business and the date of the spring
work party.</li>
</ul>
</article></main>
<div class="signup"><a href="/rsvp">RSVP</a></div>
{_FOOTER}</body></html>""",
        ["Agenda for the annual general meeting",
         "Seven o'clock: welcome, apologies, and approval of last "
         "year's minutes as circulated.",
         "Seven fifteen: treasurer's report and the proposed dues "
         "schedule for the coming season.",
         "Seven forty five: motion to fund the junior sailing fleet's "
         "two replacement boats from reserves.",
         "Eight fifteen: any other business and the date of the "
         "spring work party."],
    ),
    # 159. notice to mariners: correction entries are content; the
    # edition picker is chrome.
    _page(
        "chart_corrections",
        f"""<html><body><header><h1>Notices to Mariners</h1>{_NAV}</header>
<main><article>
<h1>Chart corrections, harbor approaches edition</h1>
<p>Correction one. Delete the wreck symbol southeast of the fairway
buoy; the wreck has been dispersed and the least depth over the site
is now six fathoms.</p>
<p>Correction two. Insert a yellow special-purpose buoy marking the
new outfall, flashing yellow every four seconds, close inshore of
the bathing beach.</p>
<p>Correction three. Amend the light characteristic of the breakwater
head from fixed red to flashing red every three seconds.</p>
</article></main>
<div class="versions"><a href="/ed/last">Previous edition</a>
<a href="/ed/list">All editions</a></div>
{_FOOTER}</body></html>""",
        ["Chart corrections, harbor approaches edition",
         "Correction one. Delete the wreck symbol southeast of the "
         "fairway buoy; the wreck has been dispersed and the least "
         "depth over the site is now six fathoms.",
         "Correction two. Insert a yellow special-purpose buoy "
         "marking the new outfall, flashing yellow every four "
         "seconds, close inshore of the bathing beach.",
         "Correction three. Amend the light characteristic of the "
         "breakwater head from fixed red to flashing red every three "
         "seconds."],
    ),
    # 160. engine spec sheet: the specification DATA table and the
    # service note are content; the dealer locator is chrome.
    _page(
        "engine_spec_sheet",
        f"""<html><body><header><h1>Marine Engines</h1>{_NAV}</header>
<main><article>
<h1>Coastal 30 inboard diesel, specifications</h1>
<table class="specs"><caption>Manufacturer figures</caption>
<tr><th>Which specification</th><th>Stated value</th></tr>
<tr><td>Rated output</td><td>Thirty horsepower at full throttle</td></tr>
<tr><td>Displacement</td><td>One point three liters, three
cylinders</td></tr>
<tr><td>Dry weight</td><td>One hundred sixty kilograms with
gearbox</td></tr>
</table>
<p>Service intervals assume clean fuel and a freshwater-cooled
installation; raw-water installations halve the impeller interval
regardless of engine hours.</p>
</article></main>
<div class="tools"><a href="/dealers">Find a dealer</a>
<a href="/manuals">Owner manuals</a></div>
{_FOOTER}</body></html>""",
        ["Coastal 30 inboard diesel, specifications",
         "Manufacturer figures", "Which specification", "Stated value",
         "Rated output", "Thirty horsepower at full throttle",
         "Displacement", "One point three liters, three cylinders",
         "Dry weight", "One hundred sixty kilograms with gearbox",
         "Service intervals assume clean fuel and a freshwater-cooled "
         "installation; raw-water installations halve the impeller "
         "interval regardless of engine hours."],
    ),
    # 161. program registration page: eligibility prose + the fees
    # DATA table are content; the signup form strip is chrome.
    _page(
        "sailing_registration",
        f"""<html><body><header><h1>Junior Sailing</h1>{_NAV}</header>
<main><article>
<h1>Summer program registration, ages eight to fifteen</h1>
<p>Sailors are grouped by experience rather than age after the first
day's assessment, and every group spends at least half of each
session on the water when the flag allows.</p>
<table class="fees"><caption>Session fees</caption>
<tr><th>Which session</th><th>Fee charged</th></tr>
<tr><td>Two week morning session</td><td>Two hundred forty
dollars</td></tr>
<tr><td>Full season pass</td><td>Seven hundred dollars with a family
discount available</td></tr>
</table>
</article></main>
<div class="signup"><a href="/register">Register now</a>
<a href="/aid">Financial aid</a></div>
{_FOOTER}</body></html>""",
        ["Summer program registration, ages eight to fifteen",
         "Sailors are grouped by experience rather than age after the "
         "first day's assessment, and every group spends at least "
         "half of each session on the water when the flag allows.",
         "Session fees", "Which session", "Fee charged",
         "Two week morning session", "Two hundred forty dollars",
         "Full season pass",
         "Seven hundred dollars with a family discount available"],
    ),
    # 162. archival newspaper transcription: transcribed paragraphs
    # with editorial [illegible] markers are content; the scan viewer
    # strip is chrome.
    _page(
        "newspaper_transcription",
        f"""<html><body><header><h1>Historical Papers</h1>{_NAV}</header>
<main><article>
<h1>The Harbor Gazette, transcription of the storm report</h1>
<p>The gale of Thursday last drove three coasters ashore on the
flats, and the crews were taken off by the lifeboat in two trips,
the second made under [illegible] of darkness.</p>
<p>The schooner Meridian parted her best bower but rode out the
night on her second anchor, her master crediting the new chain
bought only a fortnight [illegible].</p>
</article></main>
<div class="tools"><a href="/scan">View original scan</a>
<a href="/issues">Browse issues</a></div>
{_FOOTER}</body></html>""",
        ["The Harbor Gazette, transcription of the storm report",
         "The gale of Thursday last drove three coasters ashore on "
         "the flats, and the crews were taken off by the lifeboat in "
         "two trips, the second made under [illegible] of darkness.",
         "The schooner Meridian parted her best bower but rode out "
         "the night on her second anchor, her master crediting the "
         "new chain bought only a fortnight [illegible]."],
    ),
    # 163. podcast episode page: show notes are content; the player
    # strip and subscribe links are chrome.
    _page(
        "podcast_shownotes",
        f"""<html><body><header><h1>Harborside Radio</h1>{_NAV}</header>
<main><article>
<h1>Episode forty two: the lighthouse keeper's ledger</h1>
<p>This week we sit down with the last keeper of the outer light to
read through the ledger he kept for thirty years, from fog bells
rung by hand to the night the lamp converted to electricity.</p>
<p>Along the way he explains why the station cat appears in the
official log more often than the district inspector, and what the
ledger's margins reveal about storms the newspapers never covered.</p>
</article></main>
<div class="player"><a href="/play">Play</a>
<a href="/ep42.mp3">Download episode</a>
<a href="/subscribe">Subscribe</a></div>
{_FOOTER}</body></html>""",
        ["Episode forty two: the lighthouse keeper's ledger",
         "This week we sit down with the last keeper of the outer "
         "light to read through the ledger he kept for thirty years, "
         "from fog bells rung by hand to the night the lamp converted "
         "to electricity.",
         "Along the way he explains why the station cat appears in "
         "the official log more often than the district inspector, "
         "and what the ledger's margins reveal about storms the "
         "newspapers never covered."],
    ),
    # 164. court opinion: numbered legal paragraphs are content; the
    # case-tools strip is chrome.
    _page(
        "appellate_opinion",
        f"""<html><body><header><h1>Appellate Reports</h1>{_NAV}</header>
<main><article>
<h1>Meridian Shipping against the Harbor Authority</h1>
<p>1. The appellant challenges the authority's decision to close the
east channel to vessels above forty meters, arguing the closure was
adopted without the public notice the enabling statute requires.</p>
<p>2. We conclude the notice published in the harbor gazette,
although shorter than customary, identified the channel, the class
of vessels affected, and the effective date, and therefore satisfied
the statute's minimum requirements.</p>
<p>3. The judgment of the lower tribunal is affirmed, and each party
shall bear its own costs in this appeal.</p>
</article></main>
<div class="tools"><a href="/pdf">Download opinion</a>
<a href="/cite">How to cite</a></div>
{_FOOTER}</body></html>""",
        ["Meridian Shipping against the Harbor Authority",
         "1. The appellant challenges the authority's decision to "
         "close the east channel to vessels above forty meters, "
         "arguing the closure was adopted without the public notice "
         "the enabling statute requires.",
         "2. We conclude the notice published in the harbor gazette, "
         "although shorter than customary, identified the channel, "
         "the class of vessels affected, and the effective date, and "
         "therefore satisfied the statute's minimum requirements.",
         "3. The judgment of the lower tribunal is affirmed, and each "
         "party shall bear its own costs in this appeal."],
    ),
    # 165. weather forecast: synopsis paragraph + outlook data table
    # are content; the units toggle is chrome.
    _page(
        "weather_forecast",
        f"""<html><body><header><h1>Coastal Weather</h1>{_NAV}</header>
<main><article>
<h1>Forecast for the harbor region</h1>
<p>A slow moving front will keep showers in the area through the
middle of the week, with the strongest winds arriving Tuesday night
as the center passes north of the bay.</p>
<table>
<tr><th>Day of the week</th><th>Expected conditions for the day</th></tr>
<tr><td>Monday</td><td>Morning fog burning off to hazy sunshine with
light southerly winds</td></tr>
<tr><td>Tuesday</td><td>Rain developing by afternoon and becoming
heavy overnight with gusts near gale force</td></tr>
<tr><td>Wednesday</td><td>Clearing slowly from the west with a choppy
leftover swell outside the breakwater</td></tr>
</table>
</article></main>
<div class="units"><a href="/units/c">Celsius</a>
<a href="/units/f">Fahrenheit</a></div>
{_FOOTER}</body></html>""",
        ["Forecast for the harbor region",
         "A slow moving front will keep showers in the area through "
         "the middle of the week, with the strongest winds arriving "
         "Tuesday night as the center passes north of the bay.",
         "Day of the week", "Expected conditions for the day",
         "Monday",
         "Morning fog burning off to hazy sunshine with light "
         "southerly winds",
         "Tuesday",
         "Rain developing by afternoon and becoming heavy overnight "
         "with gusts near gale force",
         "Wednesday",
         "Clearing slowly from the west with a choppy leftover swell "
         "outside the breakwater"],
    ),
    # 166. obituary: biography and service details are content; the
    # condolence widgets are chrome.
    _page(
        "obituary",
        f"""<html><body><header><h1>Town Record</h1>{_NAV}</header>
<main><article>
<h1>Margaret Ellison Hale, master shipwright</h1>
<p>Margaret Ellison Hale, who ran the last wooden boatyard on the
river for four decades and taught two generations of apprentices to
steam oak frames, died Sunday at her home above the yard. She was
ninety one years old.</p>
<p>She is survived by her daughter, three grandchildren, and the
forty seven boats of her design still registered in the harbor, a
fact she recited more readily than any family news.</p>
<p>A memorial gathering will be held at the boatyard loft on
Saturday morning, and the family asks that donations go to the
apprentice tool fund in place of flowers.</p>
</article></main>
<div class="share"><a href="/condolences">Share a memory</a>
<a href="/flowers">Send flowers</a></div>
{_FOOTER}</body></html>""",
        ["Margaret Ellison Hale, master shipwright",
         "Margaret Ellison Hale, who ran the last wooden boatyard on "
         "the river for four decades and taught two generations of "
         "apprentices to steam oak frames, died Sunday at her home "
         "above the yard. She was ninety one years old.",
         "She is survived by her daughter, three grandchildren, and "
         "the forty seven boats of her design still registered in the "
         "harbor, a fact she recited more readily than any family "
         "news.",
         "A memorial gathering will be held at the boatyard loft on "
         "Saturday morning, and the family asks that donations go to "
         "the apprentice tool fund in place of flowers."],
    ),
    # 167. museum exhibit page: description paragraphs + hours table
    # are content; the ticket strip is chrome.
    _page(
        "exhibition_page",
        f"""<html><body><header><h1>Maritime Museum</h1>{_NAV}</header>
<main><article>
<h1>Charts of the unseen coast, a special exhibition</h1>
<p>The exhibition gathers sixty hand drawn charts from the survey of
the outer banks, shown together for the first time since they were
dispersed among private collections a century ago.</p>
<p>Visitors can compare the surveyors' sounding notes with modern
sonar imagery projected on the gallery floor, and a reading corner
holds facsimiles sturdy enough for children to unroll.</p>
<table>
<tr><th>Day of visit</th><th>Gallery opening hours</th></tr>
<tr><td>Weekdays</td><td>Ten in the morning until five in the
afternoon with last entry at four</td></tr>
<tr><td>Weekends</td><td>Nine in the morning until six in the
evening including the reading corner</td></tr>
</table>
</article></main>
<div class="tickets"><a href="/buy">Buy tickets</a>
<a href="/member">Become a member</a></div>
{_FOOTER}</body></html>""",
        ["Charts of the unseen coast, a special exhibition",
         "The exhibition gathers sixty hand drawn charts from the "
         "survey of the outer banks, shown together for the first "
         "time since they were dispersed among private collections a "
         "century ago.",
         "Visitors can compare the surveyors' sounding notes with "
         "modern sonar imagery projected on the gallery floor, and a "
         "reading corner holds facsimiles sturdy enough for children "
         "to unroll.",
         "Day of visit", "Gallery opening hours",
         "Weekdays",
         "Ten in the morning until five in the afternoon with last "
         "entry at four",
         "Weekends",
         "Nine in the morning until six in the evening including the "
         "reading corner"],
    ),
    # 168. scientific abstract landing page: title, author line, and
    # abstract are content; download/cite buttons are chrome.
    _page(
        "paper_abstract",
        f"""<html><body><header><h1>Journal of Coastal Studies</h1>{_NAV}
</header>
<main><article>
<h1>Sediment transport under mixed tidal regimes in shallow
estuaries</h1>
<p>Ruth Calloway of the Estuarine Dynamics Laboratory and Niels
Brandt of the Institute for Coastal Engineering, with field support
from the harbor survey volunteers.</p>
<p>We measured suspended sediment flux at twelve stations across two
tidal cycles and find that flood dominance in the inner channels
reverses under moderate river discharge, implying that dredging
schedules tuned to average conditions underestimate shoaling in wet
years. A simple two parameter correction reproduces the observed
reversal in both survey seasons.</p>
</article></main>
<div class="actions"><a href="/pdf">Download PDF</a>
<a href="/bibtex">Cite this article</a></div>
{_FOOTER}</body></html>""",
        ["Sediment transport under mixed tidal regimes in shallow "
         "estuaries",
         "Ruth Calloway of the Estuarine Dynamics Laboratory and "
         "Niels Brandt of the Institute for Coastal Engineering, with "
         "field support from the harbor survey volunteers.",
         "We measured suspended sediment flux at twelve stations "
         "across two tidal cycles and find that flood dominance in "
         "the inner channels reverses under moderate river discharge, "
         "implying that dredging schedules tuned to average "
         "conditions underestimate shoaling in wet years. A simple "
         "two parameter correction reproduces the observed reversal "
         "in both survey seasons."],
    ),
    # 169. job posting: role description and responsibility list are
    # content; the apply strip is chrome.
    _page(
        "trade_job_listing",
        f"""<html><body><header><h1>Harbor Works Careers</h1>{_NAV}</header>
<main><article>
<h1>Senior rigger for the traditional fleet</h1>
<p>The yard is hiring a senior rigger to maintain standing and
running rigging across a fleet of nine gaff rigged workboats, with
winters spent in the loft splicing and summers afloat on survey and
delivery trips.</p>
<ul>
<li>Inspect and renew standing rigging on a rolling schedule agreed
with the fleet surveyor each winter</li>
<li>Teach the seasonal crew basic splicing, whipping, and the yard's
standards for chafe protection</li>
<li>Keep the rigging log current so the surveyor can trace every
wire and lanyard to its installation date</li>
</ul>
<p>Applicants should have five years of traditional rigging
experience and be comfortable working aloft in a bosun's chair.</p>
</article></main>
<div class="apply"><a href="/apply">Apply now</a>
<a href="/benefits">Benefits</a></div>
{_FOOTER}</body></html>""",
        ["Senior rigger for the traditional fleet",
         "The yard is hiring a senior rigger to maintain standing and "
         "running rigging across a fleet of nine gaff rigged "
         "workboats, with winters spent in the loft splicing and "
         "summers afloat on survey and delivery trips.",
         "Inspect and renew standing rigging on a rolling schedule "
         "agreed with the fleet surveyor each winter",
         "Teach the seasonal crew basic splicing, whipping, and the "
         "yard's standards for chafe protection",
         "Keep the rigging log current so the surveyor can trace "
         "every wire and lanyard to its installation date",
         "Applicants should have five years of traditional rigging "
         "experience and be comfortable working aloft in a bosun's "
         "chair."],
    ),
    # 170. auction lot listing: lot description and provenance are
    # content; the bid box is chrome.
    _page(
        "auction_catalog_lot",
        f"""<html><body><header><h1>Coastal Auctions</h1>{_NAV}</header>
<main><article>
<h1>Lot one twenty, ship portrait of the barque Meridian</h1>
<p>Oil on canvas, signed lower right and dated, showing the barque
under reduced sail off the outer light with the pilot cutter
approaching on the starboard quarter. The original carved frame
carries the builder's yard stamp on the reverse.</p>
<p>Provenance, by descent in the family of the vessel's last master
until the studio sale of nineteen seventy, then a private collection
in the harbor town, and exhibited once at the maritime museum's
centenary show.</p>
</article></main>
<div class="bid"><a href="/bid">Place a bid</a>
<a href="/watch">Watch this lot</a>
<a href="/shipping">Shipping costs</a></div>
{_FOOTER}</body></html>""",
        ["Lot one twenty, ship portrait of the barque Meridian",
         "Oil on canvas, signed lower right and dated, showing the "
         "barque under reduced sail off the outer light with the "
         "pilot cutter approaching on the starboard quarter. The "
         "original carved frame carries the builder's yard stamp on "
         "the reverse.",
         "Provenance, by descent in the family of the vessel's last "
         "master until the studio sale of nineteen seventy, then a "
         "private collection in the harbor town, and exhibited once "
         "at the maritime museum's centenary show."],
    ),
    # 171. hotel listing: description + amenities list are content;
    # the booking widget is chrome.
    _page(
        "hotel_listing",
        f"""<html><body><header><h1>Harbor Stays</h1>{_NAV}</header>
<main><article>
<h1>The Pilot House Inn, waterfront rooms above the chandlery</h1>
<p>Nine rooms in a converted sail loft overlooking the inner harbor,
each named for a vessel built in the yard next door and furnished
with pieces from the old chart room.</p>
<ul>
<li>Breakfast is served in the loft kitchen from seven until the
last guest finishes, with bread from the bakery across the lane</li>
<li>Bicycles and a small dinghy are free to guests who sign the
harbor master's book at the front desk</li>
<li>The corner rooms carry the original winch beams and sleep three
comfortably with a folding berth</li>
</ul>
<p>Check in runs from two in the afternoon, and the night porter
keeps the side door until the last ferry lands.</p>
</article></main>
<div class="booking"><a href="/book">Check availability</a>
<a href="/rates">Rates</a> <a href="/map">Map</a></div>
{_FOOTER}</body></html>""",
        ["The Pilot House Inn, waterfront rooms above the chandlery",
         "Nine rooms in a converted sail loft overlooking the inner "
         "harbor, each named for a vessel built in the yard next door "
         "and furnished with pieces from the old chart room.",
         "Breakfast is served in the loft kitchen from seven until "
         "the last guest finishes, with bread from the bakery across "
         "the lane",
         "Bicycles and a small dinghy are free to guests who sign "
         "the harbor master's book at the front desk",
         "The corner rooms carry the original winch beams and sleep "
         "three comfortably with a folding berth",
         "Check in runs from two in the afternoon, and the night "
         "porter keeps the side door until the last ferry lands."],
    ),
    # 172. medical leaflet: dosage paragraphs + warnings list are
    # content; the pharmacy locator strip is chrome.
    _page(
        "medical_leaflet",
        f"""<html><body><header><h1>Medicines Information</h1>{_NAV}
</header>
<main><article>
<h1>Seasickness tablets, patient information leaflet</h1>
<p>Take one tablet with water half an hour before departure, and a
second tablet after six hours if the crossing continues. Do not take
more than three tablets in any twenty four hour period.</p>
<ul>
<li>Do not drive or operate winches until you know how the tablets
affect you, as drowsiness is common in the first hours</li>
<li>Ask a pharmacist before use if you take medicines for blood
pressure or for an irregular heartbeat</li>
<li>Keep the blister strip in the carton so the expiry date stays
with the tablets in a shared first aid kit</li>
</ul>
<p>Side effects are usually mild and pass within a day. Stop taking
the tablets and seek advice if a rash or blurred vision develops.</p>
</article></main>
<div class="locator"><a href="/find">Find a pharmacy</a>
<a href="/report">Report a side effect</a></div>
{_FOOTER}</body></html>""",
        ["Seasickness tablets, patient information leaflet",
         "Take one tablet with water half an hour before departure, "
         "and a second tablet after six hours if the crossing "
         "continues. Do not take more than three tablets in any "
         "twenty four hour period.",
         "Do not drive or operate winches until you know how the "
         "tablets affect you, as drowsiness is common in the first "
         "hours",
         "Ask a pharmacist before use if you take medicines for "
         "blood pressure or for an irregular heartbeat",
         "Keep the blister strip in the carton so the expiry date "
         "stays with the tablets in a shared first aid kit",
         "Side effects are usually mild and pass within a day. Stop "
         "taking the tablets and seek advice if a rash or blurred "
         "vision develops."],
    ),
    # 173. patent page: abstract + numbered claims are content; the
    # espacenet-style tool strip is chrome.
    _page(
        "patent_claims",
        f"""<html><body><header><h1>Patent Register</h1>{_NAV}</header>
<main><article>
<h1>Self tailing winch with a replaceable gripper ring</h1>
<p>Abstract. A sailing winch in which the self tailing jaws carry a
removable elastomer ring, so that wear from modern braided lines can
be corrected by replacing the ring rather than machining the jaw
faces, extending the service life of the winch body.</p>
<p>Claim 1. A winch comprising a drum, a pair of tailing jaws, and a
gripper ring seated in a circumferential groove of at least one jaw,
wherein the ring is retained by the groove without adhesive and is
removable by hand after the jaw cap is lifted.</p>
<p>Claim 2. The winch of claim 1, wherein the ring carries radial
ribs whose spacing matches the lay of a braided line of between
eight and fourteen millimeters diameter.</p>
</article></main>
<div class="tools"><a href="/pdf">Original document</a>
<a href="/family">Patent family</a> <a href="/legal">Legal status</a></div>
{_FOOTER}</body></html>""",
        ["Self tailing winch with a replaceable gripper ring",
         "Abstract. A sailing winch in which the self tailing jaws "
         "carry a removable elastomer ring, so that wear from modern "
         "braided lines can be corrected by replacing the ring rather "
         "than machining the jaw faces, extending the service life of "
         "the winch body.",
         "Claim 1. A winch comprising a drum, a pair of tailing jaws, "
         "and a gripper ring seated in a circumferential groove of at "
         "least one jaw, wherein the ring is retained by the groove "
         "without adhesive and is removable by hand after the jaw cap "
         "is lifted.",
         "Claim 2. The winch of claim 1, wherein the ring carries "
         "radial ribs whose spacing matches the lay of a braided line "
         "of between eight and fourteen millimeters diameter."],
    ),
    # 174. security advisory: summary + mitigation list are content;
    # the severity badge strip is chrome.
    _page(
        "security_advisory",
        f"""<html><body><header><h1>Security Advisories</h1>{_NAV}</header>
<main><article>
<h1>Advisory, authentication bypass in the harbor booking portal</h1>
<p>A crafted session cookie allows a visitor to view another
account's mooring reservations. The flaw affects portal releases
from the spring update onward and was reported through the
coordinated disclosure program.</p>
<ul>
<li>Upgrade to the patched release published this morning, which
rejects cookies whose signature scope does not match the account</li>
<li>Until the upgrade is applied, disable the remember me option so
sessions expire when the browser closes</li>
<li>Review the access log for reservation views from unfamiliar
addresses and rotate credentials where they appear</li>
</ul>
<p>No payment data is exposed by this flaw, as card handling runs on
a separate service with its own session scheme.</p>
</article></main>
<div class="badges"><a href="/cvss">Severity details</a>
<a href="/feed">Advisory feed</a></div>
{_FOOTER}</body></html>""",
        ["Advisory, authentication bypass in the harbor booking "
         "portal",
         "A crafted session cookie allows a visitor to view another "
         "account's mooring reservations. The flaw affects portal "
         "releases from the spring update onward and was reported "
         "through the coordinated disclosure program.",
         "Upgrade to the patched release published this morning, "
         "which rejects cookies whose signature scope does not match "
         "the account",
         "Until the upgrade is applied, disable the remember me "
         "option so sessions expire when the browser closes",
         "Review the access log for reservation views from "
         "unfamiliar addresses and rotate credentials where they "
         "appear",
         "No payment data is exposed by this flaw, as card handling "
         "runs on a separate service with its own session scheme."],
    ),
    # 175. bug tracker issue: report body + reproduction list and a
    # maintainer reply are content; label/assignee widgets are chrome.
    _page(
        "bug_tracker_issue",
        f"""<html><body><header><h1>Issue Tracker</h1>{_NAV}</header>
<main><article>
<h1>Tide widget shows yesterday's curve after midnight</h1>
<p>When the page stays open across midnight, the tide curve keeps
drawing yesterday's data until a manual refresh, so the morning high
water appears six hours off for early readers.</p>
<ul>
<li>Open the harbor page in the evening and leave the tab in the
background overnight without reloading</li>
<li>Check the curve after midnight and compare it against the
printed almanac for the new day</li>
<li>The date label under the curve still shows the previous day,
which confirms the stale dataset rather than a drawing bug</li>
</ul>
<p>Maintainer reply. Confirmed, the refresh timer is cleared when
the tab loses focus and never rescheduled. A fix that reschedules on
the visibility event is in review and will ship with the next weekly
build.</p>
</article></main>
<div class="meta"><a href="/labels/bug">bug</a>
<a href="/milestone/weekly">weekly</a> <a href="/assign">Assign</a></div>
{_FOOTER}</body></html>""",
        ["Tide widget shows yesterday's curve after midnight",
         "When the page stays open across midnight, the tide curve "
         "keeps drawing yesterday's data until a manual refresh, so "
         "the morning high water appears six hours off for early "
         "readers.",
         "Open the harbor page in the evening and leave the tab in "
         "the background overnight without reloading",
         "Check the curve after midnight and compare it against the "
         "printed almanac for the new day",
         "The date label under the curve still shows the previous "
         "day, which confirms the stale dataset rather than a drawing "
         "bug",
         "Maintainer reply. Confirmed, the refresh timer is cleared "
         "when the tab loses focus and never rescheduled. A fix that "
         "reschedules on the visibility event is in review and will "
         "ship with the next weekly build."],
    ),
    # 176. product comparison: intro + comparison table with wordy
    # cells are content; the buy buttons are chrome.
    _page(
        "product_comparison",
        f"""<html><body><header><h1>Gear Reviews</h1>{_NAV}</header>
<main><article>
<h1>Two anchor windlasses compared after a season of use</h1>
<p>We fitted the two most requested vertical windlasses to sister
ships and logged every retrieval for a season, from weed filled
harbors to the deep anchorage behind the island.</p>
<table>
<tr><th>What we measured</th><th>Coastal Lifter result</th>
<th>Deep Haul result</th></tr>
<tr><td>Retrieval of forty meters of chain</td>
<td>Just under two minutes with no stalls in ordinary mud</td>
<td>Two and a half minutes but untroubled by the weed mat</td></tr>
<tr><td>Noise measured at the forward berth</td>
<td>Noticeably quiet, conversation continued at the bow</td>
<td>A deep growl that woke the off watch every time</td></tr>
</table>
<p>Either unit will serve a cruising boat well, but the quieter
motor earns the smaller foredeck locker it demands.</p>
</article></main>
<div class="buy"><a href="/buy/cl">Buy Coastal Lifter</a>
<a href="/buy/dh">Buy Deep Haul</a></div>
{_FOOTER}</body></html>""",
        ["Two anchor windlasses compared after a season of use",
         "We fitted the two most requested vertical windlasses to "
         "sister ships and logged every retrieval for a season, from "
         "weed filled harbors to the deep anchorage behind the "
         "island.",
         "What we measured", "Coastal Lifter result",
         "Deep Haul result",
         "Retrieval of forty meters of chain",
         "Just under two minutes with no stalls in ordinary mud",
         "Two and a half minutes but untroubled by the weed mat",
         "Noise measured at the forward berth",
         "Noticeably quiet, conversation continued at the bow",
         "A deep growl that woke the off watch every time",
         "Either unit will serve a cruising boat well, but the "
         "quieter motor earns the smaller foredeck locker it "
         "demands."],
    ),
    # 177. gardening guide: month-by-month advice paragraphs are
    # content; the zone selector is chrome.
    _page(
        "garden_guide",
        f"""<html><body><header><h1>Coastal Gardens</h1>{_NAV}</header>
<main><article>
<h1>Planting the salt wind border, month by month</h1>
<p>March. Set out the sea thrift and the dwarf pines while the
ground is still cool, and stake anything taller than a bucket
against the equinox gales that funnel up the estuary.</p>
<p>May. Sow the annual poppies directly where they are to flower,
thinning to a hand's width once the first true leaves show, and
start feeding the fig against the south wall every other week.</p>
<p>September. Lift and divide the crocosmia before the rains, and
take cuttings of the fuchsia hedge to overwinter on the porch, as
one year in three the salt burn takes the outer meter of growth.</p>
</article></main>
<div class="zones"><a href="/zone/9">Zone nine</a>
<a href="/zone/10">Zone ten</a></div>
{_FOOTER}</body></html>""",
        ["Planting the salt wind border, month by month",
         "March. Set out the sea thrift and the dwarf pines while "
         "the ground is still cool, and stake anything taller than a "
         "bucket against the equinox gales that funnel up the "
         "estuary.",
         "May. Sow the annual poppies directly where they are to "
         "flower, thinning to a hand's width once the first true "
         "leaves show, and start feeding the fig against the south "
         "wall every other week.",
         "September. Lift and divide the crocosmia before the rains, "
         "and take cuttings of the fuchsia hedge to overwinter on "
         "the porch, as one year in three the salt burn takes the "
         "outer meter of growth."],
    ),
    # 178. language lesson: dialogue paragraphs + vocabulary table
    # are content; the audio controls are chrome.
    _page(
        "language_lesson",
        f"""<html><body><header><h1>Learn Harbor French</h1>{_NAV}</header>
<main><article>
<h1>Lesson four, asking for a berth at the capitainerie</h1>
<p>In this dialogue a visiting skipper radios the harbor office on
channel nine and asks for a visitor berth for two nights, giving the
boat's length and draft when the officer asks.</p>
<table>
<tr><th>French phrase from the dialogue</th>
<th>English meaning in context</th></tr>
<tr><td>Avez vous une place visiteur pour deux nuits</td>
<td>Do you have a visitor berth for two nights</td></tr>
<tr><td>Quel est votre tirant d'eau</td>
<td>What is your draft below the waterline</td></tr>
</table>
<p>Practice note. The officer will usually answer faster than the
recording, so learners should repeat the dialogue until the numbers
come without counting on fingers.</p>
</article></main>
<div class="audio"><a href="/play">Play dialogue</a>
<a href="/slow">Play slowly</a></div>
{_FOOTER}</body></html>""",
        ["Lesson four, asking for a berth at the capitainerie",
         "In this dialogue a visiting skipper radios the harbor "
         "office on channel nine and asks for a visitor berth for "
         "two nights, giving the boat's length and draft when the "
         "officer asks.",
         "French phrase from the dialogue",
         "English meaning in context",
         "Avez vous une place visiteur pour deux nuits",
         "Do you have a visitor berth for two nights",
         "Quel est votre tirant d'eau",
         "What is your draft below the waterline",
         "Practice note. The officer will usually answer faster than "
         "the recording, so learners should repeat the dialogue until "
         "the numbers come without counting on fingers."],
    ),
    # 179. grant announcement: award paragraphs are content; the
    # application portal strip is chrome.
    _page(
        "grant_announcement",
        f"""<html><body><header><h1>Harbor Foundation</h1>{_NAV}</header>
<main><article>
<h1>Small grants awarded for waterfront restoration</h1>
<p>The foundation has awarded twelve small grants this cycle, with
the largest going to the rowing club for the rebuild of its launch
float, carried away in the winter storms.</p>
<p>Two grants support training, paying the certification fees of
volunteer skippers who take school groups out on the water, and a
third funds the oral history project recording the last generation
of fish buyers.</p>
<p>The next application window opens in the autumn, and the trustees
encourage first time applicants to attend the drop in session at the
library before writing.</p>
</article></main>
<div class="portal"><a href="/apply">Application portal</a>
<a href="/criteria">Criteria</a></div>
{_FOOTER}</body></html>""",
        ["Small grants awarded for waterfront restoration",
         "The foundation has awarded twelve small grants this cycle, "
         "with the largest going to the rowing club for the rebuild "
         "of its launch float, carried away in the winter storms.",
         "Two grants support training, paying the certification fees "
         "of volunteer skippers who take school groups out on the "
         "water, and a third funds the oral history project recording "
         "the last generation of fish buyers.",
         "The next application window opens in the autumn, and the "
         "trustees encourage first time applicants to attend the drop "
         "in session at the library before writing."],
    ),
    # 180. exhibition catalogue essay with footnote-style asides kept
    # inline; the purchase strip is chrome.
    _page(
        "catalogue_essay",
        f"""<html><body><header><h1>Gallery Catalogue</h1>{_NAV}</header>
<main><article>
<h1>Painting the working harbor, an essay from the catalogue</h1>
<p>The painters who set up their easels on the coal quay were not
romantics. Their letters complain about the dust, the noise, and the
foreman who moved them on, and their canvases show cranes where a
softer school would have put clouds.</p>
<p>What survives in these pictures is schedule rather than weather,
the tide tables legible in the water line on the pilings, and it is
this exactness that makes the series valuable to historians of the
port as well as to collectors.</p>
</article></main>
<div class="purchase"><a href="/shop">Buy the catalogue</a>
<a href="/prints">Order prints</a></div>
{_FOOTER}</body></html>""",
        ["Painting the working harbor, an essay from the catalogue",
         "The painters who set up their easels on the coal quay were "
         "not romantics. Their letters complain about the dust, the "
         "noise, and the foreman who moved them on, and their "
         "canvases show cranes where a softer school would have put "
         "clouds.",
         "What survives in these pictures is schedule rather than "
         "weather, the tide tables legible in the water line on the "
         "pilings, and it is this exactness that makes the series "
         "valuable to historians of the port as well as to "
         "collectors."],
    ),
    # 181. sports league standings with explanatory paragraph; the
    # round selector is chrome.
    _page(
        "league_standings",
        f"""<html><body><header><h1>Sailing League</h1>{_NAV}</header>
<main><article>
<h1>Standings after the fifth round of the harbor series</h1>
<p>Light air in the fifth round compressed the fleet, and the two
leading boats now carry equal points into the final weekend, with
the tie to be broken by their head to head results.</p>
<table>
<tr><th>Boat and skipper</th><th>Points after five rounds</th></tr>
<tr><td>Meridian, sailed by the yard crew</td>
<td>Eleven points after discarding the third race</td></tr>
<tr><td>Petrel, the sailing school entry</td>
<td>Eleven points with no discard used yet</td></tr>
<tr><td>Cormorant, last year's champions</td>
<td>Fifteen points after a gear failure in round two</td></tr>
</table>
</article></main>
<div class="rounds"><a href="/r4">Round four</a>
<a href="/r5">Round five</a></div>
{_FOOTER}</body></html>""",
        ["Standings after the fifth round of the harbor series",
         "Light air in the fifth round compressed the fleet, and the "
         "two leading boats now carry equal points into the final "
         "weekend, with the tie to be broken by their head to head "
         "results.",
         "Boat and skipper", "Points after five rounds",
         "Meridian, sailed by the yard crew",
         "Eleven points after discarding the third race",
         "Petrel, the sailing school entry",
         "Eleven points with no discard used yet",
         "Cormorant, last year's champions",
         "Fifteen points after a gear failure in round two"],
    ),
    # 182. building permit decision: determination paragraphs are
    # content; the appeals strip is chrome.
    _page(
        "permit_decision",
        f"""<html><body><header><h1>Planning Portal</h1>{_NAV}</header>
<main><article>
<h1>Decision notice, boathouse extension at the south slip</h1>
<p>Permission is granted for the single story extension to the
boathouse, subject to the roofline remaining below the harbor wall
parapet and the cladding matching the tarred boards of the existing
building.</p>
<p>The committee noted the objection concerning loss of the slipway
view and concluded that the revised plans, which pulled the seaward
wall back two meters, answer it adequately.</p>
<p>Work must begin within three years of this notice, and the
conditions attached to drainage must be discharged before the floor
slab is poured.</p>
</article></main>
<div class="appeals"><a href="/appeal">How to appeal</a>
<a href="/docs">Application documents</a></div>
{_FOOTER}</body></html>""",
        ["Decision notice, boathouse extension at the south slip",
         "Permission is granted for the single story extension to "
         "the boathouse, subject to the roofline remaining below the "
         "harbor wall parapet and the cladding matching the tarred "
         "boards of the existing building.",
         "The committee noted the objection concerning loss of the "
         "slipway view and concluded that the revised plans, which "
         "pulled the seaward wall back two meters, answer it "
         "adequately.",
         "Work must begin within three years of this notice, and the "
         "conditions attached to drainage must be discharged before "
         "the floor slab is poured."],
    ),
    # 183. scholarship listing: award description + eligibility list
    # are content; the deadline countdown is chrome.
    _page(
        "scholarship_listing",
        f"""<html><body><header><h1>Maritime College</h1>{_NAV}</header>
<main><article>
<h1>The pilot's daughter scholarship for navigation students</h1>
<p>Endowed by the family of the port's first woman pilot, the award
covers tuition and sea time fees for one student each year who
intends to sit the coastal skipper examinations.</p>
<ul>
<li>Applicants must have completed the first year navigation course
with a pass in chartwork and tides</li>
<li>Preference is given to candidates who crew on the sail training
vessel or volunteer with the sea cadets</li>
<li>The award may be held alongside other bursaries provided total
support does not exceed full fees</li>
</ul>
<p>Applications close at the end of the spring term and interviews
are held aboard the training vessel during the first fine week.</p>
</article></main>
<div class="deadline"><a href="/apply">Apply now</a>
<a href="/past">Past recipients</a></div>
{_FOOTER}</body></html>""",
        ["The pilot's daughter scholarship for navigation students",
         "Endowed by the family of the port's first woman pilot, the "
         "award covers tuition and sea time fees for one student each "
         "year who intends to sit the coastal skipper examinations.",
         "Applicants must have completed the first year navigation "
         "course with a pass in chartwork and tides",
         "Preference is given to candidates who crew on the sail "
         "training vessel or volunteer with the sea cadets",
         "The award may be held alongside other bursaries provided "
         "total support does not exceed full fees",
         "Applications close at the end of the spring term and "
         "interviews are held aboard the training vessel during the "
         "first fine week."],
    ),
    # 184. repair shop estimate explainer: process paragraphs are
    # content; the booking widget is chrome.
    _page(
        "repair_estimate_guide",
        f"""<html><body><header><h1>Engine Works</h1>{_NAV}</header>
<main><article>
<h1>How we price a winter engine overhaul</h1>
<p>Every overhaul starts with a compression test and an oil analysis,
and the estimate you receive is built from those numbers rather than
from the engine's age, because a well run old engine often measures
better than a neglected young one.</p>
<p>The written estimate separates parts, labor, and yard services,
and any item that inspection later shows to be unnecessary is struck
from the invoice, never silently replaced with something else.</p>
<p>If opening the engine reveals work beyond the estimate, we stop
and call before proceeding, with photographs of what we found sent
the same day.</p>
</article></main>
<div class="booking"><a href="/book">Book a survey</a>
<a href="/rates">Hourly rates</a></div>
{_FOOTER}</body></html>""",
        ["How we price a winter engine overhaul",
         "Every overhaul starts with a compression test and an oil "
         "analysis, and the estimate you receive is built from those "
         "numbers rather than from the engine's age, because a well "
         "run old engine often measures better than a neglected young "
         "one.",
         "The written estimate separates parts, labor, and yard "
         "services, and any item that inspection later shows to be "
         "unnecessary is struck from the invoice, never silently "
         "replaced with something else.",
         "If opening the engine reveals work beyond the estimate, we "
         "stop and call before proceeding, with photographs of what "
         "we found sent the same day."],
    ),
    # 185. nature observation log: dated sighting paragraphs are
    # content; the submission form link strip is chrome.
    _page(
        "nature_log",
        f"""<html><body><header><h1>Estuary Watch</h1>{_NAV}</header>
<main><article>
<h1>Observation log for the outer estuary, early spring</h1>
<p>Second of March. The first sandwich terns of the year fishing off
the spit by mid morning, nine birds counted, and the wintering
brent geese still present in the eelgrass bay.</p>
<p>Eleventh of March. A porpoise with a calf worked the tide line
off the bar for most of the ebb, the first calf recorded here since
the survey began.</p>
<p>Twenty ninth of March. Wheatears on the shingle ridge and the
geese gone overnight, the bay suddenly quiet ahead of the first
spring sailing races.</p>
</article></main>
<div class="submit"><a href="/report">Report a sighting</a>
<a href="/species">Species list</a></div>
{_FOOTER}</body></html>""",
        ["Observation log for the outer estuary, early spring",
         "Second of March. The first sandwich terns of the year "
         "fishing off the spit by mid morning, nine birds counted, "
         "and the wintering brent geese still present in the eelgrass "
         "bay.",
         "Eleventh of March. A porpoise with a calf worked the tide "
         "line off the bar for most of the ebb, the first calf "
         "recorded here since the survey began.",
         "Twenty ninth of March. Wheatears on the shingle ridge and "
         "the geese gone overnight, the bay suddenly quiet ahead of "
         "the first spring sailing races."],
    ),
    # 186. community notice board with several short notices: each
    # notice paragraph is content; the posting rules strip is chrome.
    _page(
        "notice_board",
        f"""<html><body><header><h1>Village Notice Board</h1>{_NAV}</header>
<main><article>
<h1>Notices for the week beginning Monday</h1>
<p>The ferry will run a reduced timetable on Thursday while the
linkspan is greased, with the first and last sailings unchanged and
the midday rotation suspended.</p>
<p>A set of oars marked with red whipping was left on the town
pontoon after the regatta, and can be claimed from the harbor office
during opening hours.</p>
<p>The shanty choir resumes Tuesday rehearsals in the sail loft and
welcomes new singers, particularly anyone who can hold the low line
in the rounds.</p>
</article></main>
<div class="rules"><a href="/post">Post a notice</a>
<a href="/rules">Posting rules</a></div>
{_FOOTER}</body></html>""",
        ["Notices for the week beginning Monday",
         "The ferry will run a reduced timetable on Thursday while "
         "the linkspan is greased, with the first and last sailings "
         "unchanged and the midday rotation suspended.",
         "A set of oars marked with red whipping was left on the town "
         "pontoon after the regatta, and can be claimed from the "
         "harbor office during opening hours.",
         "The shanty choir resumes Tuesday rehearsals in the sail "
         "loft and welcomes new singers, particularly anyone who can "
         "hold the low line in the rounds."],
    ),
    # 187. about-us mission page: mission paragraphs are content; the
    # careers/press strip is chrome.
    _page(
        "about_us_mission",
        f"""<html><body><header><h1>Harbor Supply Co</h1>{_NAV}</header>
<main><article>
<h1>About the company, a chandlery with a workshop at its heart</h1>
<p>The shop began as a rigger's bench at the back of the fish market,
and everything we sell still has to pass the bench test: if the
workshop will not use it on a customer's boat, it does not go on the
shelf.</p>
<p>We keep the old skills paid for by the new trade, so the profit
on electronics underwrites the splicing apprentices, and every sale
of a chart plotter keeps a palm and needle in somebody's hand.</p>
</article></main>
<div class="corp"><a href="/careers">Careers</a>
<a href="/press">Press kit</a> <a href="/wholesale">Wholesale</a></div>
{_FOOTER}</body></html>""",
        ["About the company, a chandlery with a workshop at its heart",
         "The shop began as a rigger's bench at the back of the fish "
         "market, and everything we sell still has to pass the bench "
         "test: if the workshop will not use it on a customer's boat, "
         "it does not go on the shelf.",
         "We keep the old skills paid for by the new trade, so the "
         "profit on electronics underwrites the splicing apprentices, "
         "and every sale of a chart plotter keeps a palm and needle "
         "in somebody's hand."],
    ),
    # 188. fishing report: dated condition paragraphs are content;
    # the license-sales strip is chrome.
    _page(
        "fishing_report",
        f"""<html><body><header><h1>Estuary Angling</h1>{_NAV}</header>
<main><article>
<h1>Weekly fishing report for the estuary marks</h1>
<p>The flood tide fished best at the rail bridge this week, with
school bass to two pounds taking small soft plastics in the last
hour before high water, and nothing at all showing on the ebb.</p>
<p>Out on the bar the smoothhound packs have arrived early, and crab
baits fished at range picked up fish to seven pounds on the evening
tides, though weed made the last hour hard work.</p>
<p>The harbor wall remains slow for everything except mullet, which
are shoaling thickly around the fish quay outfall and ignoring
every bait thrown at them, as usual.</p>
</article></main>
<div class="sales"><a href="/license">Buy a license</a>
<a href="/marks">Map of marks</a></div>
{_FOOTER}</body></html>""",
        ["Weekly fishing report for the estuary marks",
         "The flood tide fished best at the rail bridge this week, "
         "with school bass to two pounds taking small soft plastics "
         "in the last hour before high water, and nothing at all "
         "showing on the ebb.",
         "Out on the bar the smoothhound packs have arrived early, "
         "and crab baits fished at range picked up fish to seven "
         "pounds on the evening tides, though weed made the last hour "
         "hard work.",
         "The harbor wall remains slow for everything except mullet, "
         "which are shoaling thickly around the fish quay outfall and "
         "ignoring every bait thrown at them, as usual."],
    ),
    # 189. book review: review paragraphs + verdict are content; the
    # buy links are chrome.
    _page(
        "book_review",
        f"""<html><body><header><h1>Coastal Review of Books</h1>{_NAV}
</header>
<main><article>
<h1>Review, The Last Sail Loft by the harbor's own historian</h1>
<p>The book's best chapters follow a single mainsail through the
loft, from the bolt of cloth to the bend of the yard, and the author
resists the temptation to mourn: the loft closes, but the skills
scatter into yards that still use them.</p>
<p>Less successful is the closing argument about heritage funding,
which reads like the grant application it probably once was, and
sits awkwardly against the plain carpentry of the earlier prose.</p>
<p>Verdict: worth the cover price for the mainsail chapters alone,
and the photographs, many never printed before, earn the hardback
edition.</p>
</article></main>
<div class="buy"><a href="/shop">Buy from the museum shop</a>
<a href="/library">Reserve at the library</a></div>
{_FOOTER}</body></html>""",
        ["Review, The Last Sail Loft by the harbor's own historian",
         "The book's best chapters follow a single mainsail through "
         "the loft, from the bolt of cloth to the bend of the yard, "
         "and the author resists the temptation to mourn: the loft "
         "closes, but the skills scatter into yards that still use "
         "them.",
         "Less successful is the closing argument about heritage "
         "funding, which reads like the grant application it probably "
         "once was, and sits awkwardly against the plain carpentry of "
         "the earlier prose.",
         "Verdict: worth the cover price for the mainsail chapters "
         "alone, and the photographs, many never printed before, earn "
         "the hardback edition."],
    ),
    # 190. radio schedule: program table with wordy cells is content;
    # the listen-live strip is chrome.
    _page(
        "radio_schedule",
        f"""<html><body><header><h1>Harbor Radio</h1>{_NAV}</header>
<main><article>
<h1>Saturday schedule on the harbor frequency</h1>
<p>Weekend programming leans maritime, and the shipping forecast
repeats after every news summary for crews without long wave.</p>
<table>
<tr><th>Broadcast slot</th><th>Program and presenter</th></tr>
<tr><td>Six until nine in the morning</td>
<td>Dawn watch with the fish market prices read live from the
auction floor</td></tr>
<tr><td>Nine until noon</td>
<td>Request show for the ferry crews and the lighthouse relief</td></tr>
<tr><td>Noon until three</td>
<td>The long interview, this week with the retiring pilot</td></tr>
</table>
</article></main>
<div class="listen"><a href="/live">Listen live</a>
<a href="/podcasts">Podcasts</a></div>
{_FOOTER}</body></html>""",
        ["Saturday schedule on the harbor frequency",
         "Weekend programming leans maritime, and the shipping "
         "forecast repeats after every news summary for crews without "
         "long wave.",
         "Broadcast slot", "Program and presenter",
         "Six until nine in the morning",
         "Dawn watch with the fish market prices read live from the "
         "auction floor",
         "Nine until noon",
         "Request show for the ferry crews and the lighthouse relief",
         "Noon until three",
         "The long interview, this week with the retiring pilot"],
    ),
    # 191. marina rules: numbered rules list is content; the berth
    # application strip is chrome.
    _page(
        "marina_rules",
        f"""<html><body><header><h1>Marina Office</h1>{_NAV}</header>
<main><article>
<h1>Rules for berth holders, summer season</h1>
<ul>
<li>Rule one. Speed within the marina is dead slow, and a wake that
rocks the finger pontoons is by definition too fast whatever the
log reads</li>
<li>Rule two. Halyards must be frapped away from masts by the
evening of arrival, and the office will frap a ringing halyard
after one warning at the owner's cost</li>
<li>Rule three. Shore power leads must carry a current rating tag,
and daisy chained extensions will be unplugged without notice</li>
<li>Rule four. The fuel berth is for fueling only, and waiting for
crew, ice, or the tide on it forfeits a week of visitor
privileges</li>
</ul>
<p>The full bylaws are posted in the office window, and the rules
above are the four the staff spend their summers repeating.</p>
</article></main>
<div class="berths"><a href="/apply">Apply for a berth</a>
<a href="/waitlist">Waiting list</a></div>
{_FOOTER}</body></html>""",
        ["Rules for berth holders, summer season",
         "Rule one. Speed within the marina is dead slow, and a wake "
         "that rocks the finger pontoons is by definition too fast "
         "whatever the log reads",
         "Rule two. Halyards must be frapped away from masts by the "
         "evening of arrival, and the office will frap a ringing "
         "halyard after one warning at the owner's cost",
         "Rule three. Shore power leads must carry a current rating "
         "tag, and daisy chained extensions will be unplugged without "
         "notice",
         "Rule four. The fuel berth is for fueling only, and waiting "
         "for crew, ice, or the tide on it forfeits a week of visitor "
         "privileges",
         "The full bylaws are posted in the office window, and the "
         "rules above are the four the staff spend their summers "
         "repeating."],
    ),
    # 192. sermon text: homily paragraphs are content; the service
    # times strip is chrome.
    _page(
        "sermon_text",
        f"""<html><body><header><h1>Seamen's Chapel</h1>{_NAV}</header>
<main><article>
<h1>Sunday homily, on patience and the foul tide</h1>
<p>Every sailor in this chapel has spent an hour stemming a foul
tide, making no ground over the land while the water ran fast under
the keel, and every sailor knows the temptation of that hour, which
is to put the helm over and run back the easy way.</p>
<p>Patience is not the absence of effort but the holding of a
course, and the tide that sets against us this year will turn, as
tides do, by no effort of ours except that we are still there,
still under way, when it turns.</p>
</article></main>
<div class="services"><a href="/times">Service times</a>
<a href="/mission">Seafarers' mission</a></div>
{_FOOTER}</body></html>""",
        ["Sunday homily, on patience and the foul tide",
         "Every sailor in this chapel has spent an hour stemming a "
         "foul tide, making no ground over the land while the water "
         "ran fast under the keel, and every sailor knows the "
         "temptation of that hour, which is to put the helm over and "
         "run back the easy way.",
         "Patience is not the absence of effort but the holding of a "
         "course, and the tide that sets against us this year will "
         "turn, as tides do, by no effort of ours except that we are "
         "still there, still under way, when it turns."],
    ),
    # 193. auction results: sold-lot table with wordy cells is
    # content; the next-sale strip is chrome.
    _page(
        "auction_results",
        f"""<html><body><header><h1>Coastal Auctions</h1>{_NAV}</header>
<main><article>
<h1>Results of the spring marine sale</h1>
<p>The spring sale totalled strongly against estimate, with the
ship portraits leading as usual and the navigation instruments
finding new buyers from outside the trade.</p>
<table>
<tr><th>Lot sold</th><th>Result against estimate</th></tr>
<tr><td>Portrait of the barque Meridian</td>
<td>Sold at nearly twice the high estimate after a telephone
battle</td></tr>
<tr><td>Brass station pointer in fitted case</td>
<td>Sold within estimate to a collector of survey instruments</td></tr>
<tr><td>Archive of pilotage certificates</td>
<td>Passed unsold and returned to the vendor's family</td></tr>
</table>
</article></main>
<div class="next"><a href="/consign">Consign for autumn</a>
<a href="/catalogue">Autumn catalogue</a></div>
{_FOOTER}</body></html>""",
        ["Results of the spring marine sale",
         "The spring sale totalled strongly against estimate, with "
         "the ship portraits leading as usual and the navigation "
         "instruments finding new buyers from outside the trade.",
         "Lot sold", "Result against estimate",
         "Portrait of the barque Meridian",
         "Sold at nearly twice the high estimate after a telephone "
         "battle",
         "Brass station pointer in fitted case",
         "Sold within estimate to a collector of survey instruments",
         "Archive of pilotage certificates",
         "Passed unsold and returned to the vendor's family"],
    ),
    # 194. science-fair abstracts page: multiple short project
    # abstracts under h2 headings are content; the judging strip is
    # chrome.
    _page(
        "science_fair_abstracts",
        f"""<html><body><header><h1>School Science Fair</h1>{_NAV}</header>
<main><article>
<h1>Project abstracts, senior division</h1>
<h2>Does the harbor breathe, measuring dissolved oxygen over a tide</h2>
<p>We logged dissolved oxygen at the pontoon every twenty minutes
for a week and found a daily cycle that follows the tide more
closely than the sun, suggesting the mudflats drive the harbor's
oxygen budget.</p>
<h2>Rust racing, which sacrificial anode lasts longest</h2>
<p>Five anode alloys spent the winter bolted to the same steel
plate under the fish quay, and the cheapest zinc lost the least
mass, which was not what the chandlery catalog predicted.</p>
</article></main>
<div class="judging"><a href="/rubric">Judging rubric</a>
<a href="/winners">Past winners</a></div>
{_FOOTER}</body></html>""",
        ["Project abstracts, senior division",
         "Does the harbor breathe, measuring dissolved oxygen over a "
         "tide",
         "We logged dissolved oxygen at the pontoon every twenty "
         "minutes for a week and found a daily cycle that follows the "
         "tide more closely than the sun, suggesting the mudflats "
         "drive the harbor's oxygen budget.",
         "Rust racing, which sacrificial anode lasts longest",
         "Five anode alloys spent the winter bolted to the same steel "
         "plate under the fish quay, and the cheapest zinc lost the "
         "least mass, which was not what the chandlery catalog "
         "predicted."],
    ),
]


def fixture_pages_table() -> pa.Table:
    """The fixture corpus as a pages-shaped Arrow table (no candidate
    ``text`` column — the vote runs on the threshold variants only)."""
    return pa.table(
        {
            "url": pa.array(
                [f"fixture://{f['name']}" for f in FIXTURES], pa.string()
            ),
            "html": pa.array(
                [f["html"].encode("utf-8") for f in FIXTURES], pa.binary()
            ),
            "lang": pa.array([f.get("lang", "en") for f in FIXTURES],
                             pa.string()),
        }
    )


def extract_golden_real(sf_dir: str) -> pa.Table:
    """queries() entry (full DuckDB oracle since round 5): run the
    fixture corpus through the REAL distributed pipeline and emit each
    fixture's extracted-text md5 — ``golden_real_sql()`` inlines the
    md5s of the FROZEN hand labels as a VALUES list (the corpus is
    repo-constant, so the SQL is corpus-independent; the
    ``lang_id_sql`` inlined-constants idiom), putting the flagship
    extractor itself under the driver's rows+schema+hash check.

    ``sf_dir`` is unused (the corpus is in-repo by design — these pages
    exist precisely because no driver table has realistic markup); the
    signature matches the driver contract."""
    import hashlib

    import ray.data as rd

    from nidaba_ray.pipelines.extract import extract_pipeline

    pages = rd.from_arrow(fixture_pages_table())
    out = extract_pipeline(pages).to_pandas()
    out = out.sort_values("url").reset_index(drop=True)
    return pa.table(
        {
            "name": pa.array(
                [u.split("://", 1)[1] for u in out["url"]], pa.string()
            ),
            "text_md5": pa.array(
                [hashlib.md5(t.encode("utf-8")).hexdigest()
                 for t in out["text"]],
                pa.string(),
            ),
            "n_chars": pa.array([len(t) for t in out["text"]], pa.int64()),
        }
    )


def golden_real_sql() -> str:
    """Driver oracle for :func:`extract_golden_real`: every frozen
    hand labels, reduced to (name, md5, n_chars) VALUES — built from
    the SAME ``FIXTURES`` constants the pipeline is checked against,
    so the two sides cannot drift (and any extractor change that flips
    a label now fails the driver's hash check, not just pytest)."""
    import hashlib

    vals = ", ".join(
        "('{}', '{}', {})".format(
            f["name"],
            hashlib.md5(f["expected"].encode("utf-8")).hexdigest(),
            len(f["expected"]),
        )
        for f in sorted(FIXTURES, key=lambda f: f["name"])
    )
    return (
        "SELECT name, text_md5, CAST(n_chars AS BIGINT) AS n_chars "
        f"FROM (VALUES {vals}) AS t(name, text_md5, n_chars)"
    )
