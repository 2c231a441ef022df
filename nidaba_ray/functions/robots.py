"""robots.txt parsing + crawl-politeness URL gate (RFC 9309).

A crawl-derived corpus is expected to honour robots exclusions; this
implements the published Robots Exclusion Protocol semantics from
scratch:

* group selection: the group whose ``User-agent`` line is the LONGEST
  case-insensitive match for the product token wins; the ``*`` group
  is the fallback; adjacent user-agent lines share one group
* rule matching: ``Allow``/``Disallow`` path patterns with ``*``
  (any octets) and ``$`` (end anchor); the matching rule with the
  LONGEST pattern wins; on a tie the least-restrictive (Allow) rule
  wins; an empty Disallow allows everything; no matching rule allows
* unknown directives and comments (``#``) are ignored; a missing or
  unparseable robots.txt allows all (the RFC's failure posture for
  4xx; a 5xx "assume disallow" policy is the CALLER's choice)

Scale notes: rules are parsed + compiled ONCE per host in the actor's
``__init__``-time broadcast map (the ray.put pattern — robots bodies
are kilobytes × hosts, never per-row); the per-row check is a walk
over one host's compiled patterns. The gate composes with
``functions.urls`` canonicalization as a registry cleaning stage
(``clean.robots``)."""

from __future__ import annotations

import hashlib
import re
from urllib.parse import urlsplit

import pyarrow as pa

__all__ = ["parse_robots", "robots_extras", "RobotsMatcher",
           "robots_filter_batch"]


def parse_robots(text: str, agent: str = "*") -> list[tuple[bool, str]]:
    """robots.txt body → the selected group's rules as
    ``[(is_allow, pattern), ...]`` for ``agent`` (product token)."""
    agent = agent.lower()
    groups: list[tuple[list[str], list[tuple[bool, str]]]] = []
    cur_agents: list[str] = []
    cur_rules: list[tuple[bool, str]] | None = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "user-agent":
            if cur_rules:  # a rule block ended — start a fresh group
                groups.append((cur_agents, cur_rules))
                cur_agents, cur_rules = [], None
            cur_agents.append(value.lower())
            cur_rules = cur_rules if cur_rules is not None else []
        elif key in ("allow", "disallow"):
            if cur_rules is None:
                continue  # rules before any user-agent line are void
            if key == "disallow" and value == "":
                continue  # empty Disallow = allow all (no rule)
            cur_rules.append((key == "allow", value))
        # crawl-delay / sitemap / unknown: ignored
    if cur_agents:
        groups.append((cur_agents, cur_rules or []))

    best: list[tuple[bool, str]] | None = None
    best_len = -1
    star: list[tuple[bool, str]] | None = None
    for agents, rules in groups:
        for ua in agents:
            if ua == "*":
                if star is None:
                    star = rules
            elif ua and ua in agent:
                # a group applies when its token is contained in the
                # crawler's product token ("googlebot" matches
                # "googlebot-news", not the reverse); most specific =
                # longest such value
                if len(ua) > best_len:
                    best, best_len = rules, len(ua)
    if best is not None:
        return best
    return star if star is not None else []


def robots_extras(text: str, agent: str = "*"
                  ) -> tuple[list[str], int]:
    """The two de-facto fields RFC 9309 leaves undefined but every
    crawl scheduler reads: ``(sitemaps, crawl_delay_ms)``. Sitemap
    lines are GLOBAL (outside group scope per the sitemaps.org
    convention — all of them are returned, in file order, deduped);
    Crawl-delay is GROUP-scoped with the same longest-token group
    selection as the access rules, returned in integer milliseconds
    (fractional seconds truncate; absent/invalid → 0)."""
    agent = agent.lower()
    sitemaps: list[str] = []
    seen: set[str] = set()
    # (agents, delay_ms) per group, mirroring parse_robots's grouping
    groups: list[tuple[list[str], int]] = []
    cur_agents: list[str] = []
    cur_delay = 0
    in_rules = False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "user-agent":
            if in_rules:
                groups.append((cur_agents, cur_delay))
                cur_agents, cur_delay, in_rules = [], 0, False
            cur_agents.append(value.lower())
        elif key == "sitemap":
            if value and value not in seen:
                seen.add(value)
                sitemaps.append(value)
        elif key in ("allow", "disallow"):
            in_rules = True
        elif key == "crawl-delay" and cur_agents:
            in_rules = True
            try:
                cur_delay = int(float(value) * 1000)
            except ValueError:
                pass
    if cur_agents:
        groups.append((cur_agents, cur_delay))

    best_delay = None
    best_len = -1
    star = None
    for agents, delay in groups:
        for ua in agents:
            if ua == "*":
                if star is None:
                    star = delay
            elif ua and ua in agent and len(ua) > best_len:
                best_delay, best_len = delay, len(ua)
    if best_delay is not None:
        return sitemaps, best_delay
    return sitemaps, (star if star is not None else 0)


def _compile(pattern: str) -> re.Pattern:
    """Rule pattern → anchored regex: ``*`` = any octets, trailing
    ``$`` = end anchor, everything else literal; prefix match."""
    anchored = pattern.endswith("$")
    if anchored:
        pattern = pattern[:-1]
    parts = [re.escape(p) for p in pattern.split("*")]
    rx = ".*".join(parts)
    if anchored:
        rx += r"\Z"
    return re.compile(rx)


class RobotsMatcher:
    """Compiled rules for one host. ``allowed(path)`` implements the
    RFC 9309 longest-match / allow-wins-ties decision."""

    def __init__(self, text: str, agent: str = "*") -> None:
        self.rules = [
            (allow, len(pat), _compile(pat))
            for allow, pat in parse_robots(text, agent)
        ]

    def allowed(self, path: str) -> bool:
        if not path.startswith("/"):
            path = "/" + path
        verdict = True
        best = -1
        for allow, plen, rx in self.rules:
            if rx.match(path) and (plen > best or (plen == best and allow)):
                verdict, best = allow, plen
        return verdict


def robots_filter_batch(batch: pa.Table, column: str = "url",
                        robots: dict[str, str] | None = None,
                        agent: str = "*") -> pa.Table:
    """Registry cleaning stage (``clean.robots``): keep rows whose URL
    is allowed by its host's robots.txt. ``robots`` maps lowercase
    host → robots.txt body; hosts with no entry allow everything.
    Matchers compile once per (host, body digest, agent) and persist
    on the function object — with the registry's stateless-stage calling
    convention that is once per worker process, the broadcast-lookup
    shape (robots bodies never travel per row)."""
    cache: dict[tuple, RobotsMatcher] = robots_filter_batch.__dict__.setdefault(
        f"_cache_{agent}", {})
    robots = robots or {}
    keep = []
    for url in batch[column].to_pylist():
        try:
            parts = urlsplit(url or "")
            host = (parts.hostname or "").lower()
            body = robots.get(host)
            if body is None:
                keep.append(True)
                continue
            key = (host, hashlib.md5(body.encode("utf-8", "surrogatepass")).digest())
            m = cache.get(key)
            if m is None:
                m = cache[key] = RobotsMatcher(body, agent)
            path = parts.path or "/"
            if parts.query:
                path += "?" + parts.query
            keep.append(m.allowed(path))
        except ValueError:
            keep.append(False)  # unparseable URL: quarantine-drop
    return batch.filter(pa.array(keep, pa.bool_()))
