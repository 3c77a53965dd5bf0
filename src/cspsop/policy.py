"""CSP Level-2 policy model and tolerant parser.

Policies arrive as header values or <meta> content strings. Parsing never
fails: malformed pieces are dropped and recorded as warnings, because real
headers in the wild are dirty and an auditor has to keep going.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple

ENFORCE = "enforce"
REPORT_ONLY = "report-only"
HTTP_HEADER = "http-header"
META_ELEMENT = "meta-element"
DISPOSITIONS = frozenset({ENFORCE, REPORT_ONLY})
DELIVERIES = frozenset({HTTP_HEADER, META_ELEMENT})

CSP_HEADER = "content-security-policy"
CSP_REPORT_ONLY_HEADER = "content-security-policy-report-only"

# Fetch directives that inherit from default-src. frame-ancestors,
# report-uri and sandbox never inherit.
FALLBACK_DIRECTIVES = (
    "script-src",
    "style-src",
    "img-src",
    "font-src",
    "connect-src",
    "object-src",
    "media-src",
    "child-src",
)

# Directives whose value is not a source list: tokens stay opaque.
VALUE_LIST_DIRECTIVES = frozenset({"sandbox", "report-uri"})

# Directives with a known role. Anything else is carried opaquely and
# flagged with an unknown-directive warning.
KNOWN_DIRECTIVES = frozenset(
    {"default-src", "frame-ancestors", *FALLBACK_DIRECTIVES, *VALUE_LIST_DIRECTIVES}
)

KEYWORDS = frozenset({"self", "unsafe-inline", "unsafe-eval", "none"})

_BASE64_RE = re.compile(r"[A-Za-z0-9+/\-_]+={0,2}")
# One match tells a scheme source from a host source: the groups are the
# scheme source's scheme, or the host source's scheme, host, port and path.
_SCHEME_OR_HOST_SOURCE_RE = re.compile(
    r"(?:([a-z][a-z0-9+.\-]*):"  # a scheme source
    r"|(?:([a-z][a-z0-9+.\-]*)://)?"  # or a host source: optional scheme
    r"((?:\*\.)?[a-z0-9\-_]+(?:\.[a-z0-9\-_]+)*)"  # host, maybe one leading *.
    r"(?::(\d+|\*))?"  # optional port or port wildcard
    r"(/[^\s;,]*)?)"  # optional path
)


class SourceExpression(NamedTuple):
    """One entry of a source list.

    kind is one of host-source, scheme-source, keyword, nonce, hash, or
    wildcard-all. Only the fields relevant to the kind are populated.
    """

    kind: str
    scheme: str | None = None
    host: str | None = None
    port: str | None = None  # decimal string or "*"
    path: str | None = None
    keyword: str | None = None  # self / unsafe-inline / unsafe-eval / none
    nonce_value: str | None = None
    hash_algorithm: str | None = None
    hash_value: str | None = None

    def token(self) -> str:
        """The canonical textual form this expression serializes to."""
        if self.kind == "wildcard-all":
            return "*"
        if self.kind == "keyword":
            return f"'{self.keyword}'"
        if self.kind == "nonce":
            return f"'nonce-{self.nonce_value}'"
        if self.kind == "hash":
            return f"'{self.hash_algorithm}-{self.hash_value}'"
        if self.kind == "scheme-source":
            return f"{self.scheme}:"
        out = f"{self.scheme}://" if self.scheme else ""
        out += self.host or ""
        if self.port is not None:
            out += f":{self.port}"
        if self.path:
            out += self.path
        return out


@dataclass(frozen=True)
class ParseWarning:
    kind: str  # duplicate-directive | unknown-directive | malformed-source | misplaced-none
    detail: str


class Directive(NamedTuple):
    """A named directive and its parsed source list.

    sources is empty for value-list directives (sandbox, report-uri); their
    tokens are kept verbatim in opaque_values instead.
    """

    name: str
    sources: tuple[SourceExpression, ...]
    opaque_values: tuple[str, ...] = ()

    def tokens(self) -> list[str]:
        """The value tokens in canonical form: the opaque values, or the
        source expressions' tokens."""
        return list(self.opaque_values) or [s.token() for s in self.sources]


@dataclass(frozen=True, eq=False, slots=True)
class Policy:
    """One delivered CSP: its text, disposition and channel.

    directives and warnings are parsed from raw on each access. Only the
    `parse` command, serialize() and equality of two differing texts read
    them: normalize() works from raw through the same directive grammar,
    so the analysis never parses a policy. Equality is structural over
    directives/disposition/delivery; the original text and warnings are
    carried but not compared, so a reparse of the serialized form equals
    the original. raw text, disposition and delivery determine the rest,
    so records may share one Policy to save memory.
    """

    raw: str
    disposition: str = ENFORCE
    delivery: str = HTTP_HEADER

    @property
    def directives(self) -> dict[str, Directive]:
        return _parse(self.raw)[0]

    @property
    def warnings(self) -> tuple[ParseWarning, ...]:
        return _parse(self.raw)[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Policy):
            return NotImplemented
        # Equal texts parse alike, so only differing texts need parsing.
        return (
            self.disposition == other.disposition
            and self.delivery == other.delivery
            and (self.raw == other.raw or self.directives == other.directives)
        )

    def serialize(self) -> str:
        """Canonical policy string; reparses to an equal Policy."""
        return "; ".join(" ".join([d.name, *d.tokens()]) for d in self.directives.values())


def parse_source_expression(token: str) -> SourceExpression | None:
    """Parse one source-list token; None when the token is malformed."""
    if token == "*":
        return SourceExpression(kind="wildcard-all")
    if token.startswith("'") and token.endswith("'") and len(token) > 2:
        inner = token[1:-1]
        low = inner.lower()
        if low in KEYWORDS:
            return SourceExpression(kind="keyword", keyword=low)
        if low.startswith("nonce-"):
            value = inner[len("nonce-"):]
            if value and _BASE64_RE.fullmatch(value):
                return SourceExpression(kind="nonce", nonce_value=value)
            return None
        for algo in ("sha256", "sha384", "sha512"):
            if low.startswith(algo + "-"):
                value = inner[len(algo) + 1:]
                if value and _BASE64_RE.fullmatch(value):
                    return SourceExpression(kind="hash", hash_algorithm=algo, hash_value=value)
                return None
        return None
    m = _SCHEME_OR_HOST_SOURCE_RE.fullmatch(token.lower())
    if m is None:
        return None
    scheme_source, scheme, host, port, path = m.groups()
    if host is None:
        return SourceExpression(kind="scheme-source", scheme=scheme_source)
    if port is not None and port != "*" and not 1 <= int(port) <= 65535:
        return None
    # Path case matters; recover it from the original token.
    if path:
        path = token[len(token) - len(path):]
    return SourceExpression("host-source", scheme, host, port, path)


def parse_policy(raw: str, disposition: str = ENFORCE, delivery: str = HTTP_HEADER) -> Policy:
    """The Policy delivered as raw text. Total: bad input yields warnings,
    never an exception. The text is parsed when its directives or warnings
    are read.
    """
    return Policy(raw, disposition, delivery)


def _directives(raw: str) -> Iterator[tuple[str, list[str] | None]]:
    """The directive grammar: each ';'-separated directive of raw, in order,
    as its lower-cased name and its value tokens.

    A repeated name yields None for its tokens: CSP keeps the first
    occurrence. The tokens of a value-list directive (VALUE_LIST_DIRECTIVES)
    are opaque values, those of any other directive are its source list.
    """
    seen: set[str] = set()
    for chunk in raw.split(";"):
        tokens = chunk.split()
        if not tokens:
            continue
        name = tokens[0].lower()
        if name in seen:
            yield name, None
            continue
        seen.add(name)
        yield name, tokens[1:]


def _parse(raw: str) -> tuple[dict[str, Directive], tuple[ParseWarning, ...]]:
    """Directives and warnings of one policy text.

    Duplicate directive names keep the first occurrence (CSP semantics).
    'none' mixed into a longer source list is dropped with a warning,
    mirroring how browsers ignore it outside singleton lists.
    """
    directives: dict[str, Directive] = {}
    warnings: list[ParseWarning] = []
    for name, value_tokens in _directives(raw):
        if value_tokens is None:
            warnings.append(ParseWarning("duplicate-directive", name))
            continue
        if name not in KNOWN_DIRECTIVES:
            warnings.append(ParseWarning("unknown-directive", name))
        if name in VALUE_LIST_DIRECTIVES:
            directives[name] = Directive(name, (), opaque_values=tuple(value_tokens))
            continue
        sources: list[SourceExpression] = []
        for token in value_tokens:
            expr = parse_source_expression(token)
            if expr is None:
                warnings.append(ParseWarning("malformed-source", f"{name}: {token}"))
                continue
            sources.append(expr)
        if len(sources) > 1:
            keep = [s for s in sources if s.keyword != "none"]
            if len(keep) != len(sources):
                warnings.append(ParseWarning("misplaced-none", name))
                sources = keep
        directives[name] = Directive(name, tuple(sources))
    return directives, tuple(warnings)


def extract_policies(
    header_fields: list[tuple[str, str]], meta_tags: list[str]
) -> list[Policy]:
    """Policies delivered with one response: headers first, then meta tags.

    Header names are matched case-insensitively; the report-only header sets
    the report-only disposition. Meta policies are always enforced (the
    report-only header has no meta equivalent).
    """
    policies: list[Policy] = []
    for name, value in header_fields:
        low = name.lower()
        if low == CSP_HEADER:
            policies.append(parse_policy(value, ENFORCE, HTTP_HEADER))
        elif low == CSP_REPORT_ONLY_HEADER:
            policies.append(parse_policy(value, REPORT_ONLY, HTTP_HEADER))
    for content in meta_tags:
        policies.append(parse_policy(content, ENFORCE, META_ELEMENT))
    return policies
