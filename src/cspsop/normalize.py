"""Policy normalization: expand fallbacks and canonicalize source lists.

Two policies can only be compared after both are rewritten into the same
vocabulary: absent fetch directives are filled in (from default-src, or with
the most permissive list), page-relative keywords are resolved against the
page origin, nonces/hashes are stripped, and schemeless hosts are expanded
to the scheme set the page implies. The output maps directive names to sets
of canonical source strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .origins import DEFAULT_PORTS, Origin
from .policy import (
    VALUE_LIST_DIRECTIVES,
    Policy,
    SourceExpression,
    _directives,
    parse_source_expression,
)

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

# Most permissive fill-ins used when default-src is absent.
PERMISSIVE_SCRIPT = frozenset({"*", "'unsafe-inline'", "'unsafe-eval'"})
PERMISSIVE_FETCH = frozenset({"*"})


@dataclass(frozen=True)
class NormalizedPolicy:
    """Canonical comparable form of one policy.

    Every fallback directive is present. Source sets never contain 'self',
    'none', nonces, or hashes; host sources are fully qualified with a
    scheme and carry a port only when it is not the scheme default.
    """

    directives: dict[str, frozenset[str]]
    page_origin: Origin

    @cached_property
    def key(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """Hashable canonical form: (directive, sorted sources) pairs sorted
        by directive. Two keys are equal exactly when compare() reports the
        policies equal; the page origin is not part of it."""
        return tuple((name, tuple(sorted(srcs))) for name, srcs in sorted(self.directives.items()))

    def serialize(self) -> str:
        """Deterministic policy string that re-normalizes to this value."""
        return "; ".join(" ".join((name, *sources)) for name, sources in self.key)


def _strip_default_port(scheme: str, host_part: str, port: str | None, path: str) -> str:
    if port is None or (port.isdigit() and DEFAULT_PORTS.get(scheme) == int(port)):
        return f"{scheme}://{host_part}{path}"
    return f"{scheme}://{host_part}:{port}{path}"


def _host_source_strings(expr: SourceExpression, page_scheme: str) -> set[str]:
    """Canonical strings for one host source, scheme-extended per CSP2.

    A schemeless host is reachable over the page's scheme; an http page
    additionally implies the https upgrade. Explicit default ports are
    erased so http://h:80 and http://h compare equal.
    """
    path = expr.path or ""
    if expr.scheme:
        return {_strip_default_port(expr.scheme, expr.host, expr.port, path)}
    if page_scheme == "http":
        return {
            _strip_default_port("http", expr.host, expr.port, path),
            _strip_default_port("https", expr.host, expr.port, path),
        }
    return {_strip_default_port(page_scheme, expr.host, expr.port, path)}


# What a token contributes besides its canonical strings: 'self' names the
# page origin, which the token cache must not see; a nonce or hash drops
# 'unsafe-inline' from its directive.
_SELF = "self"
_INLINE_EXCEPTION = "inline-exception"


@lru_cache(maxsize=256)
def _token_strings(token: str, page_scheme: str) -> frozenset[str] | str:
    """Canonical strings of one source token on a page of page_scheme, or
    the _SELF / _INLINE_EXCEPTION marker. A malformed token and 'none'
    contribute nothing. The page scheme is all a token's strings depend
    on, so the cache serves every origin of that scheme. 256 entries keep
    the hosts and keywords a site repeats while per-page nonces pass
    through; a larger cache hardly hits more and costs memory.
    """
    expr = parse_source_expression(token)
    if expr is None:
        return frozenset()
    if expr.kind in ("nonce", "hash"):
        return _INLINE_EXCEPTION  # opaque per delivery, cannot be compared across pages
    if expr.kind == "keyword":
        if expr.keyword == "self":
            return _SELF
        return frozenset() if expr.keyword == "none" else frozenset({f"'{expr.keyword}'"})
    if expr.kind == "wildcard-all":
        return frozenset({"*"})
    if expr.kind == "scheme-source":
        # No host to extend; the token already names its scheme set.
        return frozenset({f"{expr.scheme}:"})
    return frozenset(_host_source_strings(expr, page_scheme))


def _source_set(tokens: list[str], page_origin: Origin) -> frozenset[str]:
    """Apply the keyword/nonce/scheme rules to one source list."""
    out: set[str] = set()
    inline_exception = False
    scheme = page_origin.scheme
    for token in tokens:
        strings = _token_strings(token, scheme)
        if strings is _SELF:
            out.add(page_origin.ascii_serialization())
        elif strings is _INLINE_EXCEPTION:
            inline_exception = True
        else:
            out |= strings
    if inline_exception:
        out.discard("'unsafe-inline'")  # ignored by CSP2 when a nonce or hash is present
    return frozenset(out)


def normalize(policy: Policy, page_origin: Origin) -> NormalizedPolicy:
    """Rewrite a policy into its canonical comparable form.

    Works from the policy's text through the directive grammar and the
    per-token cache, so it never builds the policy's parse tree. Each
    missing fallback directive shares default-src's normalized set.
    Report-only policies normalize exactly like enforced ones.
    """
    out: dict[str, frozenset[str]] = {}
    for name, tokens in _directives(policy.raw):
        if tokens is None:
            continue
        if name in VALUE_LIST_DIRECTIVES:
            out[name] = frozenset(tokens)
        else:
            out[name] = _source_set(tokens, page_origin)

    default = out.get("default-src")
    for name in FALLBACK_DIRECTIVES:
        if name in out:
            continue
        if default is not None:
            out[name] = default
        elif name == "script-src":
            out[name] = PERMISSIVE_SCRIPT
        else:
            out[name] = PERMISSIVE_FETCH

    return NormalizedPolicy(directives=out, page_origin=page_origin)
