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
from functools import lru_cache

from .origins import DEFAULT_PORTS, Origin
from .policy import (
    FALLBACK_DIRECTIVES,
    VALUE_LIST_DIRECTIVES,
    Policy,
    _directives,
    parse_source_expression,
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

    @property
    def key(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """Hashable canonical form: (directive, sorted sources) pairs sorted
        by directive. Two keys are equal exactly when compare() reports the
        policies equal."""
        return tuple((name, tuple(sorted(srcs))) for name, srcs in sorted(self.directives.items()))

    def serialize(self) -> str:
        """Deterministic policy string that re-normalizes to this value."""
        return "; ".join(" ".join((name, *sources)) for name, sources in self.key)


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
    if expr is None or expr.keyword == "none":
        return frozenset()
    if expr.kind in ("nonce", "hash"):
        return _INLINE_EXCEPTION  # opaque per delivery, cannot be compared across pages
    if expr.keyword == "self":
        return _SELF
    if expr.kind != "host-source":
        return frozenset({expr.token()})  # a keyword, * or a scheme source names itself
    # A host source, scheme-extended per CSP2: a schemeless host is reachable
    # over the page's scheme, and an http page also implies the https
    # upgrade. An explicit default port is erased, so http://h:80 and
    # http://h compare equal.
    if expr.scheme:
        schemes = (expr.scheme,)
    elif page_scheme == "http":
        schemes = ("http", "https")
    else:
        schemes = (page_scheme,)
    out = set()
    for scheme in schemes:
        port = expr.port
        if port is not None and port.isdigit() and DEFAULT_PORTS.get(scheme) == int(port):
            port = None
        out.add(expr._replace(scheme=scheme, port=port).token())
    return frozenset(out)


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

    return NormalizedPolicy(directives=out)
