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

# The fallback directives' fill-ins when default-src is absent, as key
# entries: sorted source tuples.
_PERMISSIVE_FILL = {
    name: tuple(sorted(PERMISSIVE_SCRIPT if name == "script-src" else PERMISSIVE_FETCH))
    for name in FALLBACK_DIRECTIVES
}


@lru_cache(maxsize=256)
def _token_strings(token: str, page_scheme: str) -> tuple[str, ...] | str:
    """Canonical strings of one source token on a page of page_scheme, or
    the _SELF / _INLINE_EXCEPTION marker. A malformed token and 'none'
    contribute nothing. The page scheme is all a token's strings depend
    on, so the cache serves every origin of that scheme. 256 entries keep
    the hosts and keywords a site repeats while per-page nonces pass
    through; a larger cache hardly hits more and costs memory.
    """
    expr = parse_source_expression(token)
    if expr is None or expr.keyword == "none":
        return ()
    if expr.kind in ("nonce", "hash"):
        return _INLINE_EXCEPTION  # opaque per delivery, cannot be compared across pages
    if expr.keyword == "self":
        return _SELF
    if expr.kind != "host-source":
        return (expr.token(),)  # a keyword, * or a scheme source names itself
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
    host, port, path = expr.host, expr.port, expr.path or ""
    return tuple([
        f"{scheme}://{host}{path}"
        if port is None or port.isdigit() and DEFAULT_PORTS.get(scheme) == int(port)
        else f"{scheme}://{host}:{port}{path}"
        for scheme in schemes
    ])


def _key(raw: str, page_origin: Origin) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """NormalizedPolicy.key of the policy text raw on page_origin, in one
    pass over the text.

    The text is split by the parser's own directive grammar and each source
    token is looked up in the token cache, so no policy is parsed. A
    directive's sources are sorted once; each missing fallback directive
    takes default-src's sorted tuple, or a ready-made permissive one.
    Report-only policies normalize exactly like enforced ones.
    """
    out: dict[str, tuple[str, ...]] = {}
    scheme, self_string = page_origin.scheme, page_origin.ascii_serialization()
    for name, tokens in _directives(raw):
        if tokens is None:
            continue
        if name in VALUE_LIST_DIRECTIVES:
            out[name] = tuple(sorted(set(tokens)))
            continue
        sources: set[str] = set()
        inline_exception = False
        for token in tokens:
            strings = _token_strings(token, scheme)
            if strings is _SELF:
                sources.add(self_string)
            elif strings is _INLINE_EXCEPTION:
                inline_exception = True
            else:
                sources.update(strings)
        if inline_exception:
            sources.discard("'unsafe-inline'")  # ignored by CSP2 when a nonce or hash is present
        out[name] = tuple(sorted(sources))

    default = out.get("default-src")
    fill = _PERMISSIVE_FILL if default is None else dict.fromkeys(FALLBACK_DIRECTIVES, default)
    return tuple(sorted((fill | out).items()))


def normalize(policy: Policy, page_origin: Origin) -> NormalizedPolicy:
    """Rewrite a policy into its canonical comparable form: the sets of
    its key (_key), so the two never disagree.

    Works from the policy's text, so it never builds the policy's parse
    tree. Report-only policies normalize exactly like enforced ones.
    """
    return NormalizedPolicy({name: frozenset(sources) for name, sources in _key(policy.raw, page_origin)})
