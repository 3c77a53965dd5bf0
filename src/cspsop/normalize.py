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
from functools import cached_property

from .origins import DEFAULT_PORTS, Origin
from .policy import Policy, SourceExpression

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


def normalize_sources(
    sources: tuple[SourceExpression, ...], page_origin: Origin
) -> frozenset[str]:
    """Apply the keyword/nonce/scheme rules to one source list."""
    exprs = list(sources)
    has_inline_exception = any(e.kind in ("nonce", "hash") for e in exprs)
    out: set[str] = set()
    for expr in exprs:
        if expr.kind in ("nonce", "hash"):
            continue  # opaque per delivery, cannot be compared across pages
        if expr.kind == "keyword":
            if expr.keyword == "none":
                continue
            if expr.keyword == "self":
                out.add(page_origin.ascii_serialization())
                continue
            if expr.keyword == "unsafe-inline" and has_inline_exception:
                continue  # ignored by CSP2 when a nonce or hash is present
            out.add(f"'{expr.keyword}'")
            continue
        if expr.kind == "wildcard-all":
            out.add("*")
            continue
        if expr.kind == "scheme-source":
            # No host to extend; the token already names its scheme set.
            out.add(f"{expr.scheme}:")
            continue
        out.update(_host_source_strings(expr, page_origin.scheme))
    return frozenset(out)


def normalize(policy: Policy, page_origin: Origin) -> NormalizedPolicy:
    """Rewrite a parsed policy into its canonical comparable form.

    Report-only policies normalize exactly like enforced ones.
    """
    out: dict[str, frozenset[str]] = {}
    default = policy.directives.get("default-src")
    for name, directive in policy.directives.items():
        if name == "sandbox":
            out[name] = frozenset(directive.opaque_values)
        elif name == "report-uri":
            out[name] = frozenset(v.strip() for v in directive.opaque_values)
        else:
            out[name] = normalize_sources(directive.sources, page_origin)

    for name in FALLBACK_DIRECTIVES:
        if name in out:
            continue
        if default is not None:
            out[name] = normalize_sources(default.sources, page_origin)
        elif name == "script-src":
            out[name] = PERMISSIVE_SCRIPT
        else:
            out[name] = PERMISSIVE_FETCH

    return NormalizedPolicy(directives=out, page_origin=page_origin)
