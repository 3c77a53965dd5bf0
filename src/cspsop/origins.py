"""Browser origins and registrable-domain sites.

An origin is the (scheme, host, port) triple browsers use for isolation
decisions. A site is the registrable domain (eTLD+1) of a host; two pages on
the same site but different origins can become mutually accessible when both
set document.domain to their shared registrable domain. The crawler records
each page's site; the analysis compares those recorded sites.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from urllib.parse import urlsplit

DEFAULT_PORTS = {"http": 80, "https": 443}


class UnsupportedUrlError(ValueError):
    """URL is not an absolute http(s) URL and has no usable origin."""


class NoRegistrableDomainError(ValueError):
    """Host is itself a public suffix, so no registrable domain exists."""


@dataclass(frozen=True, order=True)
class Origin:
    """SOP origin triple. Port is always concrete (default-resolved)."""

    scheme: str
    host: str
    port: int

    def __post_init__(self) -> None:
        if not 1 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")

    def ascii_serialization(self) -> str:
        """scheme://host, with the port omitted when it is the scheme default."""
        if DEFAULT_PORTS.get(self.scheme) == self.port:
            return f"{self.scheme}://{self.host}"
        return f"{self.scheme}://{self.host}:{self.port}"

    def __str__(self) -> str:
        return self.ascii_serialization()


def origin_of(url: str) -> Origin:
    """Extract the (scheme, host, port) origin of an absolute http(s) URL.

    Raises UnsupportedUrlError for relative URLs, non-http(s) schemes, and
    URLs without a parseable host or port.
    """
    try:
        parts = urlsplit(url)
    except ValueError as exc:
        raise UnsupportedUrlError(f"unparseable URL: {url!r}") from exc
    scheme = parts.scheme.lower()
    if scheme not in DEFAULT_PORTS:
        raise UnsupportedUrlError(f"unsupported scheme in {url!r}")
    host = parts.hostname
    if not host:
        raise UnsupportedUrlError(f"no host in {url!r}")
    try:  # urlsplit takes port 0, which Origin rejects
        port = parts.port
        return Origin(scheme, host.lower(), DEFAULT_PORTS[scheme] if port is None else port)
    except ValueError as exc:
        raise UnsupportedUrlError(f"invalid port in {url!r}") from exc


class PublicSuffixList:
    """Suffix table in the standard one-suffix-per-line format.

    Wildcard rules carry a leading "*." label; exception rules a leading "!".
    Lookup follows the publicsuffix.org algorithm: the longest matching rule
    prevails, exception rules beat wildcards, and unlisted TLDs behave as if
    a bare "*" rule existed.
    """

    def __init__(self, rules: list[str]):
        # Indexed by rightmost label so lookups only scan a handful of rules.
        self._rules: dict[str, list[tuple[str, ...]]] = {}
        self._exceptions: dict[str, list[tuple[str, ...]]] = {}
        self.rule_count = 0
        for rule in rules:
            rule = rule.strip().lower()
            if not rule or rule.startswith("//"):
                continue
            table = self._rules
            if rule.startswith("!"):
                table = self._exceptions
                rule = rule[1:]
            labels = tuple(rule.split("."))
            table.setdefault(labels[-1], []).append(labels)
            self.rule_count += 1

    @classmethod
    def load(cls, path: str | Path | None = None) -> "PublicSuffixList":
        """Load a suffix table, defaulting to the bundled snapshot."""
        if path is None:
            text = (
                resources.files("cspsop").joinpath("data/public_suffix_list.dat").read_text("utf-8")
            )
        else:
            text = Path(path).read_text("utf-8")
        return cls(text.splitlines())

    @staticmethod
    def _matches(rule: tuple[str, ...], labels: tuple[str, ...]) -> bool:
        if len(rule) > len(labels):
            return False
        return all(r == "*" or r == l for r, l in zip(reversed(rule), reversed(labels)))

    def public_suffix(self, host: str) -> str:
        """Longest public suffix of host (the whole host may qualify)."""
        labels = tuple(host.lower().rstrip(".").split("."))
        tld = labels[-1]
        for rule in self._exceptions.get(tld, ()):
            if self._matches(rule, labels):
                return ".".join(rule[1:])
        best = 1  # unlisted TLDs behave as a "*" rule
        for rule in self._rules.get(tld, ()):
            if self._matches(rule, labels) and len(rule) > best:
                best = len(rule)
        return ".".join(labels[-best:])

    def registrable_domain(self, host: str) -> str:
        """Public suffix plus one label; raises if host is itself a suffix."""
        host = host.lower().rstrip(".")
        labels = host.split(".")
        suffix = self.public_suffix(host)
        suffix_len = len(suffix.split("."))
        if len(labels) <= suffix_len:
            raise NoRegistrableDomainError(f"{host!r} is a public suffix")
        return ".".join(labels[-(suffix_len + 1):])


class NaiveSuffixTable:
    """Fidelity mode: the site is simply the last two host labels.

    Mirrors measurement setups that took "domain + TLD" as the site without
    consulting a suffix table, which miscounts multi-label suffixes such as
    co.uk. Never raises; single-label hosts are their own site.
    """

    def registrable_domain(self, host: str) -> str:
        labels = host.lower().rstrip(".").split(".")
        return ".".join(labels[-2:]) if len(labels) >= 2 else labels[0]


NAIVE_SUFFIXES = NaiveSuffixTable()

SuffixTable = PublicSuffixList | NaiveSuffixTable


@lru_cache(maxsize=1)
def default_psl() -> PublicSuffixList:
    """The bundled suffix table, loaded once per process."""
    return PublicSuffixList.load()


def _is_ip_literal(host: str) -> bool:
    try:
        ipaddress.ip_address(host.strip("[]"))
    except ValueError:
        return False
    return True


def site_of(host: str, psl: SuffixTable | None = None) -> str:
    """Site (registrable domain) of a host.

    psl=None uses the bundled table; pass NAIVE_SUFFIXES for the last-two-
    labels fidelity mode. IP literals pass through as their own site.
    Raises NoRegistrableDomainError when the host is itself a public suffix.
    """
    host = host.lower().rstrip(".")
    if _is_ip_literal(host):
        return host
    table = psl if psl is not None else default_psl()
    return table.registrable_domain(host)


@lru_cache(maxsize=4096)
def _site(host: str, psl: SuffixTable | None) -> str:
    """The site a crawl records for a host: site_of(host, psl), or the host
    itself when it is a public suffix (localhost, bare-TLD lab setups), so
    such a host is its own site instead of failing the crawl.

    A crawl asks for the site of every link, so the answers are cached by
    (host, suffix table). A miss calls site_of through its module name, so
    a wrapper around site_of sees every real lookup.
    """
    try:
        return site_of(host, psl)
    except NoRegistrableDomainError:
        return host
