"""cspsop: find CSP protection gaps created by same-origin iframes.

A page's Content-Security-Policy never applies inside the iframes it
embeds, yet the Same-Origin Policy gives same-origin (and document.domain
relaxable) iframes full access to the page. The toolkit parses and
normalizes policies, compares them directive by directive, classifies
parent/iframe couples, crawls sites to measure exposure, and generates
browser conformance fixtures for the srcdoc sandbox corner case.
"""

from .compare import ComparisonResult, compare
from .corpus import PageRecord, read_corpus, write_corpus
from .crawler import CrawlConfig, crawl_site, crawl_sites, fetch
from .detector import (
    Mitigation,
    PairClassification,
    PotentialViolationReport,
    classify_pair,
    potential_violations,
    recommend,
)
from .fixtures import FixtureCase, generate_fixture, generate_suite
from .normalize import NormalizedPolicy, normalize
from .origins import (
    NAIVE_SUFFIXES,
    NoRegistrableDomainError,
    Origin,
    PublicSuffixList,
    UnsupportedUrlError,
    origin_of,
    site_of,
)
from .policy import Directive, Policy, SourceExpression, extract_policies, parse_policy
from .report import (
    adoption_stats,
    csp_per_site_distribution,
    directive_diff_histogram,
    render,
    violation_table,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonResult",
    "CrawlConfig",
    "Directive",
    "FixtureCase",
    "Mitigation",
    "NAIVE_SUFFIXES",
    "NoRegistrableDomainError",
    "NormalizedPolicy",
    "Origin",
    "PageRecord",
    "PairClassification",
    "Policy",
    "PotentialViolationReport",
    "PublicSuffixList",
    "SourceExpression",
    "UnsupportedUrlError",
    "adoption_stats",
    "classify_pair",
    "compare",
    "crawl_site",
    "crawl_sites",
    "csp_per_site_distribution",
    "directive_diff_histogram",
    "extract_policies",
    "fetch",
    "generate_fixture",
    "generate_suite",
    "normalize",
    "origin_of",
    "parse_policy",
    "potential_violations",
    "read_corpus",
    "recommend",
    "render",
    "site_of",
    "violation_table",
    "write_corpus",
]
