import random
from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cspsop.normalize import (
    FALLBACK_DIRECTIVES,
    PERMISSIVE_FETCH,
    PERMISSIVE_SCRIPT,
    _key,
    normalize,
)
from cspsop.origins import Origin
from cspsop.policy import REPORT_ONLY, parse_policy
from grammar import policy_text
from oracles import oracle_normalize

MAIN = Origin("http", "main.com", 80)
SECURE = Origin("https", "x.com", 443)


def norm(text: str, origin: Origin = MAIN):
    return normalize(parse_policy(text), origin)


class TestNormalizeRules:
    def test_fallback_self_and_scheme_extension(self):
        # Expected values hand-derived with the rule-by-rule oracle.
        expected = oracle_normalize(
            "default-src 'self'; script-src third.com; child-src https:", "http", "main.com", 80
        )
        assert expected["script-src"] == {"http://third.com", "https://third.com"}
        assert expected["img-src"] == {"http://main.com"}
        assert expected["child-src"] == {"https:"}

        result = norm("default-src 'self'; script-src third.com; child-src https:")
        assert {k: set(v) for k, v in result.directives.items()} == expected

    def test_repeated_directive_keeps_its_first_occurrence(self):
        text = "script-src a.com; img-src 'self'; script-src b.com 'unsafe-inline'"
        expected = oracle_normalize(text, "http", "main.com", 80)
        assert expected["script-src"] == {"http://a.com", "https://a.com"}

        result = norm(text)
        assert {k: set(v) for k, v in result.directives.items()} == expected

    def test_default_none_empties_all_fallbacks(self):
        result = norm("default-src 'none'")
        for name in FALLBACK_DIRECTIVES:
            assert result.directives[name] == frozenset()
        assert result.directives["default-src"] == frozenset()

    def test_nonce_removes_unsafe_inline_then_itself(self):
        expected = oracle_normalize("script-src 'nonce-abc' 'unsafe-inline'", "https", "x.com", 443)
        assert expected["script-src"] == set()
        assert expected["style-src"] == {"*"}

        result = norm("script-src 'nonce-abc' 'unsafe-inline'", SECURE)
        assert result.directives["script-src"] == frozenset()
        for name in FALLBACK_DIRECTIVES:
            if name != "script-src":
                assert result.directives[name] == PERMISSIVE_FETCH

    def test_unsafe_inline_kept_without_nonce(self):
        result = norm("script-src 'unsafe-inline' 'unsafe-eval'")
        assert result.directives["script-src"] == frozenset({"'unsafe-inline'", "'unsafe-eval'"})

    def test_missing_script_src_gets_permissive_trio(self):
        result = norm("img-src 'self'")
        assert result.directives["script-src"] == PERMISSIVE_SCRIPT

    def test_self_uses_concrete_origin_port(self):
        result = norm("script-src 'self'", Origin("http", "main.com", 8080))
        assert result.directives["script-src"] == frozenset({"http://main.com:8080"})

    def test_self_brackets_an_ipv6_origin(self):
        result = norm("script-src 'self'", Origin("http", "::1", 8080))
        assert result.directives["script-src"] == frozenset({"http://[::1]:8080"})

    def test_default_port_erased(self):
        result = norm("script-src http://a.com:80 https://b.com:443 http://c.com:8080")
        assert result.directives["script-src"] == frozenset(
            {"http://a.com", "https://b.com", "http://c.com:8080"}
        )

    def test_schemeless_on_https_page_single_scheme(self):
        result = norm("script-src third.com", SECURE)
        assert result.directives["script-src"] == frozenset({"https://third.com"})

    def test_wildcard_host_pattern_kept(self):
        result = norm("script-src *.cdn.com", SECURE)
        assert result.directives["script-src"] == frozenset({"https://*.cdn.com"})

    def test_sandbox_flags_become_sorted_set(self):
        result = norm("sandbox allow-same-origin allow-scripts")
        assert result.directives["sandbox"] == frozenset({"allow-scripts", "allow-same-origin"})

    def test_report_uri_opaque(self):
        result = norm("report-uri https://r.example.com/collect")
        assert result.directives["report-uri"] == frozenset({"https://r.example.com/collect"})

    def test_frame_ancestors_not_filled_in(self):
        result = norm("default-src 'self'")
        assert "frame-ancestors" not in result.directives

    def test_report_only_normalizes_like_enforced(self):
        policy = parse_policy("default-src 'self'", REPORT_ONLY)
        assert normalize(policy, MAIN).directives["script-src"] == frozenset({"http://main.com"})


FORBIDDEN_MARKERS = ("'self'", "'none'", "'nonce-", "'sha256-", "'sha384-", "'sha512-")


@given(st.integers(0, 2**32))
@settings(max_examples=300)
def test_no_forbidden_tokens_after_normalization(seed):
    rng = random.Random(seed)
    result = norm(policy_text(rng), Origin("http", "main.com", 80))
    for name, sources in result.directives.items():
        if name in ("sandbox", "report-uri"):
            continue
        for source in sources:
            assert not any(source.startswith(marker) for marker in FORBIDDEN_MARKERS)


@given(st.integers(0, 2**32))
@settings(max_examples=200)
def test_idempotence(seed):
    rng = random.Random(seed)
    origin = Origin("http", "main.com", 80)
    once = normalize(parse_policy(policy_text(rng)), origin)
    twice = normalize(parse_policy(once.serialize()), origin)
    assert twice.directives == once.directives


@given(st.integers(0, 2**32))
@settings(max_examples=200)
def test_fallback_correctness(seed):
    rng = random.Random(seed)
    sources = " ".join(
        rng.sample(["a.com", "https://b.org", "'self'", "'unsafe-eval'", "*"], k=rng.randint(1, 3))
    )
    with_default = norm(f"default-src {sources}")
    direct = norm(f"script-src {sources}")
    assert with_default.directives["script-src"] == direct.directives["script-src"]


def _covered_by_permissive(source: str) -> bool:
    # Semantic check: * covers every host/scheme source; keyword tokens must
    # appear in the permissive trio themselves.
    if source in PERMISSIVE_SCRIPT:
        return True
    return not source.startswith("'")


@given(st.integers(0, 2**32))
@settings(max_examples=200)
def test_permissive_fill_dominates_any_whitelist(seed):
    rng = random.Random(seed)
    tokens = " ".join(
        rng.sample(
            ["a.com", "https://b.org:444", "'self'", "'unsafe-inline'", "'unsafe-eval'", "https:"],
            k=rng.randint(1, 4),
        )
    )
    concrete = norm(f"script-src {tokens}")
    absent = norm("img-src 'self'")  # no script-src, no default-src
    assert absent.directives["script-src"] == PERMISSIVE_SCRIPT
    for source in concrete.directives["script-src"]:
        assert _covered_by_permissive(source)


# Page origins for the oracle comparisons: both schemes, default and
# non-default ports, two hosts.
ORIGIN_POOL = (
    MAIN,
    Origin("https", "main.com", 443),
    Origin("http", "main.com", 8080),
    Origin("https", "main.com", 8443),
    SECURE,
    Origin("http", "x.com", 80),
)


def test_matches_oracle_on_sample():
    # One warm token cache across draws: a token normalized for one origin
    # must not leak into the strings of another.
    rng = random.Random(999)
    for _ in range(200):
        text = policy_text(rng)
        origin = rng.choice(ORIGIN_POOL)
        result = normalize(parse_policy(text), origin)
        expected = oracle_normalize(text, origin.scheme, origin.host, origin.port)
        assert {k: set(v) for k, v in result.directives.items()} == expected, (text, origin)


def _oracle_key(text: str, origin: Origin) -> tuple:
    expected = oracle_normalize(text, origin.scheme, origin.host, origin.port)
    return tuple(sorted((name, tuple(sorted(sources))) for name, sources in expected.items()))


@given(st.integers(0, 2**32).map(lambda seed: policy_text(random.Random(seed))),
       st.sampled_from(ORIGIN_POOL))
@settings(max_examples=300)
@example("script-src 'nonce-QUJD' 'unsafe-inline' a.com; style-src 'sha256-QUJD' 'unsafe-inline'", MAIN)
@example("script-src 'NONCE-QUJD' 'unsafe-inline'; style-src 'SHA384-eHl6' 'unsafe-inline'", SECURE)
@example("script-src 'nonce-' 'nonce-a!b' 'sha256-' 'sha512-%%' 'NONCE-' a.com", MAIN)  # malformed
@example("'nonce-QUJD' a.com; 'sha256-QUJD' 'self'", MAIN)  # nonce and hash as directive names
@example("report-uri 'nonce-QUJD' /r; script-src 'unsafe-inline'", MAIN)
@example("script-src h:80 h:443 h:8080 https://h:443 http://h:443", MAIN)
@example("script-src h:80 h:443 'self'", Origin("http", "main.com", 8080))
@example("img-src *.h *.h:80 *.h:* h/p/ h:80/app.js https://*.h:443/x", MAIN)
@example("script-src a.com; img-src 'self'; script-src b.com; img-src c.com; default-src d.com",
         Origin("https", "main.com", 8443))
def test_key_matches_oracle(text, origin):
    assert _key(text, origin) == _oracle_key(text, origin)


def test_malformed_nonce_keeps_unsafe_inline():
    # A malformed nonce or hash is ignored, so it neutralizes nothing.
    for token in ("'nonce-'", "'nonce-a!b'", "'sha256-'"):
        assert dict(_key(f"script-src {token} 'unsafe-inline'", MAIN))["script-src"] == ("'unsafe-inline'",)


def test_token_cache_keeps_origins_apart():
    text = "script-src 'self' a.com"
    origins = [
        Origin("http", "a.com", 80),
        Origin("https", "a.com", 443),
        Origin("http", "b.com", 80),
        Origin("http", "a.com", 8080),
    ]
    expected = [oracle_normalize(text, o.scheme, o.host, o.port) for o in origins]
    for order in (origins, origins[::-1]):  # every origin on a warm cache
        for origin in order:
            norm(text, origin)
    keys = [norm(text, origin).key for origin in origins]
    for origin, key, oracle in zip(origins, keys, expected):
        assert {name: set(srcs) for name, srcs in key} == oracle, origin
    for i, j in combinations(range(len(origins)), 2):
        assert (keys[i] == keys[j]) == (expected[i] == expected[j])
