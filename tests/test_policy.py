import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cspsop.normalize import normalize
from cspsop.origins import Origin
from cspsop.policy import (
    ENFORCE,
    HTTP_HEADER,
    META_ELEMENT,
    REPORT_ONLY,
    ParseWarning,
    Policy,
    _parse,
    extract_policies,
    parse_policy,
    parse_source_expression,
)
from grammar import policy_text


class TestParsePolicy:
    def test_running_example_policy(self):
        policy = parse_policy("default-src 'none'; script-src 'self'; child-src 'self'")
        assert len(policy.directives) == 3
        script = policy.directives["script-src"]
        assert [s.token() for s in script.sources] == ["'self'"]
        assert policy.directives["default-src"].sources[0].keyword == "none"

    def test_empty_policy(self):
        policy = parse_policy("")
        assert policy.directives == {}
        assert policy.warnings == ()

    def test_scheme_source(self):
        policy = parse_policy("default-src 'self'; script-src third.com; child-src https:")
        assert len(policy.directives) == 3
        child = policy.directives["child-src"]
        assert len(child.sources) == 1
        assert child.sources[0].kind == "scheme-source"
        assert child.sources[0].scheme == "https"
        script = policy.directives["script-src"]
        assert script.sources[0].kind == "host-source"
        assert script.sources[0].host == "third.com"
        assert script.sources[0].scheme is None

    def test_duplicate_directive_first_wins(self):
        policy = parse_policy("script-src a.com; script-src b.com")
        assert [s.host for s in policy.directives["script-src"].sources] == ["a.com"]
        assert [w.kind for w in policy.warnings] == ["duplicate-directive"]

    def test_misplaced_none_dropped_with_warning(self):
        policy = parse_policy("script-src 'none' a.com")
        assert [s.host for s in policy.directives["script-src"].sources] == ["a.com"]
        assert any(w.kind == "misplaced-none" for w in policy.warnings)

    def test_lone_none_kept(self):
        policy = parse_policy("script-src 'none'")
        assert policy.directives["script-src"].sources[0].keyword == "none"
        assert policy.warnings == ()

    def test_malformed_source_skipped(self):
        policy = parse_policy("script-src @@bad@@ good.com")
        assert [s.host for s in policy.directives["script-src"].sources] == ["good.com"]
        assert any(w.kind == "malformed-source" for w in policy.warnings)

    def test_unknown_directive_carried(self):
        policy = parse_policy("base-uri 'self'; script-src a.com")
        assert "base-uri" in policy.directives
        assert any(w.kind == "unknown-directive" and w.detail == "base-uri" for w in policy.warnings)

    def test_directive_names_lowercased(self):
        policy = parse_policy("SCRIPT-src HTTPS://Example.COM")
        source = policy.directives["script-src"].sources[0]
        assert source.scheme == "https"
        assert source.host == "example.com"

    def test_sandbox_value_list(self):
        policy = parse_policy("sandbox allow-scripts allow-same-origin")
        sandbox = policy.directives["sandbox"]
        assert sandbox.sources == ()
        assert sandbox.opaque_values == ("allow-scripts", "allow-same-origin")

    def test_empty_sandbox(self):
        policy = parse_policy("sandbox")
        assert policy.directives["sandbox"].opaque_values == ()

    def test_nonce_and_hash(self):
        policy = parse_policy("script-src 'nonce-QUJD' 'sha256-Zm9vYmFy'")
        kinds = [s.kind for s in policy.directives["script-src"].sources]
        assert kinds == ["nonce", "hash"]
        nonce, digest = policy.directives["script-src"].sources
        assert nonce.nonce_value == "QUJD"
        assert digest.hash_algorithm == "sha256"

    def test_invalid_base64_nonce_is_malformed(self):
        policy = parse_policy("script-src 'nonce-???'")
        assert policy.directives["script-src"].sources == ()
        assert any(w.kind == "malformed-source" for w in policy.warnings)

    def test_port_and_path_sources(self):
        policy = parse_policy("script-src example.com:8080/Js/App.js *.cdn.net:*")
        first, second = policy.directives["script-src"].sources
        assert (first.host, first.port, first.path) == ("example.com", "8080", "/Js/App.js")
        assert (second.host, second.port) == ("*.cdn.net", "*")

    @pytest.mark.parametrize(
        "keyword", ["'strict-dynamic'", "'unsafe-hashes'", "'wasm-unsafe-eval'", "'report-sample'"]
    )
    def test_csp3_keyword_is_a_malformed_source(self, keyword):
        # CSP2 reading: a keyword this grammar does not know restricts nothing.
        policy = parse_policy(f"script-src 'self' {keyword}")
        assert [s.token() for s in policy.directives["script-src"].sources] == ["'self'"]
        assert policy.warnings == (ParseWarning("malformed-source", f"script-src: {keyword}"),)
        origin = Origin("http", "main.com", 80)
        assert normalize(policy, origin) == normalize(parse_policy("script-src 'self'"), origin)

    @pytest.mark.parametrize("token, parsed", [
        ("a:", ("scheme-source", "a", None, None, None)),
        ("HTTPS:", ("scheme-source", "https", None, None, None)),
        ("a.b-c+d:", ("scheme-source", "a.b-c+d", None, None, None)),
        ("a:80", ("host-source", None, "a", "80", None)),
        ("x.com/a:b", ("host-source", None, "x.com", None, "/a:b")),
        ("https://A.com:443/P", ("host-source", "https", "a.com", "443", "/P")),
        ("data:x", None), ("http://a:", None), ("1a:", None), ("a::", None),
    ])
    def test_scheme_or_host_source(self, token, parsed):
        expr = parse_source_expression(token)
        assert (expr and (expr.kind, expr.scheme, expr.host, expr.port, expr.path)) == parsed

    def test_out_of_range_port_malformed(self):
        policy = parse_policy("script-src example.com:99999")
        assert policy.directives["script-src"].sources == ()

    def test_malformed_hash_does_not_cancel_unsafe_inline(self):
        # Only a well-formed hash makes a browser ignore 'unsafe-inline'.
        assert parse_source_expression("'sha256-***'") is None
        policy = parse_policy("script-src 'unsafe-inline' 'sha256-***'")
        assert policy.warnings == (ParseWarning("malformed-source", "script-src: 'sha256-***'"),)
        normalized = normalize(policy, Origin("http", "main.com", 80))
        assert normalized.directives["script-src"] == frozenset({"'unsafe-inline'"})

    def test_not_equal_to_its_text(self):
        assert parse_policy("x") != "x"


class TestSourceExpression:
    def test_wildcard(self):
        assert parse_source_expression("*").kind == "wildcard-all"

    def test_keyword_case_insensitive(self):
        assert parse_source_expression("'SELF'").keyword == "self"

    def test_garbage_rejected(self):
        assert parse_source_expression("'garbage'") is None
        assert parse_source_expression("http://") is None
        assert parse_source_expression("foo.*.com") is None

    # A token ends at its last character: a newline after it is no part of
    # a scheme, a host or a base64 value.
    @pytest.mark.parametrize("token", ["https:\n", "a.com\n", "'nonce-abc\n'", "'sha256-abc\n'"])
    def test_trailing_newline_rejected(self, token):
        assert parse_source_expression(token) is None


class TestExtractPolicies:
    def test_report_only_header(self):
        policies = extract_policies(
            [("Content-Security-Policy-Report-Only", "default-src 'self'")], []
        )
        assert len(policies) == 1
        assert policies[0].disposition == REPORT_ONLY

    def test_empty_inputs(self):
        assert extract_policies([], []) == []

    def test_two_headers_order_preserved(self):
        policies = extract_policies(
            [
                ("Content-Security-Policy", "script-src a.com"),
                ("X-Other", "ignored"),
                ("content-security-policy", "script-src b.com"),
            ],
            [],
        )
        assert len(policies) == 2
        assert policies[0].directives["script-src"].sources[0].host == "a.com"
        assert policies[1].directives["script-src"].sources[0].host == "b.com"

    def test_meta_always_enforced(self):
        policies = extract_policies([], ["default-src 'none'"])
        assert policies[0].disposition == ENFORCE
        assert policies[0].delivery == META_ELEMENT

    def test_headers_before_meta(self):
        policies = extract_policies(
            [("Content-Security-Policy", "img-src a.com")], ["img-src b.com"]
        )
        assert [p.delivery for p in policies] == [HTTP_HEADER, META_ELEMENT]


@given(st.integers(0, 2**32))
@settings(max_examples=300)
def test_serialize_round_trip(seed):
    text = policy_text(random.Random(seed))
    parsed = parse_policy(text)
    reparsed = parse_policy(parsed.serialize())
    # == parses both sides on first use, whichever side is compared first
    assert reparsed == parsed
    assert parse_policy(text) == parse_policy(parsed.serialize())
    assert (parsed.directives, parsed.warnings) == _parse(text)
    assert reparsed.serialize() == parsed.serialize()
    assert parse_policy(text, REPORT_ONLY) != reparsed


@given(st.text(max_size=512))
@settings(max_examples=300)
def test_parse_total_on_arbitrary_text(raw):
    policy = parse_policy(raw)
    assert isinstance(policy, Policy)
    assert (policy.directives, policy.warnings) == _parse(raw)
    assert isinstance(policy.serialize(), str)
    # equal raw text compares equal unparsed; a trailing ";" forces a parse
    assert parse_policy(raw) == policy
    assert parse_policy(raw + ";") == policy


def test_parse_total_on_64kib_binary_noise():
    rng = random.Random(1234)
    blob = bytes(rng.randrange(256) for _ in range(64 * 1024)).decode("latin-1")
    policy = parse_policy(blob)
    assert isinstance(policy, Policy)
    assert isinstance(policy.directives, dict)
    assert isinstance(policy.serialize(), str)
