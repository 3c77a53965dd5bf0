import json

import pytest

from cspsop.crawler import scan_document
from cspsop.fixtures import (
    ALLOWED,
    BLOCKED,
    DEFAULT_PAGE_CSP,
    ENGINE_GECKO,
    ENGINE_WEBKIT_BLINK,
    FixtureCase,
    Probe,
    default_cases,
    expected_behavior,
    generate_fixture,
    generate_suite,
    policy_allows,
)
from cspsop.policy import parse_policy

SCRIPT_PROBE = Probe("script", "script-src", "https://probe-host.invalid/probe.js", needs_scripts=True)
IMAGE_PROBE = Probe("image", "img-src", "https://probe-host.invalid/pixel.png", needs_scripts=False)


class TestExpectedBehavior:
    def test_allow_scripts_only_diverges(self):
        expected = expected_behavior(frozenset({"allow-scripts"}), SCRIPT_PROBE)
        assert expected[ENGINE_WEBKIT_BLINK] == BLOCKED
        assert expected[ENGINE_GECKO] == ALLOWED

    def test_allow_same_origin_blocked_everywhere(self):
        for flags in (frozenset({"allow-same-origin"}), frozenset({"allow-scripts", "allow-same-origin"})):
            for probe in (SCRIPT_PROBE, IMAGE_PROBE):
                assert set(expected_behavior(flags, probe).values()) == {BLOCKED}

    def test_empty_sandbox_script_probe_vacuously_blocked(self):
        expected = expected_behavior(frozenset(), SCRIPT_PROBE)
        assert expected[ENGINE_GECKO] == BLOCKED
        assert expected[ENGINE_WEBKIT_BLINK] == BLOCKED

    def test_empty_sandbox_image_probe_still_diverges(self):
        # images load without script execution, so the inheritance gap shows
        expected = expected_behavior(frozenset(), IMAGE_PROBE)
        assert expected[ENGINE_GECKO] == ALLOWED
        assert expected[ENGINE_WEBKIT_BLINK] == BLOCKED


class TestPolicyAllows:
    def test_cross_host_script_denied_by_self(self):
        policy = parse_policy(DEFAULT_PAGE_CSP)
        assert not policy_allows(policy, "http://localhost:8000", "script-src", "https://cdn.evil.net/x.js")

    def test_same_origin_allowed_by_self(self):
        policy = parse_policy(DEFAULT_PAGE_CSP)
        assert policy_allows(policy, "http://localhost:8000", "script-src", "http://localhost:8000/app.js")

    def test_wildcard_allows_everything(self):
        policy = parse_policy("img-src *")
        assert policy_allows(policy, "http://x.com", "img-src", "https://anything.net/i.png")

    def test_scheme_source(self):
        policy = parse_policy("img-src https:")
        assert policy_allows(policy, "http://x.com", "img-src", "https://a.net/i.png")
        assert not policy_allows(policy, "http://x.com", "img-src", "http://a.net/i.png")

    def test_host_wildcard_pattern(self):
        policy = parse_policy("script-src *.cdn.net")
        assert policy_allows(policy, "https://x.com", "script-src", "https://a.cdn.net/l.js")
        assert not policy_allows(policy, "https://x.com", "script-src", "https://cdn.net/l.js")

    def test_absent_directive_falls_back_to_permissive(self):
        policy = parse_policy("img-src 'none'")
        # script-src missing, no default-src: most permissive fill applies
        assert policy_allows(policy, "http://x.com", "script-src", "https://any.net/x.js")

    def test_other_host_same_scheme(self):
        policy = parse_policy("img-src https://a.com")
        assert not policy_allows(policy, "http://x.com", "img-src", "https://b.com/i.png")

    def test_port_must_match(self):
        policy = parse_policy("img-src https://a.com:8443")
        assert not policy_allows(policy, "http://x.com", "img-src", "https://a.com/i.png")
        assert policy_allows(policy, "http://x.com", "img-src", "https://a.com:8443/i.png")

    def test_directory_path_must_prefix(self):
        policy = parse_policy("img-src https://a.com/img/")
        assert not policy_allows(policy, "http://x.com", "img-src", "https://a.com/css/x.png")
        assert policy_allows(policy, "http://x.com", "img-src", "https://a.com/img/x.png")


class TestGenerateFixture:
    def test_rejects_unknown_flags(self, tmp_path):
        case = FixtureCase(
            case_id="bad-flags",
            page_csp=parse_policy(DEFAULT_PAGE_CSP),
            sandbox_flags=frozenset({"allow-popups"}),
            probe=SCRIPT_PROBE,
            expected={},
        )
        with pytest.raises(ValueError, match="unsupported sandbox flags"):
            generate_fixture(case, tmp_path)

    def test_rejects_probe_allowed_at_top_level(self, tmp_path):
        case = FixtureCase(
            case_id="useless-probe",
            page_csp=parse_policy("script-src *"),
            sandbox_flags=frozenset({"allow-scripts"}),
            probe=SCRIPT_PROBE,
            expected={},
        )
        with pytest.raises(ValueError, match="allowed by the page CSP"):
            generate_fixture(case, tmp_path)

    @pytest.mark.parametrize("url", ["//localhost:8000/probe.js", "notaurl/probe.js"])
    def test_rejects_relative_probe(self, tmp_path, url):
        # The probe would load from the page's own origin, which 'self' allows.
        case = FixtureCase(
            case_id="relative-probe",
            page_csp=parse_policy(DEFAULT_PAGE_CSP),
            sandbox_flags=frozenset({"allow-scripts"}),
            probe=Probe("script", "script-src", url, needs_scripts=True),
            expected={},
        )
        with pytest.raises(ValueError, match="not an absolute http"):
            generate_fixture(case, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_writes_page_headers_and_expectations(self, tmp_path):
        case = default_cases()[0]
        files = generate_fixture(case, tmp_path)
        names = sorted(f.name for f in files)
        assert names == ["expected.json", "index.headers", "index.html"]
        headers = (tmp_path / "cases" / case.case_id / "index.headers").read_text()
        assert headers.startswith("Content-Security-Policy: ")


class TestGenerateSuite:
    def test_covers_all_flag_subsets_and_probes(self, tmp_path):
        manifest = generate_suite(tmp_path)
        assert len(manifest["cases"]) == 8
        flag_sets = {frozenset(c["sandbox_flags"]) for c in manifest["cases"]}
        assert flag_sets == {
            frozenset(),
            frozenset({"allow-scripts"}),
            frozenset({"allow-same-origin"}),
            frozenset({"allow-scripts", "allow-same-origin"}),
        }
        probes = {c["probe"] for c in manifest["cases"]}
        assert probes == {"script", "image"}

    def test_pages_parse_with_one_srcdoc_iframe(self, tmp_path):
        manifest = generate_suite(tmp_path)
        for case in manifest["cases"]:
            html = (tmp_path / case["path"]).read_text()
            scan = scan_document(html)
            assert scan.srcdoc_count == 1
            assert scan.iframe_srcs == []  # the only iframe is the srcdoc one
            assert scan.meta_csp == [DEFAULT_PAGE_CSP.replace("; ", "; ")]

    def test_probe_resources_and_recorder_written(self, tmp_path):
        generate_suite(tmp_path)
        assert (tmp_path / "recorder.js").exists()
        assert (tmp_path / "probe" / "probe.js").exists()
        assert (tmp_path / "probe" / "pixel.png").read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"

    def test_manifest_matches_expected_json(self, tmp_path):
        manifest = generate_suite(tmp_path)
        for case in manifest["cases"]:
            expected = json.loads(
                (tmp_path / "cases" / case["case"] / "expected.json").read_text()
            )
            assert expected["expected"] == case["expected"]

    @pytest.mark.parametrize("beacon", ["//localhost:8000", "notaurl"])
    def test_rejects_relative_beacon(self, tmp_path, beacon):
        with pytest.raises(ValueError, match="not an absolute http"):
            generate_suite(tmp_path, beacon_base=beacon)
        assert list(tmp_path.iterdir()) == []

    def test_probe_urls_use_beacon_base(self, tmp_path):
        manifest = generate_suite(tmp_path, beacon_base="https://collect.example.net")
        html = (tmp_path / manifest["cases"][0]["path"]).read_text()
        assert "https://collect.example.net/" in html
