"""Static browser-test pages: does a page's CSP reach sandboxed srcdoc iframes?

Engines disagree. WebKit- and Blink-based browsers always apply the page's
policy inside a srcdoc iframe; Gecko applies it only when the sandbox grants
allow-same-origin, which lets a whitelisted third-party script sidestep the
page policy by loading anything inside an allow-scripts srcdoc frame.
The generated pages record probe outcomes into the DOM (via postMessage)
and ping a beacon endpoint from inside the frame, so verdicts can be
collected manually or server-side; no browser automation is bundled.
"""

from __future__ import annotations

import base64
import html
import json
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import urlsplit

from .normalize import normalize
from .origins import DEFAULT_PORTS, UnsupportedUrlError, origin_of
from .policy import Policy, parse_policy, parse_source_expression

ENGINE_WEBKIT_BLINK = "webkit-blink"
ENGINE_GECKO = "gecko"
ENGINES = (ENGINE_WEBKIT_BLINK, ENGINE_GECKO)

BLOCKED = "blocked"
ALLOWED = "allowed"

SANDBOX_FLAGS = frozenset({"allow-scripts", "allow-same-origin"})

DEFAULT_PAGE_CSP = "default-src 'none'; script-src 'self'; img-src 'self'; style-src 'self'"
DEFAULT_BEACON = "https://probe-host.invalid"
DEFAULT_PAGE_ORIGIN = "http://localhost:8000"

# 1x1 transparent PNG, used as the image probe body.
_PIXEL_PNG = base64.b64decode(
    "iVBORw0KGgoAAAANSUhEUgAAAAEAAAABCAYAAAAfFcSJAAAADUlEQVR42mNkYPhfDwAChwGA60e6kgAAAABJRU5ErkJggg=="
)


@dataclass(frozen=True)
class Probe:
    """Resource-load attempt the page CSP must forbid at top level."""

    kind: str  # "script" | "image"
    directive: str
    url: str
    needs_scripts: bool


@dataclass(frozen=True)
class FixtureCase:
    case_id: str
    page_csp: Policy
    sandbox_flags: frozenset[str]
    probe: Probe
    expected: dict[str, str]


def expected_behavior(sandbox_flags: frozenset[str], probe: Probe) -> dict[str, str]:
    """Per-engine verdict for one flag set and probe.

    Spec-following engines apply the page CSP to srcdoc content regardless
    of sandboxing. Gecko inherits the policy only into same-origin frames,
    so without allow-same-origin the probe goes through, unless it needs
    scripts that the sandbox forbids anyway.
    """
    gecko = BLOCKED
    if "allow-same-origin" not in sandbox_flags:
        if probe.needs_scripts and "allow-scripts" not in sandbox_flags:
            gecko = BLOCKED  # vacuous: nothing can execute in the frame
        else:
            gecko = ALLOWED
    return {ENGINE_WEBKIT_BLINK: BLOCKED, ENGINE_GECKO: gecko}


def _source_matches(source: str, url: str) -> bool:
    """Whether one canonical source string of a normalized policy matches url."""
    expr = parse_source_expression(source)
    if expr is None or expr.kind in ("keyword", "nonce", "hash"):
        return False  # keywords never match a concrete URL
    if expr.kind == "wildcard-all":
        return True
    target = urlsplit(url)
    target_port = target.port or DEFAULT_PORTS.get(target.scheme)
    if expr.kind == "scheme-source":
        return target.scheme == expr.scheme
    if expr.scheme != target.scheme:
        return False
    host = (target.hostname or "").lower()
    if expr.host.startswith("*."):
        if not host.endswith(expr.host[1:]) or host == expr.host[2:]:
            return False
    elif host != expr.host:
        return False
    if expr.port != "*":
        source_port = int(expr.port) if expr.port else DEFAULT_PORTS.get(expr.scheme)
        if source_port != target_port:
            return False
    return not expr.path or (target.path or "/").startswith(expr.path)


def policy_allows(policy: Policy, page_origin_url: str, directive: str, url: str) -> bool:
    """Would the policy let the top-level document load url for directive?

    This is only the generation-time self-check for probes, not an
    enforcement engine; it evaluates the normalized source set.
    """
    normalized = normalize(policy, origin_of(page_origin_url))
    sources = normalized.directives.get(directive, frozenset())
    return any(_source_matches(s, url) for s in sources)


def default_cases(
    beacon_base: str = DEFAULT_BEACON,
    page_csp: str = DEFAULT_PAGE_CSP,
) -> list[FixtureCase]:
    """All four sandbox-flag subsets crossed with a script and an image probe."""
    probes = [
        Probe("script", "script-src", f"{beacon_base}/probe.js", needs_scripts=True),
        Probe("image", "img-src", f"{beacon_base}/pixel.png", needs_scripts=False),
    ]
    flag_subsets = [
        frozenset(),
        frozenset({"allow-scripts"}),
        frozenset({"allow-same-origin"}),
        frozenset({"allow-scripts", "allow-same-origin"}),
    ]
    policy = parse_policy(page_csp)
    cases = []
    for flags in flag_subsets:
        flag_id = "+".join(sorted(f.removeprefix("allow-") for f in flags)) or "none"
        for probe in probes:
            cases.append(
                FixtureCase(
                    case_id=f"sandbox-{flag_id}--{probe.kind}",
                    page_csp=policy,
                    sandbox_flags=flags,
                    probe=probe,
                    expected=expected_behavior(flags, probe),
                )
            )
    return cases


_RECORDER_JS = """\
// Same-origin recorder: listens for probe reports from the srcdoc iframe
// and writes the outcome into the DOM for manual or scripted collection.
(function () {
  var result = document.getElementById("result");
  result.textContent = "no-signal (treat as blocked / not executed)";
  window.addEventListener("message", function (event) {
    var data = event.data || {};
    if (data.cspsopProbe) {
      result.textContent = "allowed: " + data.cspsopProbe;
      result.setAttribute("data-outcome", "allowed");
    }
  });
})();
"""

_PROBE_JS = """\
// Served from the probe host. Executing at all means the embedding
// context let a non-whitelisted script through.
(function () {
  try { parent.postMessage({ cspsopProbe: "script" }, "*"); } catch (e) {}
  try { (new Image()).src = document.currentScript.src.replace(/probe\\.js.*/, "seen") +
        "?probe=script&href=" + encodeURIComponent(location.href); } catch (e) {}
})();
"""


def _srcdoc_markup(case: FixtureCase) -> str:
    probe_url = f"{case.probe.url}?case={case.case_id}"
    if case.probe.kind == "script":
        return f'<script src="{probe_url}"></script>'
    return f'<img src="{probe_url}" alt="probe">'


def _index_html(case: FixtureCase) -> str:
    csp = case.page_csp.serialize()
    sandbox_attr = " ".join(sorted(case.sandbox_flags))
    srcdoc = html.escape(_srcdoc_markup(case), quote=True)
    return f"""<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<meta http-equiv="Content-Security-Policy" content="{html.escape(csp, quote=True)}">
<title>srcdoc sandbox case {case.case_id}</title>
</head>
<body>
<h1>{case.case_id}</h1>
<p>Page policy: <code>{html.escape(csp)}</code></p>
<p>Sandbox flags: <code>{sandbox_attr or "(empty)"}</code>; probe: {case.probe.kind}</p>
<p id="result"></p>
<script src="../../recorder.js"></script>
<iframe sandbox="{sandbox_attr}" srcdoc="{srcdoc}"></iframe>
</body>
</html>
"""


def _check_case(case: FixtureCase, page_origin_url: str) -> None:
    """Raise the ValueError of a case that generate_fixture rejects."""
    bad = case.sandbox_flags - SANDBOX_FLAGS
    if bad:
        raise ValueError(f"unsupported sandbox flags: {sorted(bad)}")
    # A relative probe loads from the page's own origin, which no source of
    # the self-check matches and 'self' may allow.
    try:
        origin_of(case.probe.url)
    except UnsupportedUrlError as exc:
        raise ValueError(f"probe {case.probe.url} is not an absolute http(s) URL") from exc
    if policy_allows(case.page_csp, page_origin_url, case.probe.directive, case.probe.url):
        raise ValueError(
            f"probe {case.probe.url} is allowed by the page CSP ({case.probe.directive})"
        )


def generate_fixture(case: FixtureCase, out_dir: str | Path, page_origin_url: str = DEFAULT_PAGE_ORIGIN) -> list[Path]:
    """Write one case directory: the page, its header stub, and the verdicts.

    Rejects sandbox flags outside the supported set and refuses to generate
    a case whose probe would be allowed by the page CSP at top level (such a
    probe could never demonstrate policy inheritance).
    """
    _check_case(case, page_origin_url)
    case_dir = Path(out_dir) / "cases" / case.case_id
    case_dir.mkdir(parents=True, exist_ok=True)
    files = []
    index = case_dir / "index.html"
    index.write_text(_index_html(case), encoding="utf-8")
    files.append(index)
    headers = case_dir / "index.headers"
    headers.write_text(f"Content-Security-Policy: {case.page_csp.serialize()}\n", encoding="utf-8")
    files.append(headers)
    expected = case_dir / "expected.json"
    expected.write_text(
        json.dumps(
            {
                "case": case.case_id,
                "page_csp": case.page_csp.serialize(),
                "sandbox_flags": sorted(case.sandbox_flags),
                "probe": {"kind": case.probe.kind, "directive": case.probe.directive, "url": case.probe.url},
                "expected": dict(sorted(case.expected.items())),
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    files.append(expected)
    return files


def generate_suite(
    out_dir: str | Path,
    beacon_base: str = DEFAULT_BEACON,
    page_origin_url: str = DEFAULT_PAGE_ORIGIN,
    page_csp: str = DEFAULT_PAGE_CSP,
) -> dict:
    """Generate every default case plus shared assets and a manifest.

    Returns the manifest dict (also written to manifest.json). The probe
    resources under probe/ are meant to be served from the beacon host.
    Every case is checked before anything is written, so a rejected case
    leaves out_dir untouched.
    """
    cases = default_cases(beacon_base=beacon_base, page_csp=page_csp)
    for case in cases:
        _check_case(case, page_origin_url)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "recorder.js").write_text(_RECORDER_JS, encoding="utf-8")
    probe_dir = out / "probe"
    probe_dir.mkdir(exist_ok=True)
    (probe_dir / "probe.js").write_text(_PROBE_JS, encoding="utf-8")
    (probe_dir / "pixel.png").write_bytes(_PIXEL_PNG)

    manifest_cases = []
    for case in cases:
        generate_fixture(case, out, page_origin_url=page_origin_url)
        manifest_cases.append(
            {
                "case": case.case_id,
                "path": f"cases/{case.case_id}/index.html",
                "sandbox_flags": sorted(case.sandbox_flags),
                "probe": case.probe.kind,
                "expected": dict(sorted(case.expected.items())),
            }
        )
    manifest = {
        "beacon_base": beacon_base,
        "page_csp": page_csp,
        "page_origin": page_origin_url,
        "cases": manifest_cases,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest
