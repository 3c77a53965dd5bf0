import dataclasses
import gzip
import json
import time

import pytest

from cspsop import policy as policy_module
from cspsop.corpus import (
    _FIELD_TYPES,
    CorpusFormatError,
    PageRecord,
    UnsupportedSchemaError,
    iter_corpus,
    iter_site_groups,
    read_corpus,
    record_from_dict,
    record_to_dict,
    write_corpus,
)
from cspsop.policy import ENFORCE, META_ELEMENT, parse_policy
from helpers import make_corpus, make_page


@pytest.fixture
def records():
    return [
        make_page("http://main.com/", "default-src 'self'", iframes=["http://main.com/b.html"]),
        make_page("http://main.com/b.html", depth="iframe-of-home"),
        make_page("http://sub.main.com/x", report_only=("script-src 'none'",), depth="linked"),
    ]


class TestRoundTrip:
    def test_three_records(self, records, tmp_path):
        path = tmp_path / "corpus.jsonl"
        assert write_corpus(records, path) == 3
        loaded = read_corpus(path)
        assert loaded == records

    def test_gzip_autodetected(self, records, tmp_path):
        path = tmp_path / "corpus.jsonl.gz"
        write_corpus(records, path)
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert read_corpus(path) == records

    def test_failed_record_round_trip(self, tmp_path):
        record = make_page("http://main.com/dead", fetch_status="timeout")
        record.http_status = None
        path = tmp_path / "corpus.jsonl"
        write_corpus([record], path)
        assert read_corpus(path) == [record]

    def test_large_corpus(self, tmp_path):
        corpus = make_corpus(seed=3, sites=2, pages_per_site=40)
        path = tmp_path / "big.jsonl"
        write_corpus(corpus, path)
        assert read_corpus(path) == corpus

    def test_bodies_never_stored(self, records):
        for record in records:
            assert "body" not in record_to_dict(record)


def _corpus_with_schema(records, tmp_path, schema):
    path = tmp_path / "corpus.jsonl"
    write_corpus(records, path)
    lines = path.read_text().splitlines()
    lines[0] = json.dumps({**json.loads(lines[0]), "schema": schema})
    path.write_text("\n".join(lines) + "\n")
    return path


class TestErrors:
    def test_corrupted_line_cites_line_number(self, records, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(records, path)
        lines = path.read_text().splitlines()
        lines[2] = '{"broken": '
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError) as excinfo:
            read_corpus(path)
        assert excinfo.value.line == 3
        assert "line 3" in str(excinfo.value)

    @pytest.mark.parametrize(
        "policy",
        [
            {"raw": 5, "disposition": "enforce", "delivery": "http-header"},
            {"raw": "img-src 'none'", "disposition": "block", "delivery": "http-header"},
            {"raw": "img-src 'none'", "disposition": "enforce", "delivery": "meta"},
        ],
        ids=["raw-not-string", "unknown-disposition", "unknown-delivery"],
    )
    def test_malformed_policy_cites_line_number(self, records, tmp_path, policy):
        path = tmp_path / "corpus.jsonl"
        write_corpus(records, path)
        lines = path.read_text().splitlines()
        data = json.loads(lines[2])
        data["policies"].append(policy)
        lines[2] = json.dumps(data)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError) as excinfo:
            read_corpus(path)
        assert excinfo.value.line == 3

    def test_schema_mismatch(self, records, tmp_path):
        with pytest.raises(UnsupportedSchemaError):
            read_corpus(_corpus_with_schema(records, tmp_path, 99))

    @pytest.mark.parametrize("schema", [True, 1.0])
    def test_schema_is_an_exact_integer(self, records, tmp_path, schema):
        # true == 1 and 1.0 == 1 in Python; neither is schema 1.
        with pytest.raises(UnsupportedSchemaError):
            read_corpus(_corpus_with_schema(records, tmp_path, schema))

    def test_not_a_corpus_file(self, tmp_path):
        path = tmp_path / "noise.jsonl"
        path.write_text('{"something": "else"}\n')
        with pytest.raises(CorpusFormatError):
            read_corpus(path)

    def test_missing_record_field(self, records, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_corpus(records, path)
        with path.open("a") as fh:
            fh.write('{"url": "http://x.com/"}\n')
        with pytest.raises(CorpusFormatError) as excinfo:
            read_corpus(path)
        assert excinfo.value.line == 5


class TestHeader:
    def test_metadata_carried(self, records, tmp_path):
        path = tmp_path / "corpus.jsonl"
        meta = {"seeds": 1, "config": {"max_pages_per_site": 7}}
        write_corpus(records, path, meta=meta, created="2026-08-10T00:00:00+00:00")
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == 1
        assert header["created"] == "2026-08-10T00:00:00+00:00"
        assert header["crawl"] == meta

    def test_byte_reproducible_with_fixed_timestamp(self, records, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(records, a, created="2026-08-10T00:00:00+00:00")
        write_corpus(records, b, created="2026-08-10T00:00:00+00:00")
        assert a.read_bytes() == b.read_bytes()

    def test_gzip_is_byte_reproducible(self, records, tmp_path, monkeypatch):
        # Two names, written a second apart: the gzip header holds neither.
        written = []
        for now, name in [(1_700_000_000.0, "c1.jsonl.gz"), (1_700_000_001.0, "second.jsonl.gz")]:
            monkeypatch.setattr(time, "time", lambda: now)
            write_corpus(records, tmp_path / name, created="2024-01-01T00:00:00+00:00")
            written.append((tmp_path / name).read_bytes())
        assert written[0] == written[1]
        write_corpus(records, tmp_path / "plain.jsonl", created="2024-01-01T00:00:00+00:00")
        assert gzip.decompress(written[0]) == (tmp_path / "plain.jsonl").read_bytes()


def test_iter_corpus_is_streaming(records, tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(records, path)
    iterator = iter_corpus(path)
    first = next(iterator)
    assert first == records[0]
    assert list(iterator) == records[1:]


def test_blank_record_lines_are_skipped(records, tmp_path):
    clean, padded = tmp_path / "clean.jsonl", tmp_path / "padded.jsonl"
    write_corpus(records, clean)
    header, *lines = clean.read_text().splitlines()
    padded.write_text("\n".join([header, "", lines[0], " \t", *lines[1:], "", ""]))
    assert list(iter_corpus(padded)) == records
    assert list(iter_site_groups(padded)) == list(iter_site_groups(clean))


class TestPolicySharing:
    def test_equal_policies_share_one_object(self, tmp_path):
        corpus = make_corpus(seed=3, sites=2, pages_per_site=40)
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)
        loaded = read_corpus(path)
        objects: dict[tuple, set[int]] = {}
        for record in loaded:
            for p in record.policies:
                objects.setdefault((p.raw, p.disposition, p.delivery), set()).add(id(p))
        assert all(len(ids) == 1 for ids in objects.values())
        assert len(objects) < sum(len(r.policies) for r in loaded)
        lines = path.read_text().splitlines()[1:]
        assert loaded == [record_from_dict(json.loads(line)) for line in lines]

    def test_delivery_is_part_of_the_identity(self, tmp_path):
        text = "default-src 'self'"
        header, meta = make_page("http://a.com/", text), make_page("http://a.com/m")
        meta.policies = [parse_policy(text, ENFORCE, META_ELEMENT)]
        path = tmp_path / "corpus.jsonl"
        write_corpus([header, meta, make_page("http://a.com/h", text)], path)
        loaded = read_corpus(path)
        assert loaded[0].policies[0] is loaded[2].policies[0]
        assert loaded[1].policies[0] is not loaded[0].policies[0]
        assert loaded[1].policies[0].delivery == META_ELEMENT

    def test_repeated_text_parsed_once_per_read(self, tmp_path, monkeypatch):
        # A read parses nothing and builds one Policy per distinct entry.
        corpus = make_corpus(seed=3, sites=2, pages_per_site=40)
        path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, path)

        def no_parse(raw):
            raise AssertionError(f"parsed {raw!r}")

        monkeypatch.setattr(policy_module, "_parse", no_parse)
        for _ in range(2):
            loaded = read_corpus(path)
            delivered = [p for r in loaded for p in r.policies]
            distinct = {(p.raw, p.disposition, p.delivery) for p in delivered}
            assert len(distinct) < len(delivered)
            assert len({id(p) for p in delivered}) == len(distinct)


_FIELDS = dataclasses.fields(PageRecord)
_REQUIRED = [f.name for f in _FIELDS if f.default is f.default_factory is dataclasses.MISSING]
_DEFAULTS = {
    f.name: f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
    for f in _FIELDS if f.name not in _REQUIRED
}


def _read_edited(tmp_path, edit):
    """Reads a two-record corpus whose second record line (line 3) has
    been passed through edit."""
    page = make_page("http://main.com/", "default-src 'self'", iframes=["http://main.com/b"],
                     links=["http://main.com/c"])
    page.srcdoc_iframes = 2
    path = tmp_path / "corpus.jsonl"
    write_corpus([page, page], path)
    lines = path.read_text().splitlines()
    data = json.loads(lines[2])
    edit(data)
    lines[2] = json.dumps(data)
    path.write_text("\n".join(lines) + "\n")
    return read_corpus(path)


class TestRecordFields:
    """PageRecord declares the fields and their defaults; the corpus only
    adds each field's JSON types."""

    def test_field_types_name_every_field(self):
        assert list(_FIELD_TYPES) == [f.name for f in _FIELDS]

    @pytest.mark.parametrize("name, default", _DEFAULTS.items())
    def test_omitted_field_takes_its_default(self, tmp_path, name, default):
        loaded = _read_edited(tmp_path, lambda data: data.pop(name))
        assert getattr(loaded[1], name) == default
        assert getattr(loaded[0], name) != default

    @pytest.mark.parametrize("name", _REQUIRED)
    def test_omitted_required_field_cites_line_number(self, tmp_path, name):
        with pytest.raises(CorpusFormatError, match=name) as excinfo:
            _read_edited(tmp_path, lambda data: data.pop(name))
        assert excinfo.value.line == 3

    @pytest.mark.parametrize(
        "name, value",
        [(f.name, True) for f in _FIELDS]
        + [("url", 1), ("site", 1), ("http_status", "200"), ("srcdoc_iframes", None),
           ("links_same_site", [1]), ("iframes_same_site", [None]), ("policies", {}),
           ("origin", {"scheme": "http", "host": "main.com", "port": "80"}),
           ("origin", {"scheme": "http", "host": "main.com", "port": True}),
           ("origin", {"scheme": 1, "host": "main.com", "port": 80}),
           ("origin", {"scheme": "http", "port": 80})],
    )
    def test_wrong_json_type_cites_line_number(self, tmp_path, name, value):
        with pytest.raises(CorpusFormatError) as excinfo:
            _read_edited(tmp_path, lambda data: data.update({name: value}))
        assert excinfo.value.line == 3

    def test_unknown_keys_are_ignored(self, tmp_path):
        loaded = _read_edited(tmp_path, lambda data: data.update(body="<html>"))
        assert loaded[0] == loaded[1]
