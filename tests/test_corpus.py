import json

import pytest

from cspsop import policy as policy_module
from cspsop.corpus import (
    CorpusFormatError,
    UnsupportedSchemaError,
    iter_corpus,
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
        path = tmp_path / "corpus.jsonl"
        write_corpus(records, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema"] = 99
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(UnsupportedSchemaError):
            read_corpus(path)

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
        write_corpus(records, path, meta={"seeds": 1, "config_hash": "abc"}, created="2026-08-10T00:00:00+00:00")
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema"] == 1
        assert header["created"] == "2026-08-10T00:00:00+00:00"
        assert header["crawl"] == {"seeds": 1, "config_hash": "abc"}

    def test_byte_reproducible_with_fixed_timestamp(self, records, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_corpus(records, a, created="2026-08-10T00:00:00+00:00")
        write_corpus(records, b, created="2026-08-10T00:00:00+00:00")
        assert a.read_bytes() == b.read_bytes()


def test_iter_corpus_is_streaming(records, tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(records, path)
    iterator = iter_corpus(path)
    first = next(iterator)
    assert first == records[0]
    assert list(iterator) == records[1:]


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
