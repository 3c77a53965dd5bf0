"""The analysis commands read the corpus one site group at a time.

Every table must come out byte-identical to the list functions over the
whole corpus, whether the corpus is site-local (the per-group sums are
used) or not (the command falls back to one group holding every record).
"""

from __future__ import annotations

import gc
import random
import weakref
from dataclasses import replace

import pytest

from cspsop import corpus, report
from cspsop.cli import EXIT_IO, EXIT_OK, main
from cspsop.corpus import CorpusFormatError, iter_site_groups, read_corpus, write_corpus
from cspsop.detector import analyzable_pages, potential_violations
from cspsop.origins import NAIVE_SUFFIXES, site_of
from cspsop.report import (
    adoption_stats,
    build_pairs,
    csp_per_site_distribution,
    directive_diff_histogram,
    render,
    violation_table,
)
from helpers import (
    CSP_A,
    CSP_B,
    make_adoption_corpus,
    make_corpus,
    make_page,
    make_violation_corpus,
)

FORMATS = ("text", "json", "csv")

# (argv after --table, the list function over the whole corpus)
TABLES = {
    "adoption": (["adoption"], adoption_stats),
    "violations": (["violations"], violation_table),
    "potential": (["potential"], potential_violations),
    "directive-diff": (
        ["directive-diff"],
        lambda records: directive_diff_histogram([p.classification for p in build_pairs(records)]),
    ),
    "csp-per-site": (["csp-per-site"], csp_per_site_distribution),
}


def test_every_registered_table_is_checked():
    # A table added to the registry must come with its list function here.
    assert list(TABLES) == list(report.TABLES)


def crawler_sorted(records):
    return sorted(records, key=lambda r: (r.site or "", r.url))


def sorted_crawl():
    return crawler_sorted(make_corpus(seed=11, sites=4) + make_violation_corpus()
                          + make_adoption_corpus())


def shuffled():
    records = make_corpus(seed=5, sites=3)
    random.Random(3).shuffle(records)
    return records


def redirected_iframe():
    # main.com embeds /moved, which redirected to elsewhere.net: its record
    # carries the other site and sorts under it.
    moved = replace(make_page("http://elsewhere.net/", CSP_B), url="http://main.com/moved")
    return crawler_sorted([
        make_page("http://main.com/", CSP_A, iframes=["http://main.com/moved"]),
        make_page("http://main.com/b", CSP_A),
        moved,
        make_page("http://elsewhere.net/x", CSP_A),
    ])


def url_under_two_sites():
    # Over the whole corpus the iframe URL resolves to the last record with
    # it, which sits in the other site.
    return [
        make_page("http://a.com/", CSP_A, iframes=["http://a.com/x"]),
        make_page("http://a.com/x"),
        replace(make_page("http://b.com/", CSP_B), url="http://a.com/x"),
    ]


def origin_under_two_sites():
    return [
        make_page("http://x.com/1", CSP_A),
        replace(make_page("http://x.com/2", CSP_B), site="other.com"),
    ]


def split_site():
    # s.com's records come in two runs, with another site between them.
    return [
        make_page("http://a.s.com/", CSP_A),
        make_page("http://t.com/"),
        make_page("http://b.s.com/", CSP_B),
    ]


def interleaved_none_and_empty_sites():
    # The crawler sorts None and "" together, so their runs interleave.
    # b and d are relaxed peers on the site "", which is a site.
    return crawler_sorted([
        replace(make_page("http://a.n.com/", CSP_A), site=None),
        replace(make_page("http://b.n.com/", CSP_A), site=""),
        replace(make_page("http://c.n.com/", CSP_B), site=None),
        replace(make_page("http://d.n.com/"), site=""),
    ])


def naive_sited():
    # Sites as crawl --naive-sites records them: a.co.uk and b.co.uk share
    # the site co.uk, so the couples between them are relaxable.
    records = [
        make_page("http://a.co.uk/", CSP_A, iframes=["http://b.co.uk/", "http://a.co.uk/x"]),
        make_page("http://a.co.uk/x", CSP_B),
        make_page("http://b.co.uk/", iframes=["http://a.co.uk/"]),
        make_page("http://www.b.co.uk/", CSP_A),
        make_page("http://x.org.uk/", CSP_A, iframes=["http://y.org.uk/"]),
        make_page("http://y.org.uk/"),
    ]
    return crawler_sorted(
        [replace(r, site=site_of(r.origin.host, NAIVE_SUFFIXES)) for r in records]
    )


# name -> (records, whether the per-group sums are used)
CASES = {
    "crawler-sorted": (sorted_crawl, True),
    "empty": (list, True),
    "shuffled": (shuffled, False),
    "redirected-iframe": (redirected_iframe, False),
    "url-under-two-sites": (url_under_two_sites, False),
    "origin-under-two-sites": (origin_under_two_sites, False),
    "split-site": (split_site, False),
    "interleaved-none-and-empty": (interleaved_none_and_empty_sites, False),
    "naive-sited": (naive_sited, True),
}


@pytest.fixture
def read_calls(monkeypatch):
    """Counts the whole-corpus reads of the analyze command."""
    calls = []

    def counted(path):
        calls.append(path)
        return read_corpus(path)

    monkeypatch.setattr(report, "read_corpus", counted)
    return calls


@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize("case", CASES)
def test_cli_matches_list_function(case, table, tmp_path, capsysbinary, read_calls):
    build, streamed = CASES[case]
    path = tmp_path / "corpus.jsonl"
    write_corpus(build(), path)
    argv, list_function = TABLES[table]
    expected = list_function(read_corpus(path))
    for fmt in FORMATS:
        code = main(["analyze", "--corpus", str(path), "--format", fmt, "--table", *argv])
        assert code == EXIT_OK
        assert capsysbinary.readouterr().out == render(expected, fmt), fmt
    assert len(read_calls) == (0 if streamed else len(FORMATS))


def _groups(records):
    """Runs of consecutive records with one site, as iter_site_groups reads them."""
    groups = []
    for record in records:
        if groups and groups[-1][0].site == record.site:
            groups[-1].append(record)
        else:
            groups.append([record])
    return groups


@pytest.mark.parametrize("build,table", [
    (redirected_iframe, violation_table),
    (url_under_two_sites, violation_table),
    (origin_under_two_sites, potential_violations),
    (split_site, adoption_stats),
    (interleaved_none_and_empty_sites, potential_violations),
])
def test_fallback_cases_differ_when_summed(build, table):
    """Summing the groups of these corpora would give a wrong table."""
    total = table([])
    for group in _groups(build()):
        total += table(analyzable_pages(group))
    assert total != table(build())


def test_redirected_iframe_couple_is_unrelated(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    write_corpus(redirected_iframe(), path)
    assert main(["analyze", "--corpus", str(path), "--table", "violations", "--format", "json"]) == 0
    assert '"couples_excluded_unrelated": 1' in capsys.readouterr().out


@pytest.mark.parametrize("table", TABLES)
def test_malformed_line_after_first_site(table, tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    write_corpus(make_corpus(seed=2, sites=3, pages_per_site=5), path)
    lines = path.read_text().splitlines(keepends=True)
    lines.insert(8, '{"url": "http://s1.com/broken"\n')  # line 9: inside the second site
    path.write_text("".join(lines))
    with pytest.raises(CorpusFormatError) as whole_corpus:
        read_corpus(path)
    argv, _ = TABLES[table]
    assert main(["analyze", "--corpus", str(path), "--table", *argv]) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {whole_corpus.value}\n"
    assert err.startswith("error: line 9: ")


def test_undecodable_line_after_first_site(tmp_path):
    records = make_corpus(seed=2, sites=3, pages_per_site=5)
    path = tmp_path / "corpus.jsonl"
    write_corpus(records, path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[8] = lines[8].replace(b'"url":"', b'"url":"\xff\xfe', 1)  # line 9
    path.write_bytes(b"".join(lines))
    # The first site ends before line 8, so its group is complete without line 9.
    first_site = [r.url for r in records if r.site == records[0].site]
    assert first_site == [r.url for r in records[:len(first_site)]] and len(first_site) < 7
    groups = iter_site_groups(path)
    assert [r.url for r in next(groups)] == first_site
    with pytest.raises(CorpusFormatError) as excinfo:
        next(groups)
    assert excinfo.value.line == 9
    assert isinstance(excinfo.value.__cause__, UnicodeDecodeError)


@pytest.mark.parametrize("table", TABLES)
def test_sorted_corpus_holds_one_site_at_a_time(table, tmp_path, monkeypatch, capsys):
    path = tmp_path / "corpus.jsonl"
    write_corpus(sorted_crawl(), path)
    made: list[weakref.ref] = []
    live_sites: list[set] = []

    def tracked(data, interned=None):
        record = record_from_dict(data, interned)
        made.append(weakref.ref(record))
        return record

    def whole_corpus_read(path):
        raise AssertionError("read_corpus called on a site-local corpus")

    def checked(records):
        live_sites.append({r().site for r in made if r() is not None})
        return run_table(records)

    record_from_dict = corpus.record_from_dict
    run_table = report.TABLES[table]
    monkeypatch.setattr(corpus, "record_from_dict", tracked)
    monkeypatch.setattr(report, "read_corpus", whole_corpus_read)
    monkeypatch.setitem(report.TABLES, table, checked)
    assert main(["analyze", "--corpus", str(path), "--table", table]) == EXIT_OK
    assert all(len(alive) <= 1 for alive in live_sites), live_sites
    # Each site was in memory, alone, when the table ran over it.
    assert set().union(*live_sites) == {r.site for r in sorted_crawl()}


@pytest.mark.parametrize("build", [redirected_iframe, split_site])
@pytest.mark.parametrize("table", TABLES)
def test_fallback_read_holds_nothing_of_the_group_pass(build, table, tmp_path, monkeypatch):
    # redirected_iframe fails check 3 after the last group, split_site check
    # 1 at its third group. Neither the records nor the partial sum of the
    # groups read so far may stay alive during the whole-corpus read.
    path = tmp_path / "corpus.jsonl"
    write_corpus(build(), path)
    made: list[weakref.ref] = []

    def tracked(data, interned=None):
        record = record_from_dict(data, interned)
        made.append(weakref.ref(record))
        return record

    def checked(records):
        result = run_table(records)
        made.append(weakref.ref(result))
        return result

    def whole_corpus_read(path):
        gc.collect()
        assert [r() for r in made if r() is not None] == []
        monkeypatch.setattr(corpus, "record_from_dict", record_from_dict)
        return read_corpus(path)

    record_from_dict = corpus.record_from_dict
    run_table = report.TABLES[table]
    monkeypatch.setattr(corpus, "record_from_dict", tracked)
    monkeypatch.setattr(report, "read_corpus", whole_corpus_read)
    monkeypatch.setitem(report.TABLES, table, checked)
    assert main(["analyze", "--corpus", str(path), "--table", table]) == EXIT_OK
    assert made


def test_site_groups_are_runs_of_one_site(tmp_path):
    records = interleaved_none_and_empty_sites() + make_violation_corpus()
    path = tmp_path / "corpus.jsonl"
    write_corpus(records, path)
    groups = list(iter_site_groups(path))
    assert [[r.site for r in group] for group in groups] == [
        [r.site for r in group] for group in _groups(records)
    ]
    assert [r for group in groups for r in group] == read_corpus(path)
    write_corpus([], path)
    assert list(iter_site_groups(path)) == []


def test_policy_sharing_stops_at_site_boundaries(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus([make_page("http://x.com/1", CSP_A), make_page("http://x.com/2", CSP_A),
                  make_page("http://y.com/", CSP_A)], path)
    (x1, x2), (y,) = iter_site_groups(path)
    assert x1.policies[0] is x2.policies[0]
    assert y.policies[0] is not x1.policies[0]
