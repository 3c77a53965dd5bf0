"""The analysis commands read the corpus one site group at a time.

Every table must come out byte-identical to the list functions over the
whole corpus, whether the corpus is site-local (the per-group sums are
used) or not (the command falls back to one group holding every record).
"""

from __future__ import annotations

import errno
import gc
import gzip
import os
import pickle
import random
import signal
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


# Across processes: run_table splits a corpus into ranges of site groups,
# the first summed in the command process and each other in a forked child.
# Every corpus here is below MIN_RANGE_RECORDS, so the split is forced.

def assert_no_children():
    """Every child the command forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


def run_cli(argv):
    """main(argv), checked to leave no child and no pipe behind."""
    fds = open_fds()
    try:
        return main(argv)
    finally:
        assert_no_children()
        assert open_fds() == fds


@pytest.fixture(params=[2, 3])
def processes(request, monkeypatch):
    monkeypatch.setattr(report, "MIN_RANGE_RECORDS", 1)
    monkeypatch.setattr(report, "_usable_cpus", lambda: request.param)
    return request.param


def range_sites(path):
    """The sites of each range's groups, as run_table would split path."""
    return [[group[0].site for group in iter_site_groups(path, start, stop)]
            for start, stop in report._ranges(path)]


@pytest.mark.parametrize("table", TABLES)
@pytest.mark.parametrize("case", CASES)
def test_split_matches_one_process(case, table, processes, tmp_path, capsysbinary, read_calls):
    build, streamed = CASES[case]
    path = tmp_path / "corpus.jsonl"
    write_corpus(build(), path)
    argv, list_function = TABLES[table]
    expected = list_function(read_corpus(path))
    read_calls.clear()
    for fmt in FORMATS:
        code = run_cli(["analyze", "--corpus", str(path), "--format", fmt, "--table", *argv])
        assert code == EXIT_OK
        assert capsysbinary.readouterr().out == render(expected, fmt), fmt
    # A site-local corpus stays local however it is split.
    assert len(read_calls) == (0 if streamed else len(FORMATS))


def test_forced_split_uses_every_process(processes, tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(sorted_crawl(), path)
    sites = range_sites(path)
    assert len(sites) == processes and all(sites)
    assert [site for part in sites for site in part] == [
        group[0].site for group in iter_site_groups(path)
    ]


def padded(tmp_path, records, suffix):
    """The corpus of records with blank lines of several kinds between its
    records, written to a file with the given suffix."""
    clean = tmp_path / "clean.jsonl"
    write_corpus(records, clean)
    lines = clean.read_bytes().splitlines(keepends=True)
    path = tmp_path / f"padded{suffix}"
    # Each is blank as text; the fourth and fifth are not blank as bytes
    # (bytes.strip() keeps U+3000 and \x1c), and the last adds no line.
    blanks = [b"\n", b"  \n", b"\t\r\n", "\u3000\n".encode(), b"\x1c\n", b""]
    with corpus._binary(path, "wb") as out:
        out.write(lines[0])
        for index, line in enumerate(lines[1:]):
            out.write(blanks[index % len(blanks)])
            out.write(line)
    return path


@pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
def test_ranges_cut_anywhere_take_each_group_once(suffix, tmp_path):
    # A cut at, just before or just after every line start, blank lines
    # included: the two ranges hold every group once, in corpus order.
    path = padded(tmp_path, make_violation_corpus() + make_adoption_corpus(), suffix)
    whole = [[r.url for r in group] for group in iter_site_groups(path)]
    text = gzip.decompress(path.read_bytes()) if suffix == ".jsonl.gz" else path.read_bytes()
    starts = [0] + [i + 1 for i, byte in enumerate(text) if byte == ord("\n")]
    for cut in sorted({max(1, s + d) for s in starts for d in (-1, 0, 1)}):
        first = [[r.url for r in group] for group in iter_site_groups(path, 0, cut)]
        rest = [[r.url for r in group] for group in iter_site_groups(path, cut)]
        assert first + rest == whole, cut


def test_size_hint(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(make_corpus(seed=2, sites=3), path)
    assert corpus.size_hint(path) == (path.stat().st_size, 60)
    assert corpus.size_hint(tmp_path) == (0, 0)  # no regular file
    records = make_corpus(seed=3, sites=20, pages_per_site=30)
    for suffix in (".jsonl", ".jsonl.gz"):
        path = tmp_path / f"large{suffix}"
        write_corpus(records, path)
        text = gzip.decompress(path.read_bytes()) if suffix == ".jsonl.gz" else path.read_bytes()
        size, estimate = corpus.size_hint(path)
        assert size == len(text) > 1 << 16
        assert 0.8 * len(records) < estimate < 1.2 * len(records)


def test_process_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert report._usable_cpus() == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert report._usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert report._usable_cpus() == 4
    monkeypatch.delattr(os, "fork", raising=False)
    assert report._usable_cpus() == 1


def test_ranges_hold_the_minimum_records(monkeypatch, tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(make_corpus(seed=2, sites=3), path)  # 60 records
    monkeypatch.setattr(report, "_usable_cpus", lambda: 8)
    for minimum, count in ((61, 1), (60, 1), (30, 2), (20, 3), (7, 8)):
        monkeypatch.setattr(report, "MIN_RANGE_RECORDS", minimum)
        ranges = report._ranges(path)
        assert len(ranges) == count, minimum
        assert ranges[0][0] == 0 and ranges[-1][1] is None
        assert all(stop == start for (_, stop), (start, _) in zip(ranges, ranges[1:]))


@pytest.mark.parametrize("build,spanning", [
    (split_site, "s.com"),  # check 1
    (redirected_iframe, None),  # check 3: main.com's iframe has its record under elsewhere.net
])
@pytest.mark.parametrize("table", TABLES)
def test_fallback_across_ranges(build, spanning, table, tmp_path, monkeypatch, capsysbinary,
                                read_calls):
    path = tmp_path / "corpus.jsonl"
    write_corpus(build(), path)
    monkeypatch.setattr(report, "MIN_RANGE_RECORDS", 1)
    monkeypatch.setattr(report, "_usable_cpus", lambda: 2)
    first, second = range_sites(path)
    if spanning:
        assert spanning in first and spanning in second
    else:
        assert (first, second) == (["elsewhere.net"], ["main.com"])
    argv, list_function = TABLES[table]
    for fmt in FORMATS:
        assert run_cli(["analyze", "--corpus", str(path), "--format", fmt, "--table", *argv]) == 0
        assert capsysbinary.readouterr().out == render(list_function(build()), fmt)
    assert len(read_calls) == len(FORMATS)


def corrupted(tmp_path, damage):
    """A corpus of 4 sites whose last site holds a damaged line."""
    records = make_corpus(seed=2, sites=4, pages_per_site=5)
    path = tmp_path / "corpus.jsonl"
    write_corpus(records, path)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[18] = damage(lines[18])  # line 19, in the fourth site
    path.write_bytes(b"".join(lines))
    return path


DAMAGE = {
    "malformed": lambda line: line[:40] + b"\n",
    "undecodable": lambda line: line.replace(b'"url":"', b'"url":"\xff\xfe', 1),
    "missing-field": lambda line: line.replace(b'"url":', b'"link":', 1),
}


@pytest.mark.parametrize("damage", DAMAGE)
@pytest.mark.parametrize("table", TABLES)
def test_bad_line_in_a_child_range(damage, table, processes, tmp_path, capsys):
    path = corrupted(tmp_path, DAMAGE[damage])
    with pytest.raises(CorpusFormatError) as whole_corpus:
        read_corpus(path)
    assert whole_corpus.value.line == 19
    *_, (start, _) = report._ranges(path)
    assert sum(map(len, path.read_bytes().splitlines(keepends=True)[:18])) >= start
    argv, _ = TABLES[table]
    assert run_cli(["analyze", "--corpus", str(path), "--table", *argv]) == EXIT_IO
    assert capsys.readouterr() == ("", f"error: {whole_corpus.value}\n")


def test_bad_line_in_the_first_range(processes, tmp_path, capsys):
    path = corrupted(tmp_path, lambda line: line)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2][:40] + b"\n"  # line 3, in the first site
    path.write_bytes(b"".join(lines))
    with pytest.raises(CorpusFormatError) as whole_corpus:
        read_corpus(path)
    assert whole_corpus.value.line == 3
    assert run_cli(["analyze", "--corpus", str(path), "--table", "violations"]) == EXIT_IO
    assert capsys.readouterr() == ("", f"error: {whole_corpus.value}\n")


def _die_in_child(function, how):
    command_process = os.getpid()

    def wrapped(*args, **kwargs):
        if os.getpid() == command_process:
            return function(*args, **kwargs)
        if how == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(0)  # "exits": status 0, but no result written

    return wrapped


@pytest.mark.parametrize("how", ["killed", "exits"])
@pytest.mark.parametrize("table", TABLES)
def test_child_without_result(how, table, processes, tmp_path, monkeypatch, capsysbinary,
                              read_calls):
    path = tmp_path / "corpus.jsonl"
    write_corpus(sorted_crawl(), path)
    monkeypatch.setattr(report, "_sum_range", _die_in_child(report._sum_range, how))
    argv, list_function = TABLES[table]
    for fmt in FORMATS:
        assert run_cli(["analyze", "--corpus", str(path), "--format", fmt, "--table", *argv]) == 0
        assert capsysbinary.readouterr().out == render(list_function(sorted_crawl()), fmt)
    assert len(read_calls) == len(FORMATS)


def test_truncated_result(processes, tmp_path, monkeypatch, capsysbinary, read_calls):
    # A child that dies while it writes its result.
    path = tmp_path / "corpus.jsonl"
    write_corpus(sorted_crawl(), path)

    def half_dump(obj, file, protocol):
        data = pickle.dumps(obj, protocol)
        file.write(data[:len(data) // 2])
        file.flush()
        os._exit(1)

    monkeypatch.setattr(report.pickle, "dump", half_dump)
    assert run_cli(["analyze", "--corpus", str(path), "--format", "json", "--table", "potential"]) == 0
    assert capsysbinary.readouterr().out == render(potential_violations(sorted_crawl()), "json")
    assert len(read_calls) == 1


def test_fork_failure(processes, tmp_path, monkeypatch, capsysbinary, read_calls):
    # The last child cannot be started: out of processes.
    path = tmp_path / "corpus.jsonl"
    write_corpus(sorted_crawl(), path)
    fork, forks = os.fork, []

    def failing_fork():
        if len(forks) == processes - 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", failing_fork)
    assert run_cli(["analyze", "--corpus", str(path), "--format", "json", "--table", "potential"]) == 0
    assert capsysbinary.readouterr().out == render(potential_violations(sorted_crawl()), "json")
    assert len(read_calls) == 1


def test_error_in_the_command_process_reaps_every_child(processes, tmp_path, monkeypatch):
    path = tmp_path / "corpus.jsonl"
    write_corpus(sorted_crawl(), path)
    command_process = os.getpid()
    table = report.TABLES["violations"]

    def failing(records):
        if os.getpid() == command_process and records:
            raise KeyboardInterrupt
        return table(records)

    monkeypatch.setitem(report.TABLES, "violations", failing)
    with pytest.raises(KeyboardInterrupt):
        run_cli(["analyze", "--corpus", str(path), "--table", "violations"])
