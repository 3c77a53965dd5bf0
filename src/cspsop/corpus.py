"""Crawl records and their newline-delimited JSON persistence.

PageRecord, its vocabulary (the STATUS_* and DEPTH_* values) and its JSON
form are declared here, so the analysis reads records without importing
the crawler. Line 1 of a corpus is a header object carrying the schema
version and crawl metadata; every following line is one PageRecord.
Bodies are never stored, only the extracted fields, which keeps corpora
small enough to share. A .gz suffix selects transparent gzip compression.
"""

from __future__ import annotations

import gzip
import io
import json
import zlib
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, groupby
from pathlib import Path
from typing import IO, Iterable, Iterator

from .origins import Origin
from .policy import DELIVERIES, DISPOSITIONS, ENFORCE, Policy, parse_policy

FORMAT_NAME = "cspsop-corpus"
SCHEMA_VERSION = 1


class CorpusFormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class UnsupportedSchemaError(CorpusFormatError):
    pass


# A record's depth: how the crawl reached the page.
DEPTH_HOME = "home"
DEPTH_LINKED = "linked"
DEPTH_IFRAME_HOME = "iframe-of-home"
DEPTH_IFRAME_LINKED = "iframe-of-linked"

# A record's fetch_status.
STATUS_OK = "ok"
STATUS_HTTP_ERROR = "http-error"
STATUS_NETWORK_ERROR = "network-error"
STATUS_TIMEOUT = "timeout"


@dataclass
class PageRecord:
    """One crawled page: where it lives, what it delivered, what it embeds."""

    url: str
    final_url: str
    depth: str
    fetch_status: str
    http_status: int | None = None
    origin: Origin | None = None
    site: str | None = None
    policies: list[Policy] = field(default_factory=list)
    links_same_site: list[str] = field(default_factory=list)
    iframes_same_site: list[str] = field(default_factory=list)
    srcdoc_iframes: int = 0

    def enforced_policies(self) -> list[Policy]:
        return [p for p in self.policies if p.disposition == ENFORCE]

    def has_any_csp(self) -> bool:
        return bool(self.policies)


# The exact JSON types of each PageRecord field, so true is not an
# integer. The fields and their defaults are PageRecord's.
_NULL = type(None)
_FIELD_TYPES = {
    "url": (str,), "final_url": (str,), "depth": (str,), "fetch_status": (str,),
    "http_status": (int, _NULL), "origin": (dict, _NULL), "site": (str, _NULL),
    "policies": (list,), "links_same_site": (list,), "iframes_same_site": (list,),
    "srcdoc_iframes": (int,),
}


def record_to_dict(record: PageRecord) -> dict:
    """A record's JSON object: its fields, with the origin and policies as objects."""
    data = dict(vars(record))
    if record.origin is not None:
        data["origin"] = dict(vars(record.origin))
    data["policies"] = [
        {"raw": p.raw, "disposition": p.disposition, "delivery": p.delivery}
        for p in record.policies
    ]
    return data


def _policy_from_dict(data: dict, interned: dict[tuple[str, str, str], Policy]) -> Policy:
    raw, disposition, delivery = data["raw"], data["disposition"], data["delivery"]
    if not isinstance(raw, str):
        raise CorpusFormatError(f"policy raw text is {type(raw).__name__}, not a string")
    if disposition not in DISPOSITIONS:
        raise CorpusFormatError(f"unknown policy disposition {disposition!r}")
    if delivery not in DELIVERIES:
        raise CorpusFormatError(f"unknown policy delivery {delivery!r}")
    key = (raw, disposition, delivery)
    policy = interned.get(key)
    if policy is None:
        policy = interned[key] = parse_policy(raw, disposition, delivery)
    return policy


def record_from_dict(
    data: dict, interned: dict[tuple[str, str, str], Policy] | None = None
) -> PageRecord:
    """Rebuild one record from its JSON object.

    interned maps (raw, disposition, delivery) to the Policy already built
    for it. Records read with the same map share one frozen Policy per
    distinct entry, which keeps a loaded corpus small. Nothing here or in
    the analysis parses them: normalization reads only their text.
    A field of the wrong JSON type is a CorpusFormatError, a missing
    required one a TypeError; a missing optional one takes its default.
    """
    if not isinstance(data, dict):
        raise CorpusFormatError(f"record is {type(data).__name__}, not an object")
    if interned is None:
        interned = {}
    fields = {}
    for name, types in _FIELD_TYPES.items():
        if name in data:
            value = fields[name] = data[name]
            if type(value) not in types:
                raise CorpusFormatError(f"record field {name!r} is {type(value).__name__}")
    origin = fields.get("origin")
    if origin is not None:
        scheme, host, port = origin["scheme"], origin["host"], origin["port"]
        if not (type(scheme) is str and type(host) is str and type(port) is int):
            raise CorpusFormatError("origin scheme and host must be strings, port an integer")
        fields["origin"] = Origin(scheme, host, port)
    urls = fields.get("links_same_site", []) + fields.get("iframes_same_site", [])
    if not set(map(type, urls)) <= {str}:
        raise CorpusFormatError("links and iframes must be lists of strings")
    if "policies" in fields:
        fields["policies"] = [_policy_from_dict(p, interned) for p in fields["policies"]]
    return PageRecord(**fields)


@contextmanager
def _binary(path: str | Path, mode: str) -> Iterator[IO[bytes]]:
    """The file at path, opened with mode "rb" or "wb", through gzip when
    its suffix is .gz. The gzip header holds no time and no file name, so
    equal lines give equal bytes."""
    path = Path(path)
    with open(path, mode) as fh:
        if path.suffix != ".gz":
            yield fh
            return
        with gzip.GzipFile(filename="", mode=mode, fileobj=fh, mtime=0) as gz:
            # Before Python 3.12, GzipFile compresses each write on its own.
            with io.BufferedWriter(gz) if mode == "wb" else gz as out:
                yield out


def _dump(obj: dict) -> bytes:
    """One corpus line."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def write_corpus(
    records: Iterable[PageRecord],
    path: str | Path,
    meta: dict | None = None,
    created: str | None = None,
) -> int:
    """Write records to path; returns the record count.

    Pass a fixed `created` timestamp to make output byte-reproducible.
    """
    count = 0
    header = {
        "format": FORMAT_NAME,
        "schema": SCHEMA_VERSION,
        "created": created or datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    if meta:
        header["crawl"] = meta
    with _binary(path, "wb") as fh:
        fh.write(_dump(header))
        for record in records:
            fh.write(_dump(record_to_dict(record)))
            count += 1
    return count


def _parse_header(line: str) -> dict:
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"bad header: {exc}", line=1) from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise CorpusFormatError("not a corpus file (missing header)", line=1)
    schema = header.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:  # true and 1.0 equal 1
        raise UnsupportedSchemaError(
            f"unsupported schema {schema!r}, expected {SCHEMA_VERSION}", line=1
        )
    return header


# What stops a line from being read: a cut gzip stream (EOFError), damaged
# compressed bytes (zlib.error, or a BadGzipFile for a bad header or CRC),
# or bytes that are not UTF-8.
_UNREADABLE = (EOFError, zlib.error, gzip.BadGzipFile, UnicodeDecodeError)
_SAMPLE_BYTES = 1 << 16


def _lines(path: str | Path) -> Iterator[tuple[int, int, str]]:
    """(line number, offset, text) of each line, where offset is the byte
    offset of the line in the uncompressed corpus. Lines are split on bytes
    and then decoded, so that a line that cannot be read or decoded is a
    CorpusFormatError that names it."""
    with _binary(path, "rb") as fh:
        lineno, offset = 1, 0
        try:
            for raw in fh:
                yield lineno, offset, raw.decode("utf-8")
                lineno += 1
                offset += len(raw)
        except _UNREADABLE as exc:
            raise CorpusFormatError(str(exc), line=lineno) from exc


def _objects(path: str | Path, start: int = 0) -> Iterator[tuple[int, int, object]]:
    """(line number, offset, decoded JSON) of each record line, after the
    header; from a start past 0, of the lines _from keeps."""
    with closing(_lines(path)) as lines:
        _parse_header(next(lines, (1, 0, ""))[2])
        for lineno, offset, line in _from(lines, start) if start else lines:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(str(exc), line=lineno) from exc
            yield lineno, offset, data


def _from(lines: Iterator[tuple[int, int, str]], start: int) -> Iterator[tuple[int, int, str]]:
    """The lines that start at or after start, after the last line before
    it that is not blank."""
    before = None
    for item in lines:
        if item[1] >= start:
            if before:
                yield before
            yield item
            yield from lines
            return
        if item[2].strip():
            before = item


def _record(lineno: int, data: object, interned: dict[tuple[str, str, str], Policy]) -> PageRecord:
    try:
        return record_from_dict(data, interned)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorpusFormatError(str(exc), line=lineno) from exc


def iter_corpus(path: str | Path) -> Iterator[PageRecord]:
    """Stream records one line at a time; the file is never fully buffered.

    Policies are not parsed here, and the analysis does not parse them
    either: it normalizes their texts token by token. Records that carry
    the same (raw, disposition, delivery) share one Policy object, which
    only saves memory.
    """
    interned: dict[tuple[str, str, str], Policy] = {}
    for lineno, _, data in _objects(path):
        yield _record(lineno, data, interned)


def iter_site_groups(
    path: str | Path, start: int = 0, stop: int | None = None
) -> Iterator[list[PageRecord]]:
    """Stream the corpus as site groups: runs of consecutive records with
    the same `site`, in corpus order. None and "" are different sites.

    A group is yielded before the first record of the next one is built,
    so only one site's records are alive at a time. Each group interns its
    Policies in a map of its own, so that map never outgrows one site
    either. A site whose records are not contiguous comes out as several
    groups; report.run_table detects that. A malformed line raises
    the same CorpusFormatError as iter_corpus, after the groups before it
    have been yielded.

    start and stop, byte offsets in the uncompressed corpus, select the
    groups whose first line starts at or after start and before stop, so
    that ranges cut at the same offsets take each group exactly once.
    """
    def site(item: tuple[int, int, object]) -> object:
        return item[2].get("site") if isinstance(item[2], dict) else None

    for _, run in groupby(_objects(path, start), key=site):
        first = next(run)
        if stop is not None and first[1] >= stop:
            return
        if first[1] < start:  # the group began before the range
            continue
        interned: dict[tuple[str, str, str], Policy] = {}
        yield [_record(lineno, data, interned) for lineno, _, data in chain((first,), run)]


def size_hint(path: str | Path) -> tuple[int, int]:
    """(bytes, records): the length of the uncompressed corpus and an
    estimate of its record count. A corpus shorter than 64 KiB is read
    whole; a longer one is estimated from the lines in its first 64 KiB.
    A gzip corpus takes its length from its trailer, which records it
    modulo 2**32 and for the last member only, so the hint can be wrong.
    A path that is no regular file, or whose first 64 KiB cannot be read,
    gives (0, 0): it is left to be read once, and to fail, as a whole.
    """
    path = Path(path)
    if not path.is_file():
        return 0, 0
    try:
        with _binary(path, "rb") as fh:
            sample = fh.read(_SAMPLE_BYTES)
    except _UNREADABLE:
        return 0, 0
    lines = sample.count(b"\n")
    if len(sample) < _SAMPLE_BYTES:
        return len(sample), max(lines - 1, 0)
    if path.suffix != ".gz":
        size = path.stat().st_size
    else:
        with open(path, "rb") as fh:
            fh.seek(-4, io.SEEK_END)
            size = int.from_bytes(fh.read(4), "little")
    return size, size * lines // len(sample)


def read_corpus(path: str | Path) -> list[PageRecord]:
    return list(iter_corpus(path))
