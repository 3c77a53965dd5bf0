"""Newline-delimited JSON persistence for crawl records.

Line 1 is a header object carrying the schema version and crawl metadata;
every following line is one PageRecord. Bodies are never stored, only the
extracted fields, which keeps corpora small enough to share. A .gz suffix
selects transparent gzip compression.
"""

from __future__ import annotations

import gzip
import json
import zlib
from contextlib import closing
from datetime import datetime, timezone
from itertools import groupby
from pathlib import Path
from typing import IO, Iterable, Iterator

from .crawler import PageRecord
from .origins import Origin
from .policy import DELIVERIES, DISPOSITIONS, Policy, parse_policy

FORMAT_NAME = "cspsop-corpus"
SCHEMA_VERSION = 1


class CorpusFormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class UnsupportedSchemaError(CorpusFormatError):
    pass


def record_to_dict(record: PageRecord) -> dict:
    origin = record.origin
    return {
        "url": record.url,
        "final_url": record.final_url,
        "depth": record.depth,
        "fetch_status": record.fetch_status,
        "http_status": record.http_status,
        "origin": None
        if origin is None
        else {"scheme": origin.scheme, "host": origin.host, "port": origin.port},
        "site": record.site,
        "policies": [
            {"raw": p.raw, "disposition": p.disposition, "delivery": p.delivery}
            for p in record.policies
        ],
        "links_same_site": list(record.links_same_site),
        "iframes_same_site": list(record.iframes_same_site),
        "srcdoc_iframes": record.srcdoc_iframes,
    }


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


def _well_typed(data: dict) -> bool:
    """Whether a record's fields have their JSON types: url, final_url,
    depth and fetch_status strings; site a string or null; http_status an
    integer or null; srcdoc_iframes an integer; origin null or an object
    with string scheme and host and integer port; links and iframes lists
    of strings. Types are compared exactly, so true is not an integer."""
    origin = data.get("origin")
    links, iframes = data.get("links_same_site", []), data.get("iframes_same_site", [])
    return (
        type(data["url"]) is str and type(data["final_url"]) is str
        and type(data["depth"]) is str and type(data["fetch_status"]) is str
        and type(data.get("site")) in (str, type(None))
        and type(data.get("http_status")) in (int, type(None))
        and type(data.get("srcdoc_iframes", 0)) is int
        and (origin is None or (type(origin) is dict and type(origin["scheme"]) is str
                                and type(origin["host"]) is str and type(origin["port"]) is int))
        and type(links) is list and type(iframes) is list
        and set(map(type, links + iframes)) <= {str}
    )


def record_from_dict(
    data: dict, interned: dict[tuple[str, str, str], Policy] | None = None
) -> PageRecord:
    """Rebuild one record from its JSON object.

    interned maps (raw, disposition, delivery) to the Policy already built
    for it. Records read with the same map share one frozen Policy per
    distinct entry, which keeps a loaded corpus small. Nothing here or in
    the analysis parses them: normalization reads only their text.
    A field of the wrong JSON type is a CorpusFormatError.
    """
    if not isinstance(data, dict):
        raise CorpusFormatError(f"record is {type(data).__name__}, not an object")
    if interned is None:
        interned = {}
    if not _well_typed(data):
        raise CorpusFormatError("a record field has the wrong JSON type")
    origin = data.get("origin")
    return PageRecord(
        url=data["url"],
        final_url=data["final_url"],
        depth=data["depth"],
        fetch_status=data["fetch_status"],
        http_status=data.get("http_status"),
        origin=None if origin is None else Origin(origin["scheme"], origin["host"], origin["port"]),
        site=data.get("site"),
        policies=[_policy_from_dict(p, interned) for p in data.get("policies", [])],
        links_same_site=list(data.get("links_same_site", [])),
        iframes_same_site=list(data.get("iframes_same_site", [])),
        srcdoc_iframes=data.get("srcdoc_iframes", 0),
    )


def _open(path: str | Path, mode: str) -> IO:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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
    with _open(path, "w") as fh:
        fh.write(_dump(header) + "\n")
        for record in records:
            fh.write(_dump(record_to_dict(record)) + "\n")
            count += 1
    return count


def _parse_header(line: str) -> dict:
    try:
        header = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(f"bad header: {exc}", line=1) from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise CorpusFormatError("not a corpus file (missing header)", line=1)
    if header.get("schema") != SCHEMA_VERSION:
        raise UnsupportedSchemaError(
            f"unsupported schema {header.get('schema')!r}, expected {SCHEMA_VERSION}", line=1
        )
    return header


# What stops a line from being read: a cut gzip stream (EOFError), damaged
# compressed bytes (zlib.error, or a BadGzipFile for a bad header or CRC),
# or bytes that are not UTF-8.
_UNREADABLE = (EOFError, zlib.error, gzip.BadGzipFile, UnicodeDecodeError)


def _lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """(line number, text) of each line. Lines are split on bytes and then
    decoded, so that a line that cannot be read or decoded is a
    CorpusFormatError that names it."""
    path = Path(path)
    with gzip.open(path) if path.suffix == ".gz" else open(path, "rb") as fh:
        lineno = 1
        try:
            for raw in fh:
                yield lineno, raw.decode("utf-8")
                lineno += 1
        except _UNREADABLE as exc:
            raise CorpusFormatError(str(exc), line=lineno) from exc


def _objects(path: str | Path) -> Iterator[tuple[int, object]]:
    """(line number, decoded JSON) of each record line, after the header."""
    with closing(_lines(path)) as lines:
        _parse_header(next(lines, (1, ""))[1])
        for lineno, line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(str(exc), line=lineno) from exc
            yield lineno, data


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
    for lineno, data in _objects(path):
        yield _record(lineno, data, interned)


def iter_site_groups(path: str | Path) -> Iterator[list[PageRecord]]:
    """Stream the corpus as site groups: runs of consecutive records with
    the same `site`, in corpus order. None and "" are different sites.

    A group is yielded before the first record of the next one is built,
    so only one site's records are alive at a time. Each group interns its
    Policies in a map of its own, so that map never outgrows one site
    either. A site whose records are not contiguous comes out as several
    groups; report.sum_site_groups detects that. A malformed line raises
    the same CorpusFormatError as iter_corpus, after the groups before it
    have been yielded.
    """
    def site(item: tuple[int, object]) -> object:
        return item[1].get("site") if isinstance(item[1], dict) else None

    for _, run in groupby(_objects(path), key=site):
        interned: dict[tuple[str, str, str], Policy] = {}
        yield [_record(lineno, data, interned) for lineno, data in run]


def read_corpus(path: str | Path) -> list[PageRecord]:
    return list(iter_corpus(path))
