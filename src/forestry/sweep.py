"""Bound sweeps over whole graph families, with an append-only run log.

A sweep walks every graph of one family up to a chosen order, compares
its forest count against the family's lower bound, and appends one JSON
line per graph to a store file.  It opens the store for appending once,
at its first record, and writes each line with one flushed write, so
every finished line is on disk before the next graph is counted.  A rerun
can skip the stored graphs; their stored verdicts count as if checked
again.  The sweep fails loudly if the
set of violating graphs is anything other than the known exceptional
ones, since that can only mean a generator or counting defect.
"""

import io
import os
import time
from typing import NamedTuple

from .bounds import EQUAL, LESS, compare, p_bound, q_bound
from .counting import count_forests
from .errors import CheckFailed, CorruptRecord, InputError, IoError
from .families import _checked, family_levels
from .multigraph import canonical_key
from .named import catalog_entry

# a stored key is canon's serialization: a change to it, as to a field,
# bumps this, so a resume skips the old lines with a warning and recounts
RECORD_VERSION = 1

# degree set, family tag, bound, and the known exceptions with their orders
THEOREMS = {
    "T1": ((2, 3), "23", p_bound, ((4, "K4"),)),
    "T2": ((2, 3, 4), "234", q_bound, ((5, "K5"), (6, "K6-"))),
}

_VERDICTS = ("GE", "EQ", "LT")


class SweepRecord(NamedTuple):
    family: str
    n: int
    key: bytes
    forests: int
    bound_text: str
    verdict: str
    exception: bool
    ts: str


class SweepSummary(NamedTuple):
    theorem: str
    family: str
    n_max: int
    checked: int
    skipped: int
    violations: tuple  # (n, canonical key) pairs with verdict LT
    equalities: tuple  # (n, canonical key) pairs with verdict EQ


def _stamp():
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def record_line(record):
    from json.encoder import encode_basestring_ascii as text

    # what json.dumps writes of the fields in sorted key order
    return (
        '{"bound": %s, "exception": %s, "family": %s, "forests": "%d", "key": "%s", '
        '"n": %d, "ts": %s, "v": %d, "verdict": %s}'
        % (text(record.bound_text), "true" if record.exception else "false",
           text(record.family), record.forests, record.key.hex(), record.n,
           text(record.ts), RECORD_VERSION, text(record.verdict))
    )


def parse_record(line):
    """Strict inverse of record_line; raises CorruptRecord on any defect.

    A line is accepted only if record_line writes it back unchanged (up
    to its newline), so no two lines parse to the same record.
    """
    import json

    try:
        raw = json.loads(line)
    except ValueError as exc:
        raise CorruptRecord("not JSON: %s" % exc)
    if not isinstance(raw, dict):
        raise CorruptRecord("record is not an object")
    if type(raw.get("v")) is not int or raw["v"] != RECORD_VERSION:
        raise CorruptRecord("unknown record version %r" % raw.get("v"))
    try:
        family = raw["family"]
        n = raw["n"]
        key = raw["key"]
        forests = raw["forests"]
        bound_text = raw["bound"]
        verdict = raw["verdict"]
        exception = raw["exception"]
        ts = raw["ts"]
    except KeyError as exc:
        raise CorruptRecord("missing field: %s" % exc)
    if family not in {spec[1] for spec in THEOREMS.values()}:
        raise CorruptRecord("unknown family %r" % family)
    if verdict not in _VERDICTS:
        raise CorruptRecord("unknown verdict %r" % verdict)
    if (
        type(n) is not int
        or type(exception) is not bool
        or not all(type(x) is str for x in (key, forests, bound_text, ts))
    ):
        raise CorruptRecord("wrong field types")
    try:
        record = SweepRecord(
            family, n, bytes.fromhex(key), int(forests), bound_text, verdict, exception, ts
        )
    except ValueError as exc:
        raise CorruptRecord("bad field: %s" % exc)
    if record_line(record) != line.rstrip("\n"):
        raise CorruptRecord("not as record_line writes it")
    return record


def _check_store(store):
    # open() would take an int for a file descriptor and close it after;
    # "" names no file
    if not isinstance(store, (str, os.PathLike)) or store == "":
        raise InputError("store %r is not a path" % (store,))


def _appending(store):
    """The checked store path opened for binary appends."""
    try:
        return open(store, "ab")
    except OSError as exc:
        raise IoError("cannot append to %s: %s" % (store, exc))


def run_store_append(store, record):
    """Append record's line to the store, a path or an open binary handle.

    A path is opened, written once and closed; a handle is written and
    flushed, so the whole line is on disk when this returns.
    """
    data = (record_line(record) + "\n").encode()
    if not isinstance(store, io.IOBase):
        _check_store(store)
        try:
            with open(store, "ab") as fh:
                fh.write(data)
        except OSError as exc:
            raise IoError("cannot append to %s: %s" % (store, exc))
        return
    try:
        store.write(data)
        store.flush()
    except OSError as exc:
        raise IoError("cannot append to %s: %s" % (store.name, exc))


def run_store_resume(store, family=None):
    """{key: record} for the store's records, optionally of one family only.

    A missing store counts as empty; unreadable lines are skipped with a
    logged warning so one bad write never blocks a rerun.  A key stored
    twice maps to its last record.
    """
    import logging

    _check_store(store)
    log = logging.getLogger(__name__)
    done = {}
    try:
        # an undecodable byte spoils only its own line, which then fails to parse
        fh = open(store, "r", encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return done
    except OSError as exc:
        raise IoError("cannot read %s: %s" % (store, exc))
    with fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = parse_record(line)
            except CorruptRecord as exc:
                log.warning("%s line %d skipped: %s", store, lineno, exc)
                continue
            if family is None or record.family == family:
                done[record.key] = record
    return done


def sweep_theorem(theorem, n_max, store=None, resume=False, cache=None):
    """Check the bound on every family graph of order 3..n_max.

    Returns a SweepSummary; raises CheckFailed when the violating
    graphs are not exactly the known exceptional ones in range.
    """
    import logging

    log = logging.getLogger(__name__)
    if theorem not in THEOREMS:
        raise InputError("theorem must be one of %s" % sorted(THEOREMS))
    if store is not None:
        _check_store(store)
    if resume and store is None:
        raise InputError("resume needs a store to resume from")
    degree_set, family, bound_fn, exceptional = THEOREMS[theorem]
    _checked(degree_set, n_max)  # a bad order is refused before the store is read
    expected = {
        canonical_key(catalog_entry(name).graph): (order, name)
        for order, name in exceptional
    }
    done = run_store_resume(store, family) if resume else {}
    checked = skipped = 0
    violations = []
    equalities = []
    outcome = {}
    started = time.perf_counter()
    fh = None  # the store, opened at the first record it takes
    try:
        for n, members in family_levels(degree_set, n_max):
            log.info("%s n=%d: %d members generated in %.3f s",
                     theorem, n, len(members), time.perf_counter() - started)
            for g in members:
                key = canonical_key(g)
                if key in done:
                    skipped += 1
                    verdict = done[key].verdict
                else:
                    forests = count_forests(g, cache)
                    bound = bound_fn(g)
                    verdict = compare(forests, bound)
                    record = SweepRecord(
                        family, n, key, forests, str(bound), verdict,
                        key in expected, _stamp(),
                    )
                    if store is not None:
                        if fh is None:
                            fh = _appending(store)
                        run_store_append(fh, record)
                    checked += 1
                if verdict == LESS:
                    violations.append((n, key))
                elif verdict == EQUAL:
                    equalities.append((n, key))
                outcome[key] = verdict
            started = time.perf_counter()
    finally:
        if fh is not None:
            try:
                fh.close()
            except OSError as exc:  # a line whose flush failed is flushed again
                raise IoError("cannot append to %s: %s" % (store, exc))

    trouble = {}  # key -> message
    for n, key in violations:
        if key not in expected:
            trouble[key] = "unexpected violation at n=%d key=%s" % (n, key.hex())
    for key, (order, name) in expected.items():
        if order > n_max:
            continue
        seen = outcome.get(key)
        if seen is None:
            trouble[key] = "%s never enumerated at n=%d" % (name, order)
        elif seen != LESS:
            trouble[key] = "%s expected to violate but compared %s" % (name, seen)
    if trouble:
        raise CheckFailed("; ".join(trouble.values()), keys=tuple(trouble))

    return SweepSummary(
        theorem, family, n_max, checked, skipped,
        tuple(violations), tuple(equalities),
    )
