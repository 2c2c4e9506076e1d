import json
import logging
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestry import canonical_key, catalog_entry
from forestry.bounds import EQUAL, GREATER, LESS, BoundExpr
from forestry.errors import CheckFailed, CorruptRecord, InputError, IoError
from forestry.families import enumerate_family
from forestry.sweep import (
    RECORD_VERSION,
    THEOREMS,
    SweepRecord,
    parse_record,
    record_line,
    run_store_append,
    run_store_resume,
    sweep_theorem,
)


def key_of(name):
    return canonical_key(catalog_entry(name).graph)


def make_record(key=b"\x01\x02", family="23", verdict="GE"):
    return SweepRecord(
        family, 4, key, 38, "2^12 3^6 / 4", verdict, False, "2026-08-16T00:00:00Z"
    )


def test_t1_sweep_finds_only_the_known_offender():
    summary = sweep_theorem("T1", 6)
    assert summary.family == "23"
    assert summary.checked == 1 + 3 + 4 + 11
    assert summary.skipped == 0
    assert [(n, key) for n, key in summary.violations] == [(4, key_of("K4"))]
    assert (4, key_of("K4-e")) in summary.equalities


def test_t2_sweep_finds_both_known_offenders():
    summary = sweep_theorem("T2", 6)
    assert summary.family == "234"
    assert summary.checked == 1 + 3 + 11 + 38
    assert set(summary.violations) == {(5, key_of("K5")), (6, key_of("K6-"))}
    assert summary.equalities == ((5, key_of("Y5p")),)


def test_sweep_below_the_exceptional_orders_is_clean():
    summary = sweep_theorem("T2", 3)
    assert summary.violations == ()
    assert summary.checked == 1


def test_sweep_logs_one_line_per_level(caplog):
    with caplog.at_level(logging.INFO, logger="forestry.sweep"):
        sweep_theorem("T1", 5)
    lines = [r.getMessage() for r in caplog.records if r.name == "forestry.sweep"]
    assert len(lines) == 3
    for (n, count), line in zip(((3, 1), (4, 3), (5, 4)), lines):
        assert re.fullmatch(rf"T1 n={n}: {count} members generated in \d+\.\d{{3}} s", line)


def test_store_contents_round_trip(tmp_path):
    store = tmp_path / "t1.jsonl"
    summary = sweep_theorem("T1", 5, store=store)
    lines = store.read_text().splitlines()
    assert len(lines) == summary.checked == 8
    seen_exception = 0
    for line in lines:
        record = parse_record(line)
        assert record.family == "23"
        assert record.verdict in ("GE", "EQ", "LT")
        assert record.bound_text.endswith("/ 4")
        raw = json.loads(line)
        assert raw["v"] == 1
        assert raw["forests"] == str(record.forests)
        seen_exception += record.exception
    assert seen_exception == 1  # K4 and nothing else


def test_the_store_holds_exactly_the_appended_record_lines(tmp_path, monkeypatch):
    import forestry.sweep as sweep_mod

    # the sweep appends through the module's global, one call per checked member
    records = []
    append = sweep_mod.run_store_append

    def spy(store, record):
        records.append(record)
        append(store, record)

    monkeypatch.setattr(sweep_mod, "run_store_append", spy)
    store = tmp_path / "t2.jsonl"
    summary = sweep_theorem("T2", 6, store=store)
    assert len(records) == summary.checked == 53
    assert store.read_bytes() == "".join(record_line(r) + "\n" for r in records).encode()


def _spy_on_open(monkeypatch):
    """Record each file the sweep module opens, as (args, file object)."""
    import builtins

    import forestry.sweep as sweep_mod

    opened = []

    def spy(*args, **kwargs):
        fh = builtins.open(*args, **kwargs)
        opened.append((args, fh))
        return fh

    monkeypatch.setattr(sweep_mod, "open", spy, raising=False)
    return opened


def test_a_sweep_opens_its_store_for_appending_once(tmp_path, monkeypatch):
    opened = _spy_on_open(monkeypatch)
    store = tmp_path / "t2.jsonl"
    summary = sweep_theorem("T2", 6, store=store)
    assert summary.checked == 53
    assert [args for args, _ in opened] == [(store, "ab")]
    assert opened[0][1].closed
    assert len(store.read_text().splitlines()) == 53


def test_each_line_is_on_disk_before_the_next_member_is_counted(tmp_path, monkeypatch):
    import forestry.sweep as sweep_mod

    store = tmp_path / "t1.jsonl"
    count = sweep_mod.count_forests
    counted = []

    def spy(g, cache=None):
        text = store.read_text() if store.exists() else ""
        assert text.count("\n") == len(counted) and text.endswith("\n") == bool(counted)
        for line in text.splitlines():
            parse_record(line)
        counted.append(g)
        return count(g, cache)

    monkeypatch.setattr(sweep_mod, "count_forests", spy)
    summary = sweep_theorem("T1", 6, store=store)
    assert len(counted) == summary.checked == 19


def test_a_sweep_that_fails_midway_keeps_its_complete_lines_and_closes_the_store(
    tmp_path, monkeypatch
):
    import forestry.sweep as sweep_mod

    opened = _spy_on_open(monkeypatch)
    count = sweep_mod.count_forests
    calls = []

    def failing(g, cache=None):
        calls.append(g)
        if len(calls) == 10:
            raise RuntimeError("count failed")
        return count(g, cache)

    monkeypatch.setattr(sweep_mod, "count_forests", failing)
    store = tmp_path / "t2.jsonl"
    with pytest.raises(RuntimeError, match="^count failed$"):
        sweep_theorem("T2", 6, store=store)
    text = store.read_text()
    assert text.endswith("\n") and len(text.splitlines()) == 9
    for line in text.splitlines():
        parse_record(line)
    ((_, fh),) = opened
    assert fh.closed


def test_a_fully_resumed_sweep_leaves_the_store_untouched(tmp_path, monkeypatch):
    store = tmp_path / "t1.jsonl"
    sweep_theorem("T1", 6, store=store)
    before = store.read_bytes()
    opened = _spy_on_open(monkeypatch)
    summary = sweep_theorem("T1", 6, store=store, resume=True)
    assert (summary.checked, summary.skipped) == (0, 19)
    assert store.read_bytes() == before
    assert [mode for (_, mode, *_), _ in opened] == ["r"]


def test_append_to_an_open_handle_writes_and_flushes_the_line(tmp_path):
    store = tmp_path / "runs.jsonl"
    with open(store, "ab") as fh:
        run_store_append(fh, make_record())
        run_store_append(fh, make_record(key=b"\x03"))
        # flushed: the lines are in the file while the handle is still open
        assert store.read_text() == (
            record_line(make_record()) + "\n" + record_line(make_record(key=b"\x03")) + "\n"
        )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_a_full_store_raises_io_error_and_closes_the_handle(monkeypatch):
    with pytest.raises(IoError, match="^cannot append to /dev/full: "):
        run_store_append("/dev/full", make_record())
    opened = _spy_on_open(monkeypatch)
    with pytest.raises(IoError, match="^cannot append to /dev/full: "):
        sweep_theorem("T1", 4, store="/dev/full")
    ((_, fh),) = opened
    assert fh.closed


def test_an_empty_store_path_is_refused(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr("forestry.sweep.family_levels", never)
    refused = "^store '' is not a path$"
    with pytest.raises(InputError, match=refused):
        sweep_theorem("T1", 5, store="")
    with pytest.raises(InputError, match=refused):
        sweep_theorem("T1", 5, store="", resume=True)
    with pytest.raises(InputError, match=refused):
        run_store_append("", make_record())
    with pytest.raises(InputError, match=refused):
        run_store_resume("")


def test_resume_skips_what_is_already_stored(tmp_path):
    store = tmp_path / "t1.jsonl"
    first = sweep_theorem("T1", 4, store=store)
    assert first.checked == 4
    second = sweep_theorem("T1", 5, store=store, resume=True)
    assert second.skipped == 4
    assert second.checked == 4  # the order-5 members only
    # a full rerun now skips everything and still reports no trouble
    third = sweep_theorem("T1", 5, store=store, resume=True)
    assert third.checked == 0
    assert third.skipped == 8


def test_resume_without_a_store_is_refused(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr("forestry.sweep.family_levels", never)
    with pytest.raises(ValueError, match="store"):
        sweep_theorem("T1", 5, resume=True)


def test_a_bad_order_is_refused_before_the_store_is_read(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the store was read")

    monkeypatch.setattr("forestry.sweep.run_store_resume", never)
    store = tmp_path / "t1.jsonl"
    for order, refused in (("9", "^order '9' is not an int$"),
                           (13, "^order 13 exceeds the cap of 12$")):
        with pytest.raises(InputError, match=refused):
            sweep_theorem("T1", order, store=store, resume=True)
    # enumerate_family checks its arguments at the call, not at the first graph
    with pytest.raises(InputError, match="^order 13 exceeds the cap of 12$"):
        enumerate_family(13, {2, 3})
    with pytest.raises(InputError, match="^supported degree sets are"):
        enumerate_family(4, {2, 5})


def test_resume_keeps_stored_outcomes(tmp_path):
    store = tmp_path / "t1.jsonl"
    sweep_theorem("T1", 6, store=store)
    summary = sweep_theorem("T1", 7, store=store, resume=True)
    assert summary.skipped == 19
    assert summary.violations == ((4, key_of("K4")),)
    assert (4, key_of("K4-e")) in summary.equalities


def test_resume_raises_on_a_stored_unexpected_violation(tmp_path):
    store = tmp_path / "t1.jsonl"
    sweep_theorem("T1", 4, store=store)
    records = [parse_record(line) for line in store.read_text().splitlines()]
    lines = [
        record_line(r._replace(verdict="LT")) if r.key == key_of("K4-e") else record_line(r)
        for r in records
    ]
    store.write_text("\n".join(lines) + "\n")
    stored = f"^unexpected violation at n=4 key={key_of('K4-e').hex()}$"
    with pytest.raises(CheckFailed, match=stored) as err:
        sweep_theorem("T1", 4, store=store, resume=True)
    assert err.value.keys == (key_of("K4-e"),)


def test_a_store_of_another_version_is_recounted(tmp_path, caplog):
    # its keys may come from another canon serialization, so none is
    # trusted, not even a verdict that would hide K4's violation
    store = tmp_path / "t1.jsonl"
    sweep_theorem("T1", 6, store=store)
    lines = [
        json.dumps({**json.loads(line), "v": RECORD_VERSION + 1, "verdict": "GE"})
        for line in store.read_text().splitlines()
    ]
    store.write_text("\n".join(lines) + "\n")
    with caplog.at_level("WARNING", logger="forestry.sweep"):
        summary = sweep_theorem("T1", 6, store=store, resume=True)
    assert (summary.checked, summary.skipped) == (19, 0)
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == len(lines) == 19
    version = f"unknown record version {RECORD_VERSION + 1}"
    assert all(w == f"{store} line {i} skipped: {version}" for i, w in enumerate(warnings, 1))
    assert summary.violations == ((4, key_of("K4")),)


def test_resume_is_scoped_by_family(tmp_path):
    store = tmp_path / "mixed.jsonl"
    sweep_theorem("T1", 3, store=store)
    # the triangle is in both families; a T2 resume must not skip it
    summary = sweep_theorem("T2", 3, store=store, resume=True)
    assert summary.checked == 1
    assert set(run_store_resume(store)) == {key_of("K3")}
    assert run_store_resume(store, family="2345") == {}


def test_append_then_resume(tmp_path):
    store = tmp_path / "runs.jsonl"
    record = make_record()
    run_store_append(store, record)
    assert run_store_resume(store) == {record.key: record}


def test_resume_on_empty_or_missing_store(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert run_store_resume(empty) == {}
    assert run_store_resume(tmp_path / "never-written.jsonl") == {}


def test_corrupt_lines_are_skipped_with_a_warning(tmp_path, caplog):
    store = tmp_path / "runs.jsonl"
    for i in range(10):
        run_store_append(store, make_record(key=bytes([i])))
    text = store.read_text()
    lines = text.splitlines()
    lines.insert(5, '{"v": 1, "family": "23", "key": "zz"')
    store.write_text("\n".join(lines) + "\n")
    with caplog.at_level("WARNING", logger="forestry.sweep"):
        done = run_store_resume(store)
    assert set(done) == {bytes([i]) for i in range(10)}
    assert len(caplog.records) == 1
    assert "line 6" in caplog.text


def test_an_undecodable_line_is_skipped_with_a_warning(tmp_path, caplog):
    store = tmp_path / "runs.jsonl"
    sweep_theorem("T1", 4, store=store)
    first, second = store.read_bytes().splitlines(keepends=True)[:2]
    store.write_bytes(first + b"\xff\n" + second)
    with caplog.at_level("WARNING", logger="forestry.sweep"):
        summary = sweep_theorem("T1", 4, store=store, resume=True)
    assert summary.skipped == 2
    assert len(caplog.records) == 1
    assert "line 2" in caplog.text


def test_a_record_prints_its_fields_by_name():
    assert repr(make_record()) == (
        "SweepRecord(family='23', n=4, key=b'\\x01\\x02', forests=38, "
        "bound_text='2^12 3^6 / 4', verdict='GE', exception=False, ts='2026-08-16T00:00:00Z')"
    )


def test_parse_record_rejects_damage():
    good = record_line(make_record())
    assert parse_record(good).forests == 38
    with pytest.raises(CorruptRecord):
        parse_record("not json at all")
    with pytest.raises(CorruptRecord):
        parse_record('["a", "list"]')
    with pytest.raises(CorruptRecord):
        parse_record(good.replace('"v": 1', '"v": 2'))
    with pytest.raises(CorruptRecord):
        parse_record(good.replace('"GE"', '"YES"'))
    with pytest.raises(CorruptRecord):
        parse_record(good.replace('"23"', '"99"'))
    with pytest.raises(CorruptRecord):
        parse_record(good.replace('"0102"', '"xy"'))
    with pytest.raises(CorruptRecord):
        parse_record(good.replace('"38"', '"thirty-eight"'))


@pytest.mark.parametrize(
    "field, damaged",
    [
        ('"n": 4', '"n": true'),
        ('"v": 1', '"v": true'),
        ('"forests": "38"', '"forests": "3_8"'),
        ('"key": "0102"', '"key": "01 02"'),
        ('"bound": "2^12 3^6 / 4"', '"bound": 7'),
    ],
    ids=["bool-n", "bool-v", "underscored-forests", "spaced-key", "int-bound"],
)
def test_parse_record_accepts_only_what_record_line_writes(field, damaged):
    good = record_line(make_record())
    assert parse_record(good + "\n") == make_record()
    assert field in good
    with pytest.raises(CorruptRecord):
        parse_record(good.replace(field, damaged))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(family for _, family, _, _ in THEOREMS.values())),
    st.integers(0, 10**6),
    st.binary(max_size=40),
    st.integers(0, 10**4000),
    st.builds(BoundExpr, st.integers(-10**9, 10**9), st.integers(-10**9, 10**9),
              st.integers(-10**9, 10**9), st.integers(1, 10**6)),
    st.sampled_from([LESS, EQUAL, GREATER]),
    st.booleans(),
    st.text(max_size=30),
)
def test_record_line_writes_what_sorted_keys_would(family, n, key, forests, bound, verdict,
                                                   exception, ts):
    record = SweepRecord(family, n, key, forests, str(bound), verdict, exception, ts)
    assert record_line(record) == json.dumps(
        {
            "v": RECORD_VERSION,
            "family": family,
            "n": n,
            "key": key.hex(),
            "forests": str(forests),
            "bound": str(bound),
            "verdict": verdict,
            "exception": exception,
            "ts": ts,
        },
        sort_keys=True,
    )


def test_parse_record_takes_the_family_tags_from_the_theorems(monkeypatch):
    for tag in ("23", "234"):
        assert parse_record(record_line(make_record(family=tag))).family == tag
    tagged = record_line(make_record(family="2345"))
    with pytest.raises(CorruptRecord, match="unknown family '2345'"):
        parse_record(tagged)
    monkeypatch.setitem(THEOREMS, "T3", ((2, 3, 4, 5), "2345", None, ()))
    assert parse_record(tagged).family == "2345"


def test_append_to_unwritable_location_raises(tmp_path):
    with pytest.raises(IoError, match="^cannot append to /no/such/directory/runs.jsonl: "):
        run_store_append("/no/such/directory/runs.jsonl", make_record())
    # a directory cannot be opened for appending, and the sweep passes that on
    with pytest.raises(IoError, match=f"^cannot append to {re.escape(str(tmp_path))}: "):
        run_store_append(tmp_path, make_record())
    with pytest.raises(IoError, match=f"^cannot append to {re.escape(str(tmp_path))}: "):
        sweep_theorem("T1", 4, store=tmp_path)


@pytest.mark.parametrize("store", [1, 2, 0, True, 2.0, b"runs.jsonl"])
def test_a_store_that_is_not_a_path_is_refused_before_any_work(store, monkeypatch):
    # open() takes an int for a file descriptor, and closes it when done
    def never(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr("forestry.sweep.family_levels", never)
    refused = f"^store {re.escape(repr(store))} is not a path$"
    with pytest.raises(InputError, match=refused):
        sweep_theorem("T1", 4, store=store)
    with pytest.raises(InputError, match=refused):
        sweep_theorem("T1", 4, store=store, resume=True)
    with pytest.raises(InputError, match=refused):
        run_store_append(store, make_record())
    with pytest.raises(InputError, match=refused):
        run_store_resume(store)
    for fd in (1, 2):
        os.fstat(fd)  # raises when the descriptor was closed


@pytest.mark.parametrize("n_max", ["9", None, 5.0, True])
def test_an_order_that_is_not_an_int_is_refused(n_max):
    with pytest.raises(InputError, match=f"^order {re.escape(repr(n_max))} is not an int$"):
        sweep_theorem("T1", n_max)


def test_unknown_theorem_rejected():
    with pytest.raises(ValueError):
        sweep_theorem("T3", 4)


def test_missing_expected_offender_is_reported(monkeypatch):
    import forestry.sweep as sweep_mod

    # pretend K4 is not special: its violation must then abort the sweep
    patched = dict(sweep_mod.THEOREMS)
    patched["T1"] = (patched["T1"][0], "23", patched["T1"][2], ())
    monkeypatch.setattr(sweep_mod, "THEOREMS", patched)
    unexpected = f"^unexpected violation at n=4 key={key_of('K4').hex()}$"
    with pytest.raises(CheckFailed, match=unexpected) as err:
        sweep_theorem("T1", 4)
    assert key_of("K4") in err.value.keys

    # pretend K4-e should violate: an equality is then a counting bug
    patched["T1"] = (patched["T1"][0], "23", patched["T1"][2], ((4, "K4-e"), (4, "K4")))
    with pytest.raises(CheckFailed, match="^K4-e expected to violate but compared EQ$") as err:
        sweep_theorem("T1", 4)
    assert key_of("K4-e") in err.value.keys
