import json
import logging
import re

import pytest

from forestry import canonical_key, catalog_entry
from forestry.errors import CheckFailed, CorruptRecord, IoError
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


def test_parse_record_takes_the_family_tags_from_the_theorems(monkeypatch):
    for tag in ("23", "234"):
        assert parse_record(record_line(make_record(family=tag))).family == tag
    tagged = record_line(make_record(family="2345"))
    with pytest.raises(CorruptRecord, match="unknown family '2345'"):
        parse_record(tagged)
    monkeypatch.setitem(THEOREMS, "T3", ((2, 3, 4, 5), "2345", None, ()))
    assert parse_record(tagged).family == "2345"


def test_append_to_unwritable_location_raises():
    with pytest.raises(IoError):
        run_store_append("/no/such/directory/runs.jsonl", make_record())


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
