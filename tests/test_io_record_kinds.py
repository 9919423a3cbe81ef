"""The witness store's record-kind table: one codec for every line type."""

import collections
import json
from pathlib import Path

import pytest

from repro.io import WitnessDB, WitnessFormatError, WitnessRecord
from repro.io.witnessdb import (
    AsyncSummaryRecord,
    CensusCellRecord,
    ScaleFreeCellRecord,
    SearchRecord,
    record_from_dict,
    record_to_dict,
    rule_registry_name,
)
from repro.rules import RULE_NAMES, make_rule

SHIPPED = Path(__file__).resolve().parent.parent / "results" / "witnesses.jsonl"


def _samples():
    """One small record of every kind, keyed by type tag."""
    return {
        "witness": WitnessRecord(
            rule="smp", kind="mesh", m=3, n=3, colors=3, k=0, seed_size=3,
            monotone=True, configuration=(0, 1, 1, 2, 0, 1, 2, 2, 0),
        ),
        "census-cell": CensusCellRecord(
            kind="mesh", n=4, definition={"seed": 1}, row={"n": 4},
        ),
        "scale-free-cell": ScaleFreeCellRecord(
            strategy="hubs", seed_fraction=0.05, definition={"seed": 1}, row={},
        ),
        "async-summary": AsyncSummaryRecord(
            label="theorem2_mesh", definition={"root": 7}, row={},
        ),
        "search": SearchRecord(
            definition={"mode": "random"}, witness_ids=["abc"], examined=9,
        ),
    }


def _load_line(tmp_path, payload, *, strict=False):
    path = tmp_path / "w.jsonl"
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")
    return WitnessDB(path, strict=strict)


def test_shipped_corpus_round_trips_byte_for_byte():
    lines = SHIPPED.read_text().splitlines()
    tags = collections.Counter()
    for lineno, line in enumerate(lines, 1):
        payload = json.loads(line)
        record = record_from_dict(payload)
        again = json.dumps(record_to_dict(record), sort_keys=True)
        assert again == line, f"line {lineno} ({payload['type']}) drifted"
        assert record.id == payload["id"]
        tags[payload["type"]] += 1
    assert len(lines) == 203
    assert tags == {
        "witness": 174, "census-cell": 12, "scale-free-cell": 9,
        "search": 7, "async-summary": 1,
    }
    unwitnessed = [
        json.loads(line) for line in lines
        if '"census-cell"' in line and '"witness_id": null' in line
    ]
    assert len(unwitnessed) == 1


@pytest.mark.parametrize("tag", sorted(_samples()))
def test_every_kind_round_trips_through_the_store(tmp_path, tag):
    record = _samples()[tag]
    payload = record_to_dict(record)
    assert payload["type"] == tag and payload["id"] == record.id
    assert record_from_dict(payload) == record
    db = _load_line(tmp_path, payload, strict=True)
    assert db.corrupt == []


@pytest.mark.parametrize("schema", [0, -1, True, False, 2, "1", None])
@pytest.mark.parametrize("tag", sorted(_samples()))
def test_bad_schema_is_rejected_on_every_kind(tmp_path, tag, schema):
    payload = {**record_to_dict(_samples()[tag]), "schema": schema}
    with pytest.raises(WitnessFormatError, match="schema"):
        _load_line(tmp_path, payload, strict=True)
    db = _load_line(tmp_path, payload)
    assert [lineno for lineno, _ in db.corrupt] == [1]


@pytest.mark.parametrize("tag", ["bogus", "census-row", 7, ["search"]])
def test_unknown_type_tag_is_reported_plainly(tmp_path, tag):
    payload = {"type": tag, "schema": 1}
    db = _load_line(tmp_path, payload)
    assert db.corrupt == [(1, f"unknown record type {tag!r}")]
    with pytest.raises(WitnessFormatError, match="unknown record type"):
        _load_line(tmp_path, payload, strict=True)


@pytest.mark.parametrize("witness_ids", ["abc", None, [1, 2], {"a": 1}])
def test_search_witness_ids_must_be_a_list_of_strings(tmp_path, witness_ids):
    payload = {**record_to_dict(_samples()["search"]), "witness_ids": witness_ids}
    with pytest.raises(WitnessFormatError, match="witness_ids"):
        record_from_dict(payload)
    db = _load_line(tmp_path, payload)
    assert db.records(SearchRecord) == [] and len(db.corrupt) == 1


def test_search_without_witness_ids_loads_empty():
    payload = record_to_dict(_samples()["search"])
    del payload["witness_ids"]
    payload["id"] = ""
    assert record_from_dict(payload).witness_ids == []


@pytest.mark.parametrize("tag", ["census-cell", "scale-free-cell", "async-summary"])
def test_definition_and_row_must_be_objects(tag):
    payload = {**record_to_dict(_samples()[tag]), "row": [1, 2]}
    with pytest.raises(WitnessFormatError, match="row"):
        record_from_dict(payload)


def test_find_rejects_a_key_of_the_wrong_arity(tmp_path):
    db = WitnessDB(tmp_path / "w.jsonl")
    db.put(_samples()["scale-free-cell"])
    assert db.find(ScaleFreeCellRecord, "hubs", 0.05, {"seed": 1}) is not None
    with pytest.raises(TypeError, match="id fields"):
        db.find(ScaleFreeCellRecord, "hubs", {"seed": 1})


@pytest.mark.parametrize("name", RULE_NAMES)
def test_rule_registry_name_inverts_make_rule(name):
    assert rule_registry_name(make_rule(name)) == name
    assert rule_registry_name(make_rule(name), num_colors=4) == name
