"""``dataset.dump_json`` writes the bytes of ``json.dumps(..., sort_keys=True,
indent=2)`` plus a newline, for every payload the CLI emits and for random
JSON trees."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superelliptic import cli, dataset
from superelliptic.dataset import dump_json


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv", [
    ["export", "--what", "dataset"],
    ["export", "--what", "blue"],
    ["export", "--what", "errata"],
    ["list", "--format", "json"],
    ["list", "--blue-only", "--genus", "9", "--format", "json"],
    ["verify", "--format", "json"],
    ["verify", "--strict", "--format", "json"],
    ["verify", "--genus", "3", "--format", "json"],    # empty failure and warning lists
    ["row", "--genus", "6", "--nr", "11", "--format", "json"],
    ["row", "--genus", "9", "--nr", "12", "--format", "json"],
    ["classify", "--genus", "3", "--nr", "1", "--format", "json"],
    ["levels", "--genus", "10", "--format", "json"],
    ["levels", "--genus", "6", "--format", "json", "--timestamps"],
    ["export", "--what", "errata", "--timestamps"],
], ids=" ".join)
def test_every_cli_payload_matches_json_dumps(monkeypatch, capsys, argv) -> None:
    payloads = []

    def recording(obj):
        payloads.append(obj)
        return dump_json(obj)

    monkeypatch.setattr(cli, "dump_json", recording)
    monkeypatch.setattr(dataset, "dump_json", recording)
    assert cli.main(argv) in (0, 1)
    out = capsys.readouterr().out
    assert len(payloads) == 1
    assert out == reference(payloads[0])


_TEXT = st.text(st.one_of(
    st.characters(),                                   # any code point
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€😀'),
))

_LEAVES = st.one_of(
    st.none(), st.booleans(), _TEXT,
    st.integers(), st.integers(min_value=-10**40, max_value=10**40),
    st.floats(),
)

_TREES = st.recursive(_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.dictionaries(_TEXT, children, max_size=4),
    st.dictionaries(st.integers(), children, min_size=1, max_size=3),
), max_leaves=30)


@given(_TREES)
def test_dump_json_matches_json_dumps(obj) -> None:
    assert dump_json(obj) == reference(obj)


def test_dump_json_fixed_cases() -> None:
    cases = [
        {}, [], "", 0, -(10**30), True, None, 1.5,
        {"b": [], "a": {}, "c": [{}, [[]]]},
        {"x": {1: "one", 2: ["two"]}, "y": [None, False, "é\n\"\\"]},
        [{"k": [1, [2, [3, {"deep": "end"}]]]}],
    ]
    for obj in cases:
        assert dump_json(obj) == reference(obj)
    for mixed in ({1: 0, "a": 0}, [{"a": {None: 0, "b": 1}}]):
        with pytest.raises(TypeError):
            json.dumps(mixed, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            dump_json(mixed)
