"""``dataset.dump_json`` writes the bytes of ``json.dumps(..., sort_keys=True,
indent=2)`` plus a newline, for every payload the CLI emits and for random
JSON trees; ``dataset.to_json``, the dataset document's own writer, writes
that canonical form of what it writes, for the embedded table and for
random datasets."""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superelliptic import cli, dataset
from superelliptic.dataset import Dataset, dump_json, from_json, load_embedded, to_json


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
    assert out == reference(json.loads(out))
    if argv[:3] == ["export", "--what", "dataset"]:   # the document has its own writer
        assert payloads == []
    else:
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


def test_the_escaper_without_jsons_c_module(monkeypatch) -> None:
    import json.encoder
    monkeypatch.setitem(sys.modules, "_json", None)   # an import of it now fails
    assert dataset._escaper() is json.encoder.encode_basestring_ascii


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


@st.composite
def _datasets(draw) -> Dataset:
    """Embedded rows and named curves, any of them or none, with arbitrary text."""
    embedded = load_embedded()
    rows = draw(st.lists(st.sampled_from(embedded.records), max_size=4,
                         unique_by=lambda r: r.key))
    curves = draw(st.lists(st.sampled_from(embedded.named_curves), max_size=3))
    return Dataset([r._replace(label_text=draw(_TEXT)) for r in rows],
                   [c._replace(label_text=draw(_TEXT), note=draw(_TEXT)) for c in curves])


@given(_datasets())
def test_the_dataset_document_is_canonical_and_reads_back(ds) -> None:
    text = to_json(ds)
    assert text == reference(json.loads(text))
    clone = from_json(text)
    assert clone.records == ds.records
    assert clone.named_curves == ds.named_curves
