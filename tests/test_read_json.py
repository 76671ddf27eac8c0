"""``dataset._read_json``, json's C scanner without ``import json``, against ``json.loads``.

Each case must give the same value, or an exception of the same type with the
same message; ``read_json_check.py`` holds the comparison and runs it as a
stdlib-only script on interpreters without pytest.
"""

from __future__ import annotations

import json
import sys
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from read_json_check import DEEP, edge_cases, json_unloaded, outcomes, same
from superelliptic.dataset import from_json, load_embedded, to_json


@cache
def _export() -> str:
    return to_json(load_embedded())


def _agree(text) -> tuple:
    new, old = outcomes(text)
    assert same(new, old), (new, old)
    return old


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=300)
@given(_JSON_VALUES, st.booleans(), st.sampled_from([None, 0, 2, "\t"]), st.data())
def test_a_json_value_reads_as_json_loads_reads_it(value, ascii_only, indent, data) -> None:
    text = json.dumps(value, ensure_ascii=ascii_only, indent=indent)
    assert _agree(text)[0] == "value"
    cut = data.draw(st.integers(0, len(text) - 1))
    _agree(text[:cut] + text[cut + 1:])


@settings(max_examples=100)
@given(st.data())
def test_a_truncated_export_fails_as_json_loads_fails(data) -> None:
    export = _export()
    cut = data.draw(st.integers(0, len(export.rstrip()) - 1))   # short of the closing brace
    assert _agree(export[:cut])[0] == "error"


@settings(max_examples=100)
@given(st.data())
def test_an_export_less_one_character_reads_as_json_loads_reads_it(data) -> None:
    export = _export()
    cut = data.draw(st.integers(0, len(export) - 1))
    _agree(export[:cut] + export[cut + 1:])


@pytest.mark.parametrize("index", range(len(edge_cases(""))))
def test_an_edge_case_reads_as_json_loads_reads_it(index) -> None:
    # a BOM, whitespace, trailing data, NaN and Infinity, 5,000 digits, deep nesting
    _agree(edge_cases(_export())[index])


def test_the_export_reads_without_importing_json() -> None:
    with json_unloaded():
        assert to_json(from_json(_export())) == _export()
        assert "json" not in sys.modules


def test_deep_nesting_is_still_too_deep_to_read() -> None:
    for text in ("[" * DEEP + "]" * DEEP, '{"a": ' * DEEP):
        with json_unloaded(), pytest.raises(ValueError, match="^JSON nested too deeply to read$"):
            from_json(text)
