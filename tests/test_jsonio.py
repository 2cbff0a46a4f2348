import json

import pytest

from msignn.errors import DataFormatError
from msignn.jsonio import read_json, write_json

SCHEMA = {"name": "string", "size": "count", "rate?": "number",
          "items": [{"m": "integer", "on?": "boolean"}]}


def read(tmp_path, text, schema=SCHEMA):
    path = tmp_path / "f.json"
    path.write_text(text)
    return read_json(path, schema)


def test_read_json_returns_a_value_that_fits(tmp_path):
    value = {"name": "a", "size": 1, "rate": 2, "items": [{"m": 0}, {"m": -3, "on": False}]}
    assert read(tmp_path, json.dumps(value)) == value


@pytest.mark.parametrize("change, message", [
    ({"size": 0}, "size must be a JSON integer >= 1, got 0"),
    ({"size": 2.0}, "size must be a JSON integer >= 1, got 2.0"),
    ({"size": True}, "size must be a JSON integer >= 1, got true"),
    ({"rate": True}, "rate must be a finite JSON number, got true"),
    ({"rate": "1"}, 'rate must be a finite JSON number, got "1"'),
    ({"name": None}, "name must be a JSON string, got null"),
    ({"items": {}}, "items must be a JSON array, got {}"),
    ({"items": [{"m": 1}, {"m": 1.5}]}, r"items\[1\].m must be a JSON integer, got 1.5"),
    ({"items": [{"m": 1, "on": 1}]}, r"items\[0\].on must be a JSON boolean, got 1"),
    ({"items": [{"m": 1, "of": True}]}, r"unknown key 'items\[0\].of'"),
    ({"items": [{}]}, r"missing key 'items\[0\].m'"),
    ({"sise": 1}, "unknown key 'sise'"),
], ids=["zero-count", "float-count", "bool-count", "bool-number", "string-number", "null",
        "object-for-array", "nested-integer", "nested-boolean", "nested-unknown",
        "nested-missing", "unknown"])
def test_read_json_names_the_file_and_key_of_a_misfit(tmp_path, change, message):
    value = dict({"name": "a", "size": 1, "items": []}, **change)
    with pytest.raises(DataFormatError, match=message) as info:
        read(tmp_path, json.dumps(value))
    assert str(tmp_path / "f.json") in str(info.value)


def test_read_json_names_a_missing_required_key(tmp_path):
    with pytest.raises(DataFormatError, match="missing key 'size'"):
        read(tmp_path, '{"name": "a", "items": []}')


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_read_json_rejects_a_number_that_is_not_finite(tmp_path, literal):
    text = f'{{"name": "a", "size": 1, "items": [], "rate": {literal}}}'
    with pytest.raises(DataFormatError, match="rate must be a finite JSON number"):
        read(tmp_path, text)


def test_read_json_accepts_an_integer_too_large_for_a_float(tmp_path):
    value = {"name": "a", "size": 10 ** 400, "rate": 10 ** 400, "items": []}
    assert read(tmp_path, json.dumps(value)) == value


@pytest.mark.parametrize("text, message", [
    ("{", "invalid JSON"),
    ("5", "top level must be a JSON object, got 5"),
    ('"abc"', 'top level must be a JSON object, got "abc"'),
    ("[]", r"top level must be a JSON object, got \[\]"),
])
def test_read_json_rejects_a_file_that_is_no_object(tmp_path, text, message):
    with pytest.raises(DataFormatError, match=message) as info:
        read(tmp_path, text)
    assert str(info.value).startswith(str(tmp_path / "f.json"))


def test_read_json_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "f.json"
    path.write_bytes(b'{"name": "\xff"}')
    with pytest.raises(DataFormatError, match="invalid JSON"):
        read_json(path, SCHEMA)


def test_read_json_reports_a_missing_file_as_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_json(tmp_path / "absent.json", SCHEMA)


def test_a_kind_schema_leaves_the_contents_unchecked(tmp_path):
    # checkpoint parameters are such contents: load_checkpoint checks them itself
    value = read(tmp_path, '{"any": [1, "x", NaN]}', "object")
    assert list(value) == ["any"] and value["any"][:2] == [1, "x"]


def test_write_json_round_trips_with_sorted_keys(tmp_path):
    value = {"size": 3, "name": "a", "items": [{"m": 1}], "rate": 0.1 + 0.2}
    write_json(tmp_path / "f.json", value)
    assert (tmp_path / "f.json").read_text() == json.dumps(value, sort_keys=True) + "\n"
    assert read_json(tmp_path / "f.json", SCHEMA) == value
