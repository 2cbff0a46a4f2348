import json

from msignn.jsonio import read_json, write_json

from conftest import SCHEMA


def read(tmp_path, text, schema=SCHEMA):
    path = tmp_path / "f.json"
    path.write_text(text)
    return read_json(path, schema)


def test_read_json_returns_a_value_that_fits(tmp_path):
    value = {"name": "a", "size": 1, "rate": 2, "items": [{"m": 0}, {"m": -3, "on": False}]}
    assert read(tmp_path, json.dumps(value)) == value


def test_read_json_accepts_an_integer_too_large_for_a_float(tmp_path):
    value = {"name": "a", "size": 10 ** 400, "rate": 10 ** 400, "items": []}
    assert read(tmp_path, json.dumps(value)) == value


def test_a_kind_schema_leaves_the_contents_unchecked(tmp_path):
    # checkpoint parameters are such contents: load_checkpoint checks them itself
    value = read(tmp_path, '{"any": [1, "x", NaN]}', "object")
    assert list(value) == ["any"] and value["any"][:2] == [1, "x"]


def test_write_json_round_trips_with_sorted_keys(tmp_path):
    value = {"size": 3, "name": "a", "items": [{"m": 1}], "rate": 0.1 + 0.2}
    write_json(tmp_path / "f.json", value)
    assert (tmp_path / "f.json").read_text() == json.dumps(value, sort_keys=True) + "\n"
    assert read_json(tmp_path / "f.json", SCHEMA) == value
