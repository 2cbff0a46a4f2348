"""The one reader of the JSON files the library reads (checkpoints, a dataset's
``masks.json``, the CLI's ``--config``) and the one writer of those it writes."""

from __future__ import annotations

import json
import math

from .errors import DataFormatError

KINDS = {"object": dict, "array": list, "string": str, "boolean": bool,
         "integer": int, "number": (int, float), "count": int}
SHOWN = {"number": "a finite JSON number", "count": "a JSON integer >= 1"}


def read_json(path, schema):
    """The value the JSON file at ``path`` holds, checked by ``check_json``."""
    with open(path, encoding="utf-8") as fh:
        try:
            value = json.load(fh)
        except ValueError as exc:  # bad syntax or bad UTF-8
            raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    check_json(value, schema, path)
    return value


def check_json(value, schema, path, key: str = "") -> None:
    """Raise a ``DataFormatError`` naming the file and dotted key unless value fits.

    A schema is a kind (a key of ``KINDS``: ``count`` is an integer >= 1,
    for every value that sizes an array), a one-item list (an array of that
    item) or a dict (an object holding each key it lists, a key ending in
    ``?`` being optional, and no other key). A boolean is never an integer
    or a number, and a number must be finite: ``json`` accepts ``NaN``.
    """
    kind = {dict: "object", list: "array"}.get(type(schema), schema)
    if not (isinstance(value, KINDS[kind]) and (kind == "boolean") == isinstance(value, bool)
            and (kind != "count" or value >= 1) and (kind != "number" or abs(value) < math.inf)):
        raise DataFormatError(f"{path}: {key or 'top level'} must be "
                              f"{SHOWN.get(kind, 'a JSON ' + kind)}, got {json.dumps(value)}")
    if isinstance(schema, list):
        for i, item in enumerate(value):
            check_json(item, schema[0], path, f"{key}[{i}]")
    elif isinstance(schema, dict):
        fields = {name.removesuffix("?"): name for name in schema}
        for name in sorted(fields.keys() | value.keys()):
            full = f"{key}.{name}" if key else name
            if name not in fields:
                raise DataFormatError(f"{path}: unknown key {full!r}")
            if name in value:
                check_json(value[name], schema[fields[name]], path, full)
            elif fields[name] == name:
                raise DataFormatError(f"{path}: missing key {full!r}")


def write_json(path, value) -> None:
    """Write ``value`` as one line of JSON with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(value, sort_keys=True) + "\n")
