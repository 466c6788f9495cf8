"""Flat-table serialization shared by the report types and the CLI.

Numbers are written with 17 significant digits and a '.' decimal point so a
rerun with the same config and seed produces byte-identical files.
"""

from __future__ import annotations

import json


def fmt(value):
    """Locale-independent cell formatting."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, columns, rows):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _jsonable(value):
    # json.dump writes every float itself; only other values come here
    if hasattr(value, "tolist"):
        return value.tolist()
    return str(value)


def table_payload(task, columns, rows):
    """The JSON twin of a CSV table."""
    return {
        "task": task,
        "columns": list(columns),
        "rows": [list(row) for row in rows],
    }
