"""Result export: serialize experiment outputs to JSON or CSV.

The figure drivers return plain dicts/dataclasses; these helpers flatten
them into records a downstream notebook or plotting script can consume
without importing the simulator.
"""

import csv
import io
import json
from json.encoder import encode_basestring_ascii as _quote

_INFINITY = float("inf")


def _float_text(value):
    # json's floatstr with allow_nan=True.
    if value != value:
        return "NaN"
    if value == _INFINITY:
        return "Infinity"
    if value == -_INFINITY:
        return "-Infinity"
    return float.__repr__(value)


#: Exact scalar types and their JSON text as ``json`` writes them.
_SCALARS = {
    str: _quote,
    type(None): lambda value: "null",
    bool: lambda value: "true" if value else "false",
    int: int.__repr__,
    float: _float_text,
}


def _indented(value, newline):
    """``value`` as ``json.dumps(..., indent=1, sort_keys=True)`` writes
    it at the nesting level whose line break is ``newline``."""
    scalar = _SCALARS.get
    inner = newline + " "
    if isinstance(value, dict):
        if not value:
            return "{}"
        opener, closer = "{", "}"
        parts = []
        for key, item in sorted(value.items()):
            render = scalar(type(item))  # _quote raises on non-str keys
            parts.append(_quote(key) + ": "
                         + (render(item) if render is not None
                            else _indented(item, inner)))
    elif isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        opener, closer = "[", "]"
        parts = []
        for item in value:
            render = scalar(type(item))
            parts.append(render(item) if render is not None
                         else _indented(item, inner))
    else:
        render = scalar(type(value))
        if render is not None:
            return render(value)
        # Like json's isinstance checks, a subclass (an IntEnum, a str
        # subclass) renders as its base type; bool cannot be subclassed.
        for base in (str, int, float):
            if isinstance(value, base):
                return _SCALARS[base](value)
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(value).__name__)
    return opener + inner + ("," + inner).join(parts) + newline + closer


def indented_json(value):
    """``json.dumps(value, indent=1, sort_keys=True)``, byte for byte.

    CPython's C encoder serves only ``indent=None``; with an indent,
    ``json`` falls back to a generator-based pure-Python encoder.  This
    renderer builds the same text with one join per container, so it
    writes the same bytes for the same JSON values (strings through
    ``encode_basestring_ascii``, floats through ``float.__repr__`` or
    ``NaN``/``Infinity``, ``true``/``false``/``null``, ``[]``/``{}``,
    sorted keys) at a fraction of the cost.  Unlike ``json`` it takes
    only string keys (JSON's own; ``json`` would coerce numbers, bools
    and ``None``) and does not detect circular containers.
    """
    return _indented(value, "\n")


def _jsonable(value):
    """Recursively coerce experiment results into JSON-compatible types."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if hasattr(value, "__dataclass_fields__"):
        return {
            name: _jsonable(getattr(value, name))
            for name in value.__dataclass_fields__
        }
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "value"):  # enums
        return value.value
    return repr(value)


def to_json(result, path=None, indent=2):
    """Serialize any experiment result to JSON (string, or file when
    ``path`` is given)."""
    text = json.dumps(_jsonable(result), indent=indent, sort_keys=True)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text)
            handle.write("\n")
    return text


def rows_to_csv(headers, rows, path=None):
    """Write tabular rows (as produced by the figure drivers) to CSV."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
    text = buffer.getvalue()
    if path is not None:
        with open(path, "w", newline="") as handle:
            handle.write(text)
    return text


def figure_rows_to_records(rows):
    """Flatten the common ``(workload, group, {policy: value})`` row shape
    into one record per (workload, policy)."""
    records = []
    for entry in rows:
        name, group, values = entry[0], entry[1], entry[2]
        for policy, value in values.items():
            records.append({
                "workload": name,
                "group": group,
                "policy": policy,
                "value": value,
            })
    return records
