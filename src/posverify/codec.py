"""JSON codec for the package's frozen dataclasses, and the file writers.

``to_json`` turns a dataclass into a dict of its fields, leaving out fields
that are ``None``; tuples become lists, frozensets sorted lists, and dict
keys are kept. ``from_json`` reverses it from the field type hints: a key
that is absent takes the field's default, and one without a default is
named as missing before the object is built; a value that is already an
instance of its type passes through, an ``int`` takes only an integer and
a ``float`` only a number (neither takes a bool; a ``float`` keeps a JSON
integer as it is), a ``str`` only a string, and a tuple or frozenset only
an array. An error inside a field, dict value or array element names its
key or index, by dotted path when the value is nested (``region.x_max``,
``per_trial.1.trial``); a dataclass's check of one of its own fields raises
``FieldError``, so it is named the same way. Each write
goes to a temp file of its own, ``<name>.<random hex>.tmp`` next to the
target, and is renamed into place, so a reader never sees half a file and
writers of one path never share a temp file; the temp file is removed when
either step fails.
``read_json`` names the file and what it should hold when reading one fails.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import os
import secrets
import types
import typing
from pathlib import Path


class FieldError(ValueError):
    """A value one field does not take: ``key`` names the field, by dotted
    path once the codec has named the objects that hold it
    (``faking.grid_step``), and ``reason`` says why."""

    def __init__(self, key, reason: str):
        super().__init__(f"{key}: {reason}")
        self.key, self.reason = key, reason


def to_json(obj):
    if dataclasses.is_dataclass(obj):
        return {
            f.name: to_json(v)
            for f in dataclasses.fields(obj)
            if (v := getattr(obj, f.name)) is not None
        }
    if isinstance(obj, (tuple, list)):
        return [to_json(v) for v in obj]
    if isinstance(obj, frozenset):
        return sorted(to_json(v) for v in obj)
    if isinstance(obj, dict):
        return {k: to_json(v) for k, v in obj.items()}
    return obj


def from_json(tp, data):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if tp is int and (isinstance(data, bool) or not isinstance(data, int)):
        raise TypeError(f"expected an integer, got {data!r}")
    if tp is float and (isinstance(data, bool) or not isinstance(data, (int, float))):
        raise TypeError(f"expected a number, got {data!r}")
    if tp is str and not isinstance(data, str):
        raise TypeError(f"expected a string, got {data!r}")
    if origin is None and isinstance(data, tp):
        return data
    if (dataclasses.is_dataclass(tp) or origin is dict) and not isinstance(data, dict):
        raise TypeError(f"expected a JSON object, got {type(data).__name__}")
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        fields = dataclasses.fields(tp)
        unknown = sorted(set(data) - {f.name for f in fields})
        if unknown:
            raise ValueError(f"unknown {tp.__name__} keys {unknown}")
        for f in fields:
            required = f.default is f.default_factory is dataclasses.MISSING
            if required and f.name not in data:
                raise FieldError(f.name, "missing")
        return tp(**{k: _from_json_at(k, hints[k], v) for k, v in data.items()})
    if origin in (typing.Union, types.UnionType):
        if data is None:
            return None
        (inner,) = (a for a in args if a is not type(None))
        return from_json(inner, data)
    if origin in (tuple, frozenset):
        if not isinstance(data, (list, origin)):
            raise TypeError(f"expected a JSON array, got {type(data).__name__}")
        return origin(_from_json_at(i, args[0], v) for i, v in enumerate(data))
    if origin is dict:
        return {args[0](k): _from_json_at(k, args[1], v) for k, v in data.items()}
    return data


def _from_json_at(key, tp, data):
    """``from_json`` of the value at ``key``. An error names its key, and
    one inside nested values their keys' dotted path, ``a.b.c``; a wrong
    JSON type stays a ``TypeError``, any other error is a ``FieldError``."""
    try:
        return from_json(tp, data)
    except (TypeError, ValueError) as exc:
        inner = getattr(exc, "key", None)
        path, reason = (f"{key}.{inner}", exc.reason) if inner else (str(key), str(exc))
        if not isinstance(exc, TypeError):
            raise FieldError(path, reason) from None
        err = TypeError(f"{path}: {reason}")
        err.key, err.reason = path, reason
        raise err from None


def read_json(path, what: str, tp):
    """The ``tp`` that the JSON value in the file at ``path`` decodes to.

    An unreadable file raises ``OSError``, and a file that is not JSON or
    that does not decode raises ``ValueError``; both name ``what`` was
    being read and the path.
    """
    p = Path(path)
    try:
        data = json.loads(p.read_text())
    except OSError as exc:
        raise OSError(f"cannot read {what} {p}: {exc}") from exc
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise ValueError(f"bad {what} {p}: invalid JSON: {exc}") from exc
    try:
        return from_json(tp, data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad {what} {p}: {exc}") from exc


def write_json(path, obj) -> None:
    """Write ``to_json(obj)`` as sorted, indented JSON with a final newline."""
    _write_atomic(path, json.dumps(to_json(obj), sort_keys=True, indent=2) + "\n")


def write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _write_atomic(path, buf.getvalue())


def _write_atomic(path, text: str) -> None:
    p = Path(path)
    tmp = p.with_name(f"{p.name}.{secrets.token_hex(8)}.tmp")
    try:
        # "x" never opens another write's file; newline="" writes csv's \r\n
        # row endings untranslated
        with open(tmp, "x", newline="") as fh:
            fh.write(text)
        os.replace(tmp, p)
    except OSError as exc:
        with contextlib.suppress(OSError):
            tmp.unlink()
        # strerror leaves out the temp file's name, which exc would give
        raise OSError(f"cannot write {p}: {exc.strerror or exc}") from exc
