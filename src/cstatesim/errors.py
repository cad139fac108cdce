"""Shared exception types, the field check and the reader for input files.

Everything user-facing raises one of these two, so the CLI can map
domain errors to exit code 1 and malformed input files to helpful
messages with line numbers.  The INI files (catalog and sim config)
share one reader: read_ini for the sections, read_section for a spec's
keys and its spec fields' sections: one key rule, one set of messages.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import MISSING, Field, fields, is_dataclass
from functools import lru_cache
from typing import Literal, Tuple, get_args, get_origin, get_type_hints

__all__ = ["ValidationError", "ParseError", "read_input", "read_ini", "file_fields",
           "require_fields", "read_section"]


class ValidationError(ValueError):
    """A value or combination of values violates a documented contract."""


class ParseError(ValueError):
    """An input file could not be parsed.

    Carries an optional 1-based line number so messages can point at the
    offending row of a CSV or config file.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def read_input(path: str) -> str:
    """The text of an input file, decoded as UTF-8.

    Undecodable bytes raise ParseError; the file's own failures (a
    missing file, a directory) stay OSError.
    """
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path}: not UTF-8 text (byte {e.start}: {e.reason})") from None


def read_ini(text: str, what: str) -> configparser.ConfigParser:
    """The sections of INI text; what names the file in a syntax error.

    A [DEFAULT] section is rejected: configparser would hand its keys
    to every section.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ParseError(f"bad {what}: {e}") from None
    if cp.defaults():
        raise ParseError(f"unknown section [{cp.default_section}]")
    return cp


@lru_cache(maxsize=None)
def file_fields(cls) -> Tuple[Tuple[Field, str, type], ...]:
    """(field, file key, annotated type) for each field of a dataclass.

    A *_mw field is the key *_w, written and read in watts.
    """
    hints = get_type_hints(cls)
    return tuple(
        (f, f.name[:-3] + "_w" if f.name.endswith("_mw") else f.name, hints[f.name])
        for f in fields(cls)
    )


@lru_cache(maxsize=None)
def _field_rules(cls) -> Tuple[Tuple[str, object], ...]:
    """(name, rule) per checked field of cls: int, float or a Literal's values."""
    return tuple((f.name, get_args(hint) if get_origin(hint) is Literal else hint)
                 for f, _, hint in file_fields(cls)
                 if hint in (int, float) or get_origin(hint) is Literal)


def require_fields(spec, where: str = "") -> None:
    """Check each field of a spec against its annotation: a Literal field
    takes one of its values, an int field an int and a float field a
    finite int or float, never a bool.  Messages name the field after where."""
    for name, rule in _field_rules(type(spec)):
        value = getattr(spec, name)
        if rule is int:
            if type(value) is not int:
                raise ValidationError(f"{where}{name} must be an integer, got {value!r}")
        elif rule is float:
            if type(value) is bool or not isinstance(value, (int, float)):
                raise ValidationError(f"{where}{name} must be a number, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"{where}{name} must be finite, got {value!r}")
        elif value not in rule:
            raise ValidationError(f"{where}{name} must be one of {rule}, got {value!r}")


def _milliwatts(raw: str) -> int:
    # Powers are quantized to whole milliwatts on ingest.
    mw = float(raw) * 1000.0
    if not (math.isfinite(mw) and mw >= 0):
        raise ValueError(raw)
    return round(mw)


def _state_list(raw: str) -> frozenset:
    return frozenset(s.strip() for s in raw.split(",") if s.strip())


# How a key's text becomes its field's value, by the field's annotated type.
_READERS = {
    int: int,
    float: float,
    str: str.strip,
    Literal: str.strip,
    frozenset: _state_list,
}


def read_section(cp, section: str, cls, base=None, **given):
    """cls from the INI section of cp named section, key by key from its fields.

    A field whose type is a spec dataclass is read the same way from the
    section named after it, so it is not a key.  Every other field that
    is not given is a key, parsed by the field's type (a Literal field as
    a stripped string, which cls's require_fields checks); an absent
    section has no keys.  An absent or empty key keeps its base value:
    base's attribute, or with no base the dataclass default; a field
    with neither is a missing key.  An empty state list is read as
    empty: an empty menu is an error, not the default menu.
    """
    for f, _, hint in file_fields(cls):
        if is_dataclass(hint) and f.name not in given:
            given[f.name] = read_section(cp, f.name, hint)
    sec = cp[section] if section in cp else {}
    keys = [t for t in file_fields(cls) if t[0].name not in given]
    unknown = sorted(set(sec) - {key for _, key, _ in keys})
    if unknown:
        raise ParseError(f"[{section}] unknown key {unknown[0]!r}")
    for f, key, hint in keys:
        raw = sec.get(key)
        if raw is not None and (raw.strip() or hint is frozenset):
            watts = key != f.name
            read = _milliwatts if watts else _READERS[get_origin(hint) or hint]
            try:
                given[f.name] = read(raw)
            except ValueError:
                word = "integer" if hint is int and not watts else "number"
                note = " (a power must be finite and nonnegative)" if watts else ""
                raise ParseError(f"[{section}] bad {word} for {key!r}: {raw!r}{note}") from None
        elif base is not None:
            given[f.name] = getattr(base, f.name)
        elif f.default is MISSING:
            raise ParseError(f"[{section}] missing key {key!r}")
    return cls(**given)
