"""The `key = value` dialect of run configs, scene specs and dataset
manifests, and the `cfg.*` checkpoint encoding of the same config dataclasses.

A text file holds one `key = value` per line; `#` starts a comment, blank
lines are skipped and a key may appear once. A value takes the type of the
dataclass field its key names: int, finite float, `true`/`false`, str, or a
tuple of finite floats written comma-separated. Errors name the 1-based line.

A checkpoint stores a field as the float64 scalar `cfg.<name>`: numbers and
bools as themselves, a `choice` field as the index of its value and a
`letter_set` field as a bit mask over its letters.
"""

import math
from dataclasses import field, fields

import numpy as np

from .events import ParseError
from .tensor import ArgumentError


def choice(default, choices):
    """A str field whose value must be one of `choices` (see check_choices)."""
    return field(default=default, metadata={"choices": choices})


def letter_set(default, letters):
    """A str field that holds a subset of `letters`."""
    return field(default=default, metadata={"letters": letters})


def check_choices(obj):
    """ArgumentError unless every `choice` field of obj holds one of its choices."""
    for f in fields(obj):
        allowed = f.metadata.get("choices")
        value = getattr(obj, f.name)
        if allowed is not None and value not in allowed:
            raise ArgumentError("%s must be one of %s, got %r" % (f.name, allowed, value))


# ---------------------------------------------------------------------------
# text


_EXPECTED = {int: "an integer", float: "a finite number", bool: "true or false",
             tuple: "comma-separated finite numbers"}


def _finite(text):
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(text)
    return x


def parse_value(kind, name, text, line):
    """`text`, the value of `name` on the given line, as a value of type `kind`."""
    try:
        if kind is bool and text in ("true", "false"):
            return text == "true"
        if kind is int:
            return int(text)
        if kind is float:
            return _finite(text)
        if kind is tuple:
            # the empty value is the empty tuple; an empty field is an error
            return tuple(_finite(p) for p in text.split(",")) if text else ()
        if kind is str:
            return text
    except ValueError:
        pass
    raise ParseError("line %d: %s must be %s, got %r" % (line, name, _EXPECTED[kind], text))


def read(text, cls, skip=()):
    """Parse `key = value` text against the fields of dataclass cls.

    Returns the typed values of the keys that name a field (other than the
    fields in `skip`) and the (line, key, value) of every other line, which
    the caller reads or rejects.
    """
    typed = {f.name: f.type for f in fields(cls) if f.name not in skip}
    values, rest = {}, []
    seen = set()
    for i, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ParseError("line %d: expected key = value, got %r" % (i, raw))
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ParseError("line %d: duplicate key %r" % (i, key))
        seen.add(key)
        if key in typed:
            values[key] = parse_value(typed[key], key, value, i)
        else:
            rest.append((i, key, value))
    return values, rest


def index(key, line):
    """The N of an indexed key `name.N`, written in ASCII decimal without leading zeros."""
    text = key.partition(".")[2]
    if not (text.isascii() and text.isdigit() and str(int(text)) == text):
        raise ParseError("line %d: bad index in key %r" % (line, key))
    return int(text)


def format_value(value):
    """A value as `read` parses it back; floats print with full repr precision.

    A str that `read` would not give back unchanged is an ArgumentError: one
    holding `#` (a comment), a line break, or whitespace at either end.
    """
    if isinstance(value, str) and (value != value.strip() or any(c in value for c in "#\n\r")):
        raise ArgumentError("%r cannot be written as a key = value value: a '#', a line "
                            "break or whitespace at either end would not read back" % (value,))
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(repr(x) for x in value)
    return repr(value) if isinstance(value, float) else str(value)


def format_lines(obj, skip=()):
    """`key = value` lines for the fields of dataclass obj, in field order."""
    return ["%s = %s" % (f.name, format_value(getattr(obj, f.name)))
            for f in fields(obj) if f.name not in skip]


# ---------------------------------------------------------------------------
# checkpoint entries


def to_entries(obj, names=None):
    """`cfg.<name>` float64 scalars for the fields of obj, or only the named ones."""
    out = {}
    for f in fields(obj):
        if names is not None and f.name not in names:
            continue
        value = getattr(obj, f.name)
        if "choices" in f.metadata:
            value = f.metadata["choices"].index(value)
        elif "letters" in f.metadata:
            value = sum(1 << f.metadata["letters"].index(m) for m in value)
        out["cfg." + f.name] = np.float64(value)
    return out


def from_entries(cls, entries, required=True):
    """The field values of cls that `cfg.<name>` checkpoint entries hold.

    A field without an entry is an ArgumentError when `required` and is left
    out otherwise.
    """
    values = {}
    for f in fields(cls):
        key = "cfg." + f.name
        if key in entries:
            values[f.name] = _decode(f, key, entries[key])
        elif required:
            raise ArgumentError("checkpoint lacks %r" % key)
    return values


def _decode(f, key, stored):
    x = float(stored) if np.ndim(stored) == 0 else math.nan
    whole = x.is_integer()
    choices, letters = f.metadata.get("choices"), f.metadata.get("letters")
    if (f.type is float and math.isfinite(x)) or (f.type in (int, bool) and whole):
        return f.type(x)
    if choices and whole and 0 <= x < len(choices):
        return choices[int(x)]
    if letters and whole and 0 <= x < 1 << len(letters):
        return "".join(m for i, m in enumerate(letters) if int(x) >> i & 1)
    raise ArgumentError("checkpoint entry %r is not a valid %s" % (key, f.name))
