"""The `key = value` dialect of run configs, scene specs and dataset
manifests, and the `cfg.*` checkpoint encoding of the same config dataclasses.

A text file holds one `key = value` per line; `#` starts a comment, blank
lines are skipped and a key may appear once. A value takes the type of the
dataclass field its key names: int, finite float, `true`/`false`, str, or a
tuple of finite floats written comma-separated. An `indexed` field is a list
written as one `prefix.K` line per item, K = 0, 1, ... in decimal without
leading zeros; a dataclass item is written as its fields, comma-separated.
Errors name the 1-based line.

A field declares its domain here (`choice`, `letter_set`, `within` and its
shorthands), and `check_fields` checks an object against the declarations.

A checkpoint stores a field as the float64 scalar `cfg.<name>`: numbers and
bools as themselves, a `choice` field as the index of its value and a
`letter_set` field as a bit mask over its letters.
"""

import math
from dataclasses import MISSING, astuple, field, fields, is_dataclass

import numpy as np

from .events import ParseError
from .tensor import ArgumentError


def choice(default, choices):
    """A str field whose value must be one of `choices`."""
    return field(default=default, metadata={"choices": choices})


def letter_set(default, letters):
    """A str field that holds a subset of `letters`."""
    return field(default=default, metadata={"letters": letters})


def within(default, low, high, low_open=False, high_open=False):
    """A number field, or a tuple of numbers, whose values lie between low and
    high; each end is included unless it is open."""
    return field(default=default, metadata={"domain": (low, high, low_open, high_open)})


def at_least(default, low):
    return within(default, low, math.inf)


def positive(default):
    return within(default, 0, math.inf, low_open=True)


def fraction(default):
    """A float field in [0, 1)."""
    return within(default, 0, 1, high_open=True)


def indexed(prefix, item):
    """A list field written as `prefix.K = <item>` lines; item is a type or a dataclass."""
    return field(default=(), metadata={"prefix": prefix, "item": item})


def _rule(low, high, low_open, high_open):
    if high < math.inf:
        return "lie in %s%r, %r%s" % ("[("[low_open], low, high, "])"[high_open])
    if low_open:
        return "be positive" if low == 0 else "be > %r" % low
    return "be >= %r" % low


def check_fields(obj, error, where=""):
    """Raise `error` unless every field of dataclass obj lies in its declared
    domain; the fields of an indexed field's dataclass items are checked in
    turn, each error naming its item `prefix.K: `."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        allowed, domain = f.metadata.get("choices"), f.metadata.get("domain")
        letters = f.metadata.get("letters")
        if allowed is not None and value not in allowed:
            raise error("%s%s must be one of %s, got %r" % (where, f.name, allowed, value))
        if letters is not None and not set(value) <= set(letters):
            raise error("%s%s must hold only the letters %s, got %r"
                        % (where, f.name, letters, value))
        if domain is not None:
            low, high, low_open, high_open = domain
            for x in value if isinstance(value, tuple) else (value,):
                if not ((x > low if low_open else x >= low)
                        and (x < high if high_open else x <= high)):
                    raise error("%s%s must %s, got %r" % (where, f.name, _rule(*domain), x))
        if is_dataclass(f.metadata.get("item")):
            for k, item in enumerate(value):
                check_fields(item, error, "%s.%d: " % (f.metadata["prefix"], k))


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


def read(text, cls, kind, ignore=()):
    """The field values of dataclass cls that `key = value` text holds.

    An indexed field's value is its items in K order, which must run from 0
    without holes. A key that names no field, and starts with no prefix in
    `ignore`, is an "unknown <kind>key" error, as is a field without a default
    that no line names; kind is the file's kind with a trailing space, or "".
    """
    typed = {f.name: f.type for f in fields(cls) if "prefix" not in f.metadata}
    lists = {f.metadata["prefix"]: f for f in fields(cls) if "prefix" in f.metadata}
    values, items, seen = {}, {prefix: {} for prefix in lists}, set()
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
        prefix, dot, k = key.partition(".")
        if key in typed:
            values[key] = parse_value(typed[key], key, value, i)
        elif dot and prefix in lists:
            # K in ASCII decimal without leading zeros
            if not (k.isascii() and k.isdigit() and str(int(k)) == k):
                raise ParseError("line %d: bad index in key %r" % (i, key))
            items[prefix][int(k)] = _parse_item(lists[prefix].metadata["item"], key, value, i)
        elif not key.startswith(ignore):
            raise ParseError("line %d: unknown %skey %r" % (i, kind, key))
    for prefix, f in lists.items():
        got = sorted(items[prefix])
        if got != list(range(len(got))):
            raise ParseError("%s indices must be 0..%d without holes, got %s"
                             % (prefix, len(got) - 1, got))
        values[f.name] = f.type(items[prefix][k] for k in got)
    for f in fields(cls):
        if f.default is MISSING and f.name not in values:
            raise ParseError("%slacks key %r" % (kind, f.name))
    return values


def _parse_item(item, key, text, line):
    if not is_dataclass(item):
        return parse_value(item, key, text, line)
    parts, names = text.split(","), [f.name for f in fields(item)]
    if len(parts) != len(names):
        raise ParseError("line %d: %s needs %d fields (%s), got %d"
                         % (line, key, len(names), ", ".join(names), len(parts)))
    return item(*(parse_value(f.type, f.name, p.strip(), line)
                  for f, p in zip(fields(item), parts)))


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


def format_lines(obj):
    """`key = value` lines for the fields of dataclass obj, in field order; an
    indexed field gives one `prefix.K` line per item."""
    lines = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        if "prefix" in f.metadata:
            lines += ["%s.%d = %s" % (f.metadata["prefix"], k,
                                      format_value(astuple(x) if is_dataclass(x) else x))
                      for k, x in enumerate(value)]
        else:
            lines.append("%s = %s" % (f.name, format_value(value)))
    return lines


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
