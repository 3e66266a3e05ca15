"""Strict loading and echoing of frozen dataclass config trees.

A config node is a frozen dataclass that derives from `ConfigNode`. Its field
annotations are the schema and its field defaults are the only defaults.
`from_dict` checks every JSON value against the annotation of its field,
fills absent keys from the defaults and rejects unknown keys, so a typo or a
mistyped value ends in a `ConfigError` naming its dotted path. Every unknown
key of the tree is named in one error. `to_dict` is the JSON echo, and
`from_dict(node.to_dict()) == node`.

`decoding(path)` guards the reading of a JSON file: text that breaks any input
rule, or nests too deeply to decode, ends in one `ConfigError` naming the file.
"""

from __future__ import annotations

import math
import types
import typing
from contextlib import contextmanager
from functools import lru_cache

from .errors import ConfigError


class ConfigNode:
    """Mixin for frozen config dataclasses: strict `from_dict`, JSON `to_dict`."""

    extra_keys = ()  # keys an overriding `from_dict` reads besides the fields

    @classmethod
    def from_dict(cls, data, path: str = ""):
        return build(cls, data, path)

    def to_dict(self) -> dict:
        return {name: _echo(getattr(self, name)) for name in _hints(type(self))}  # the fields, in order


@contextmanager
def decoding(path):
    """Guard around decoding the JSON text of file `path`: bad UTF-8 or JSON,
    JSON too deep for the decoder and a ConfigError raised inside end in one
    ConfigError naming `path`, or `path:line` while the yielded `at.line` is set."""
    at = types.SimpleNamespace(line=None)
    try:
        yield at
    except UnicodeDecodeError as e:
        reason = f"not UTF-8 text: {e}"
    except ValueError as e:  # a JSONDecodeError, or an integer past int's digit limit
        reason = f"invalid JSON: {e}"
    except RecursionError:
        reason = "JSON nests too deeply to decode"
    except ConfigError as e:
        reason = str(e)
    else:
        return
    where = path if at.line is None else f"{path}:{at.line}"
    raise ConfigError(f"{where}: {reason}" if path else reason) from None


def _echo(value):
    """`value` as JSON holds it: a node as its `to_dict`, a tuple as a list."""
    if isinstance(value, ConfigNode):
        return value.to_dict()
    return [_echo(v) for v in value] if isinstance(value, tuple) else value


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


@lru_cache(maxsize=None)
def _hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _unknown_keys(cls, data: dict, path: str) -> list[str]:
    """Dotted paths of the keys in the JSON tree `data` that the schema of
    `cls` does not hold, in the order they appear."""
    hints, found = _hints(cls), []
    for k, v in data.items():
        where = _join(path, str(k))
        if k in hints and isinstance(v, dict):
            for tp in (hints[k], *typing.get_args(hints[k])):  # a node or an optional node
                if isinstance(tp, type) and issubclass(tp, ConfigNode):
                    found += _unknown_keys(tp, v, where)
        elif k not in hints and k not in cls.extra_keys:
            found.append(where)
    return found


def build(cls, data, path: str = ""):
    """A `cls` node from the JSON object `data`; absent keys keep the field
    defaults."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected an object, got {data!r}")
    unknown = _unknown_keys(cls, data, path)
    if unknown:
        raise ConfigError(f"unknown config keys {unknown}")
    hints = _hints(cls)
    values = {k: check(hints[k], v, _join(path, k)) for k, v in data.items()}
    try:
        return cls(**values)
    except (ValueError, ConfigError) as e:
        raise ConfigError(f"{path}: {e}" if path else str(e)) from None


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


_LEAVES = {
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
}


def check(tp, value, path: str):
    """`value` as the JSON form of type `tp` holds it, else ConfigError.

    A JSON int stays an int in a float field, so echoes repeat it as given.
    """
    leaf = _LEAVES.get(tp)  # checked first: most values are plain leaves
    if leaf is not None:
        what, ok = leaf
        if not ok(value):
            raise ConfigError(f"{path}: expected {what}, got {value!r}")
        return value
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(tp):
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
        return check(tp, value, path)
    if isinstance(tp, type) and issubclass(tp, ConfigNode):
        return tp.from_dict(value, path)
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        if args[-1:] == (...,) and isinstance(value, (list, tuple)):
            args = args[:1] * len(value)  # tuple[X, ...] holds any number of X
        if not isinstance(value, (list, tuple)) or len(value) != len(args):
            size = "any length" if ... in args else len(args)
            raise ConfigError(f"{path}: expected a list of {size}, got {value!r}")
        return tuple(check(a, v, f"{path}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    raise TypeError(f"{path}: no config rule for type {tp!r}")


def merge_overrides(data, changes: dict[str, object]):
    """`data` with the values at the dotted paths of `changes` set in place,
    missing parents made and None values skipped. A path through a value that
    is not an object is left out, so loading reports that value."""
    for dotted in [k for k, v in changes.items() if v is not None]:
        *parents, key = dotted.split(".")
        target = data
        for name in parents:
            target = target.setdefault(name, {}) if isinstance(target, dict) else None
        if isinstance(target, dict):
            target[key] = changes[dotted]
    return data
