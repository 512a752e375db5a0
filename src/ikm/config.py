"""Flat, line-oriented run configuration.

Grammar (one assignment per line)::

    # comment (also allowed after a value)
    section.key = value

Keys are dotted paths whose first segment names the section; values are bare
tokens (numbers, names, paths) with surrounding whitespace stripped.  There
are no nested structures, so a resolved configuration can be serialized
canonically on a single line (sorted ``key=value`` pairs joined by ``"; "``)
and embedded as a ``#`` comment in every trace for later re-analysis.
A command reads its keys through :class:`ConfigView`, which records each
one asked for, so ``ikm run`` and ``ikm sweep`` reject a key they did not
read, and the value each one read, so their output headers hold every
input of the run and rerun as a config.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set


def format_value(value) -> str:
    """A value as config text that parses back to it: a string or an int as
    it is, a list entry by entry, any other number with 17 significant
    digits."""
    if isinstance(value, list):
        return ",".join(map(format_value, value))
    return str(value) if isinstance(value, (str, int)) else "%.17g" % value


class ConfigError(ValueError):
    """Malformed configuration text or missing/invalid keys."""


def parse_config(text: str) -> Dict[str, str]:
    """Parse config text into a flat key -> raw-value mapping."""
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or "." not in key:
            raise ConfigError(f"line {lineno}: key must be 'section.name', got {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        out[key] = value
    return out


def load_config(path: str) -> Dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def serialize_config(cfg: Dict[str, str]) -> str:
    """Canonical one-line form: sorted ``key=value`` joined by '; '."""
    return "; ".join(f"{k}={cfg[k]}" for k in sorted(cfg))


def deserialize_config(line: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for item in line.split("; "):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"malformed embedded config item {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


class ConfigView:
    """Typed access over the flat mapping with error reporting by key.  Every
    key asked for, by :meth:`has` or a ``get_*`` method, is recorded in
    :attr:`asked`; every key a ``get_*`` method returned a value for, its
    default included, is recorded in :attr:`read` with that value as text
    that parses back to it (:meth:`record`)."""

    def __init__(self, data: Dict[str, str]):
        self.data = dict(data)
        self.asked: Set[str] = set()
        self.read: Dict[str, str] = {}

    def reject_unread(self) -> None:
        """Raise a :class:`ConfigError` naming, sorted, the keys never asked for."""
        unread = sorted(self.data.keys() - self.asked)
        if unread:
            raise ConfigError(f"config keys that this command does not read: {', '.join(unread)}")

    def record(self, key: str, value) -> None:
        """Record ``value`` as the one read for ``key``, by :func:`format_value`."""
        self.read[key] = format_value(value)

    def has(self, key: str) -> bool:
        self.asked.add(key)
        return key in self.data

    def get_str(self, key: str, default: Optional[str] = None) -> str:
        if not self.has(key) and default is None:
            raise ConfigError(f"missing required key {key!r}")
        value = self.data.get(key, default)
        self.record(key, value)
        return value

    def _parse(self, key: str, default, parse: Callable[[str], Any], what: str):
        value = default
        if default is None or self.has(key):
            raw = self.get_str(key)
            try:
                value = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"key {key!r}: not {what}: {raw!r}") from exc
        self.record(key, value)
        return value

    def get_float(self, key: str, default: Optional[float] = None) -> float:
        return self._parse(key, default, float, "a number")

    def get_int(self, key: str, default: Optional[int] = None) -> int:
        return self._parse(key, default, int, "an integer")

    def get_float_list(self, key: str) -> List[float]:
        return self._parse(key, None, lambda raw: [float(tok) for tok in raw.split(",")
                                                   if tok.strip()], "a number list")
