"""Flat key-value run configuration with one section per subcommand.

The format is deliberately trivial to parse from any language:

    # comment
    [section]
    key = value

Values are plain scalars or comma-separated lists; types are enforced at
lookup time with line-numbered diagnostics, and so is the range a lookup
declares, with a diagnostic naming the [section] and key.
"""

import math
from dataclasses import dataclass


class ConfigError(ValueError):
    """Malformed configuration; the message carries file/line context."""


@dataclass(frozen=True)
class ConfigEntry:
    value: str
    line: int


def parse_config_text(text: str, source: str = "<config>") -> dict:
    sections: dict = {}
    current = None
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"{source}:{number}: empty section name")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{number}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"{source}:{number}: key outside of any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{number}: empty key")
        if key in current:
            raise ConfigError(f"{source}:{number}: duplicate key {key!r}")
        current[key] = ConfigEntry(value, number)
    return sections


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise ConfigError(f"cannot read config file {path}: {error}") from error
    return parse_config_text(text, source=str(path))


class Section:
    """Typed accessor over one parsed section merged with defaults."""

    def __init__(self, name: str, entries: dict, defaults: dict, source: str):
        self.name = name
        self.source = source
        unknown = set(entries) - set(defaults)
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(
                f"{source}:{entries[key].line}: unknown key {key!r} in [{name}]")
        self._defaults = defaults
        self._entries = entries

    def _raw(self, key: str):
        if key in self._entries:
            entry = self._entries[key]
            return entry.value, f"{self.source}:{entry.line}"
        return self._defaults[key], f"[{self.name}] default"

    def _convert(self, key: str, converter, kind: str):
        raw, where = self._raw(key)
        try:
            return converter(raw)
        except (TypeError, ValueError) as error:
            raise ConfigError(f"{where}: field {key!r} needs {kind}, got {raw!r}") from error

    def _bound(self, key: str, value, minimum=None, maximum=None, positive=False):
        """``value`` if it keeps the range declared for ``key``, else a ConfigError."""
        if positive and not value > 0.0:
            bound = "positive"
        elif minimum is not None and value < minimum:
            bound = f"at least {minimum}"
        elif maximum is not None and value > maximum:
            bound = f"at most {maximum}"
        else:
            return value
        raise ConfigError(f"[{self.name}] {key} must be {bound}, got {value!r}")

    def get_float(self, key: str, positive: bool = False) -> float:
        value = self._convert(key, _finite_float, "a finite number")
        return self._bound(key, value, positive=positive)

    def get_int(self, key: str, minimum=None, maximum=None) -> int:
        value = self._convert(key, lambda v: int(v, 0), "an integer")
        return self._bound(key, value, minimum=minimum, maximum=maximum)

    def get_float_list(self, key: str, positive: bool = False) -> tuple:
        def parse(v):
            items = [part.strip() for part in v.split(",") if part.strip()]
            if not items:
                raise ValueError(v)
            return tuple(_finite_float(part) for part in items)
        values = self._convert(key, parse, "a comma-separated list of finite numbers")
        for value in values:
            self._bound(key, value, positive=positive)
        return values

    def get_str(self, key: str):
        raw, _ = self._raw(key)
        return raw

    def resolved(self) -> dict:
        out = {}
        for key in sorted(self._defaults):
            raw, _ = self._raw(key)
            out[key] = raw
        return out
