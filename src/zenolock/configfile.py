"""Flat key-value run configuration with one section per subcommand.

The format is deliberately trivial to parse from any language:

    # comment
    [section]
    key = value

Values are plain scalars or comma-separated lists.  Each key is declared
once, as a :class:`Key`: its default text, its kind and its static bounds.
A :class:`Section` converts a value from that declaration when it is looked
up, with a line-numbered diagnostic for text that does not parse and one
naming the [section] and key for a value out of bounds.
"""

import math
from typing import NamedTuple


class ConfigError(ValueError):
    """Malformed configuration; the message carries file/line context."""


class ConfigEntry(NamedTuple):
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


def _finite_floats(text: str) -> tuple:
    values = tuple(_finite_float(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError(text)
    return values


# kind -> (parser of the value text, what a diagnostic says the text needs)
_KINDS = {int: (lambda text: int(text, 0), "an integer"),
          float: (_finite_float, "a finite number"),
          tuple: (_finite_floats, "a comma-separated list of finite numbers"),
          str: (str, "a string")}


class Key(NamedTuple):
    """One config key: its default text, its kind and its static bounds.

    ``kind`` is int, float, tuple (a list of floats, each bounded) or str
    (one of ``choices`` if any are given).  ``minimum`` and ``maximum`` are
    inclusive; ``positive`` values lie above 0 and below ``below``; ``whole``
    values are integral.  With ``auto``, the text 'auto' is also taken, and
    looked up as None.
    """

    default: str
    kind: type = float
    minimum: float = -math.inf
    maximum: float = math.inf
    positive: bool = False
    below: float = math.inf
    whole: bool = False
    choices: tuple = ()
    auto: bool = False

    def breach(self, value):
        """What ``value`` must be but is not, as said after 'must be', or None."""
        if self.kind is str:
            unlisted = self.choices and value not in self.choices
            return " or ".join(map(repr, self.choices)) if unlisted else None
        if self.positive and not 0.0 < value < self.below:
            if self.below == math.inf:
                return "positive"
            between = f"lie strictly between 0 and {self.below:g}"
            return f"'auto' or {between}" if self.auto else between
        if self.whole and not (value >= self.minimum and value.is_integer()):
            return f"whole numbers of at least {self.minimum}"
        if value < self.minimum:
            return f"at least {self.minimum}"
        if value > self.maximum:
            return f"at most {self.maximum}"
        return None


def load_config(path) -> tuple:
    """The text of a config file, read once, and its parsed sections."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise ConfigError(f"cannot read config file {path}: {error}") from error
    except UnicodeDecodeError as error:
        raise ConfigError(f"config file {path} is not valid UTF-8: {error}") from error
    return text, parse_config_text(text, source=str(path))


class Section:
    """Typed lookup over one parsed section, by the keys ``schema`` declares."""

    def __init__(self, name: str, entries: dict, schema: dict, source: str):
        self.name = name
        self.source = source
        unknown = set(entries) - set(schema)
        if unknown:
            key = sorted(unknown)[0]
            raise ConfigError(
                f"{source}:{entries[key].line}: unknown key {key!r} in [{name}]")
        self._schema = schema
        self._entries = entries

    def _raw(self, key: str):
        if key in self._entries:
            entry = self._entries[key]
            return entry.value, f"{self.source}:{entry.line}"
        return self._schema[key].default, f"[{self.name}] default"

    def __getitem__(self, key: str):
        """The value of ``key``, converted and bounds-checked by its declaration."""
        declared = self._schema[key]
        raw, where = self._raw(key)
        if declared.auto and raw == "auto":
            return None
        parse, needs = _KINDS[declared.kind]
        try:
            value = parse(raw)
        except (TypeError, ValueError) as error:
            raise ConfigError(f"{where}: field {key!r} needs {needs}, got {raw!r}") from error
        for item in value if declared.kind is tuple else (value,):
            breach = declared.breach(item)
            if breach is not None:
                raise ConfigError(f"[{self.name}] {key} must be {breach}, got {item!r}")
        return value

    def resolved(self) -> dict:
        return {key: self._raw(key)[0] for key in sorted(self._schema)}
