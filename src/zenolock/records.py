"""Base of the package's immutable records that validate their fields.

A record names its fields in ``__slots__``, in positional order.  Its
``__init__`` takes them, validates them and sets each one once through
:meth:`Record._set`.  No code is generated when such a class is defined,
so a record costs next to nothing to build at import.
"""

import numpy as np


class Record:
    """Immutable fields, equality and hash by class and field values, a repr
    naming both, and :meth:`replace`, which validates as ``__init__`` does.

    An array field compares and hashes by its dtype, shape and bytes, and
    prints every entry."""

    __slots__ = ()

    def _set(self, values: dict) -> None:
        """Set every field from ``values``, the ``locals()`` of ``__init__``."""
        for name in self.__slots__:
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _key(self) -> tuple:
        """The field values, an array as its dtype, shape and bytes."""
        return tuple((value.dtype.str, value.shape, value.tobytes())
                     if isinstance(value, np.ndarray) else value for value in self._values())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, *self._key()))

    def __repr__(self):
        fields = ", ".join(
            f"{name}=array({value.tolist()!r})" if isinstance(value, np.ndarray)
            else f"{name}={value!r}" for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def replace(self, **changes):
        """A new record with this one's fields but ``changes``."""
        return type(self)(**{**dict(zip(self.__slots__, self._values())), **changes})
