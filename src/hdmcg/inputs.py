"""The input and output boundary: one rule for an integer from outside (an
``int`` that is not a ``bool``; ``2.0``, ``"2"`` and ``true`` are refused
with a one-line ValueError, never truncated), ``read_json``, through which
both file loaders read, and ``Record``, the immutable base of the value
classes whose constructors check what they are given, with the one rule
for how a value becomes JSON (``Record.to_json_dict``).
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Immutable value: the base of every value class in the package.

    A subclass names its compared fields, in order, in ``_fields``, and its
    ``__init__`` stores them, and any derived attribute, in ``__dict__``.
    Two records are equal when they have the same class and equal fields;
    the hash is that of the field tuple; the repr is ``Name(field=value,
    ...)`` over the fields; assigning or deleting an attribute raises
    AttributeError.  It imports only ``operator`` and generates no code per
    class, so a cold CLI process pays next to nothing for it.

    ``to_json_dict`` maps each field name to its value in JSON form: a
    nested record becomes its own ``to_json_dict()``, a tuple or list a
    list, a dict is converted value by value, an ``IntMatrix`` becomes its
    row lists, and anything else (int, str, bool, None) is kept.
    ``SphereData`` and ``SurfaceClass`` override it, as their JSON differs
    from their fields, and ``MCGReport`` renames and drops some of the
    generic keys.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # attrgetter of one name returns the value, not a 1-tuple
        cls._values = get if len(cls._fields) > 1 \
            else staticmethod(lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value
                          in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({shown})"

    def to_json_dict(self) -> dict:
        return {name: _to_json(value) for name, value
                in zip(self._fields, self._values(self))}

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _to_json(value):
    if isinstance(value, Record):
        return value.to_json_dict()
    if hasattr(value, "to_lists"):  # an IntMatrix, as its rows
        return value.to_lists()
    if isinstance(value, (tuple, list)):
        return [_to_json(x) for x in value]
    if isinstance(value, dict):
        return {k: _to_json(x) for k, x in value.items()}
    return value


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def json_int(x, what: str) -> int:
    if not _is_int(x):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def json_vector(x, n: int | None, what: str) -> tuple[int, ...]:
    """x as a tuple of integers, n of them unless n is None."""
    if not isinstance(x, (list, tuple)) or (n is not None and len(x) != n) \
            or not all(map(_is_int, x)):
        count = "" if n is None else f"{n} "
        raise ValueError(f"{what} must hold {count}integers, got {x!r}")
    return tuple(x)


def json_pairs(x, what: str, item: str) -> list:
    if not isinstance(x, list) or not all(isinstance(p, list) and len(p) == 2
                                          for p in x):
        raise ValueError(f"{what} must be a list of [{item}] pairs")
    return x


def read_json(path: str, kind: str, parse):
    """``parse`` of the JSON value in the UTF-8 file at ``path``.

    Invalid JSON, bytes that are not UTF-8, nesting too deep to decode and
    every ValueError from ``parse`` become one line that starts with
    ``<kind> <path>:``.  A file that cannot be opened raises OSError.
    """
    import json  # here, so that a process that reads no file skips it

    with open(path, "r", encoding="utf-8") as fh:
        try:
            value = json.load(fh)
        except (ValueError, RecursionError) as exc:  # incl. UnicodeDecodeError
            raise ValueError(f"{kind} {path}: not valid JSON: {exc}") from None
    try:
        return parse(value)
    except ValueError as exc:
        raise ValueError(f"{kind} {path}: {exc}") from None
