"""The input and output boundary: one rule for an integer from outside
(exactly an ``int``; ``2.0``, ``"2"``, ``true`` and an ``IntEnum`` member
are refused with a one-line ValueError, never truncated), which
``json_int`` and ``json_vector`` apply, ``linalg.IntMatrix`` applies to its
entries, and ``json_int_at_least`` pairs with a lower bound for the genus
and dimension arguments;
``read_json``, through which both file loaders read; and
``Record``, the immutable base of the value classes whose constructors
check what they are given, with the one trusted builder for values the
package forms from parts it already holds valid (``Record._trusted``) and
the one rule for how a value becomes JSON (``Record.to_json_dict``).
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    """Immutable value: the base of every value class in the package.

    A subclass names its compared fields, in order, in ``_fields``.  It has
    a public ``__init__`` only where a caller outside the package builds
    the value or the constructor checks something; that ``__init__``
    stores the fields, and any derived attribute, in ``__dict__``.
    ``_trusted`` is the one other way to build a value: it stores the
    given fields and derived attributes and checks nothing, for package
    code that already holds them valid.  A subclass without its own
    ``__init__`` has no public constructor, and calling it raises
    TypeError: ``SNFResult``, ``SphereData``, ``ExtensionDescriptor``,
    ``HautReport`` and ``MCGReport`` are built only by ``linalg.snf``,
    ``spheres.theta_data`` and the ``mcg`` answers, through ``_trusted``.
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

    def __init__(self, *args, **kwargs):
        raise TypeError(f"{type(self).__qualname__} has no public constructor")

    @classmethod
    def _trusted(cls, **attributes):
        """A value holding ``attributes``, fields and derived ones, as
        given: the caller vouches for them, and nothing is checked.  It is
        how package code builds every value it forms from valid parts, so
        a public constructor is left only for values built from outside
        or constructors that check."""
        new = object.__new__(cls)
        new.__dict__.update(attributes)
        return new

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


# the integer rule: a value is an integer when its type is in this set, so
# a bool, an IntEnum member or any other subclass of int is not one
_INT = frozenset((int,))


def _all_int(xs) -> bool:
    """Whether every entry of xs is an integer by the rule; the test of
    the whole of xs runs in C."""
    return _INT.issuperset(map(type, xs))


def json_int(x, what: str) -> int:
    if type(x) not in _INT:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def json_int_at_least(x, least: int, what: str, message: str | None = None,
                      error: type[ValueError] = ValueError) -> int:
    """x, if it is an integer by the ``json_int`` rule and x >= least.  A
    non-integer raises ValueError; an integer below ``least`` raises
    ``error`` with ``message``, by default "<what> must be >= <least>"."""
    if json_int(x, what) < least:
        raise error(message or f"{what} must be >= {least}")
    return x


def json_vector(x, n: int | None, what: str) -> tuple[int, ...]:
    """x as a tuple of integers, n of them unless n is None."""
    if not isinstance(x, (list, tuple)) or (n is not None and len(x) != n) \
            or not _all_int(x):
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
    ``<kind> <path>:``.  A file that cannot be opened raises OSError.  An
    integer path (a bool included) is refused with a ValueError before
    ``open``, which would read and then close that file descriptor.
    """
    import json  # here, so that a process that reads no file skips it

    if isinstance(path, int):
        raise ValueError(f"{kind} path must name a file, got {path!r}")

    with open(path, "r", encoding="utf-8") as fh:
        try:
            value = json.load(fh)
        except (ValueError, RecursionError) as exc:  # incl. UnicodeDecodeError
            raise ValueError(f"{kind} {path}: not valid JSON: {exc}") from None
    try:
        return parse(value)
    except ValueError as exc:
        raise ValueError(f"{kind} {path}: {exc}") from None
