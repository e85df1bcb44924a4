"""The input boundary: one rule for an integer from outside (an ``int``
that is not a ``bool``; ``2.0``, ``"2"`` and ``true`` are refused with a
one-line ValueError, never truncated), and ``read_json``, through which
both file loaders read.
"""

from __future__ import annotations

import json


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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            value = json.load(fh)
        except (ValueError, RecursionError) as exc:  # incl. UnicodeDecodeError
            raise ValueError(f"{kind} {path}: not valid JSON: {exc}") from None
    try:
        return parse(value)
    except ValueError as exc:
        raise ValueError(f"{kind} {path}: {exc}") from None
