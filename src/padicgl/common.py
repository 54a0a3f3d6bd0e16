"""What both halves of padicgl share, importing neither: the immutable
base of the value classes, a primality test, the one square-and-multiply
power, Python's default int-to-str limit, and the JSON payload readers.

The Langlands half (``qexact`` ... ``jsonio``) and the p-adic half
(``wittring``, ``cyclicalg``) meet only here, so a CLI subcommand imports
one half and this module.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from operator import attrgetter
from typing import List, Tuple


class Value:
    """Base of the immutable value classes (atoms, scalars, contexts, ...).

    A subclass lists its attributes in ``__slots__`` and sets them in its
    own ``__init__`` with :data:`setfield`; after that, assigning or
    deleting any attribute raises AttributeError.  Its fields are the slots
    whose names do not start with "_", in slot order: ==, hash and repr
    read those alone, so a slot such as ``_dual`` or a cache stays out.
    This is what a frozen dataclass provides, without importing
    ``dataclasses`` (and with it ``inspect``) or generating methods at
    import, which every CLI call would pay."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._key = attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__qualname__}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


# the one way a Value's __init__ sets its slots: setfield(self, "name", value)
setfield = object.__setattr__


# Python converts an integer of at most this many digits to decimal by
# default; the Langlands power cap and the --precision cap keep answers within it
INT_DIGITS_LIMIT = 4300

# Miller-Rabin to the first 13 prime bases is exact below this bound (Sorenson
# and Webster, Math. Comp. 86, 2017); at or above it is_prime refuses.
PRIME_TEST_BOUND = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < PRIME_TEST_BOUND."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(f"primality is decided only below {PRIME_TEST_BOUND}")
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:  # n passes a when a^d = 1 or a^(d 2^j) = -1, j < s
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def power(x, e: int, mul, one):
    """x^e for e >= 0 by left-to-right square-and-multiply (Knuth, TAOCP
    vol. 2, 4.6.3): bit_length(e) - 1 squarings and popcount(e) - 1 products
    by x.  one is returned for e = 0 and is never a factor."""
    if e < 0:
        raise ValueError(f"power needs an exponent >= 0, got {e}")
    out = x if e else one
    for bit in bin(e)[3:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, x)
    return out


class PayloadError(ValueError):
    """Malformed payload document (schema level, exit code 2).  Raised by
    the readers below with the JSON path of the bad field first, as in
    ``segments[1].m: expected an integer, got an object``."""


def read_json(text: str, where: str):
    """json.loads(text).  An integer longer than Python's int-to-str digit
    limit, or arrays and objects nested deeper than the recursion limit, is
    a PayloadError naming where, not Python's plain ValueError or
    RecursionError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise PayloadError(f"{where}: an integer has more than {sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise PayloadError(f"{where}: nested deeper than the recursion limit of {sys.getrecursionlimit()}") from None


def read_payload(source: str):
    """The JSON document in the file at source, or on stdin for "-"."""
    if source == "-":
        text = sys.stdin.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    if not text.strip():
        raise PayloadError("empty payload")
    return read_json(text, "payload")


# -- payload readers: each names the JSON path it reads ("" is the payload)

_REQUIRED = object()


def _kind(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "a boolean"
    if isinstance(v, (int, float)):
        return "a number"
    if isinstance(v, str):
        return "a string"
    return "an array" if isinstance(v, list) else "an object"


def _bad(path: str, what: str, v) -> PayloadError:
    return PayloadError(f"{path or 'payload'}: expected {what}, got {_kind(v)}")


def child_path(path: str, key) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    return f"{path}.{key}" if path else key


def record(v, path: str) -> dict:
    """The JSON object at path."""
    if not isinstance(v, dict):
        raise _bad(path, "an object", v)
    return v


def field(doc, key: str, path: str = "", default=_REQUIRED):
    """doc[key] of the JSON object at path; default when the key is absent."""
    if key in record(doc, path):
        return doc[key]
    if default is _REQUIRED:
        raise PayloadError(f"{child_path(path, key)}: missing")
    return default


def array(v, path: str, item=None) -> list:
    """The JSON array at path, each entry read by item(entry, entry_path)."""
    if not isinstance(v, list):
        raise _bad(path, "an array", v)
    return v if item is None else [item(e, child_path(path, i)) for i, e in enumerate(v)]


def integer(v, path: str) -> int:
    """int(v) for an integer, an integral number or a string that reads as
    one; a boolean or a non-integral number is refused, not truncated."""
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise _bad(path, "an integer", v)
    try:
        return int(v)
    except (TypeError, ValueError, OverflowError):
        raise _bad(path, "an integer", v) from None


def string(v, path: str) -> str:
    if not isinstance(v, str):
        raise _bad(path, "a string", v)
    return v


def digits(v, path: str) -> list:
    """A JSON array of integers: the coefficients of a carrier element."""
    for i, c in enumerate(array(v, path)):
        if not isinstance(c, int) or isinstance(c, bool):
            raise _bad(child_path(path, i), "an integer", c)
    return v


def pair(x, path: str) -> Tuple[int, int]:
    if not (isinstance(x, (list, tuple)) and len(x) == 2):
        raise _bad(path, "a [num, den] pair", x)
    return integer(x[0], child_path(path, 0)), integer(x[1], child_path(path, 1))


def fraction_to_json(x: Fraction) -> List[int]:
    return [x.numerator, x.denominator]


def fraction_from_json(doc, path: str = "") -> Fraction:
    num, den = pair(doc, path)
    if den == 0:
        raise PayloadError(f"{path or 'payload'}: zero denominator")
    return Fraction(num, den)
