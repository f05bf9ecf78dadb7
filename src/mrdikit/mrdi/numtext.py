"""Canonical decimal text for integers, rationals and prime-field residues.

Every number in an mrdi document is text: ``0`` or ``-?[1-9][0-9]*`` for an
integer, and ``n/d`` with ``d >= 2`` in lowest terms for a rational that is
not an integer.  ``str`` writes exactly these forms, so a whole list is read
at once and checked with one comparison against ``str`` of the values (of
their integer parts, for rationals).  That comparison is the one definition
of canonical integer text: a single integer is read as a list of one, and
only text past the interpreter's digit limit is checked apart, by
``_long_int_from_text``.  The one-at-a-time readers give the SchemaError
for text that fails it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import methodcaller

from ..algebra.rings import PrimeField
from ..errors import SchemaError, quote

# Python refuses int<->str conversions beyond sys.get_int_max_str_digits()
# (4300 by default).  Larger integers are converted piecewise instead: split
# by powers 10**(_CHUNK * 2**k), convert pieces of at most _CHUNK digits
# natively, and join.  The global limit is left alone.
_CHUNK = 1000


def _long_int_to_text(n: int) -> str:
    if n < 0:
        return "-" + _long_int_to_text(-n)
    powers = [10**_CHUNK]
    while powers[-1] ** 2 <= n:
        powers.append(powers[-1] ** 2)

    def digits(v: int, level: int) -> str:  # v < powers[level] ** 2
        if level < 0:
            return str(v)
        high, low = divmod(v, powers[level])
        if not high:
            return digits(low, level - 1)
        return digits(high, level - 1) + digits(low, level - 1).zfill(_CHUNK << level)

    return digits(n, len(powers) - 1)


def _long_int_from_text(text: str) -> int:
    """Canonical decimal text (see ``int_from_text``) past the digit limit;
    ValueError for any other text."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()) or digits[0] == "0":
        raise ValueError(text)
    powers: dict[int, int] = {}

    def value(digits: str) -> int:
        if len(digits) <= _CHUNK:
            return int(digits)
        width = _CHUNK
        while 2 * width < len(digits):
            width *= 2
        if width not in powers:
            powers[width] = 10**width
        return value(digits[:-width]) * powers[width] + value(digits[-width:])

    if text[0] == "-":
        return -value(text[1:])
    return value(text)


def int_to_text(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # beyond the interpreter's digit limit
        return _long_int_to_text(n)


def int_from_text(text, where) -> int:
    """The integer written as canonical decimal text: ASCII ``0`` or
    ``-?[1-9][0-9]*``, the only form ``int_to_text`` writes.  Other text that
    ``int`` would accept (`` 5``, ``+5``, ``05``, ``1_000``, non-ASCII digits)
    raises SchemaError, so every integer read re-serializes to the same bytes.
    It reads ``[text]`` with ``read_integers``, and text past the digit
    limit with ``_long_int_from_text``.
    """
    values = read_integers([text])
    if values is not None:
        return values[0]
    if isinstance(text, str):
        try:
            return _long_int_from_text(text)
        except ValueError:
            pass
    raise SchemaError(f"{where}: expected a decimal integer, got {quote(text)}")


def fraction_to_text(q: Fraction) -> str:
    if q.denominator == 1:
        return int_to_text(q.numerator)
    return f"{int_to_text(q.numerator)}/{int_to_text(q.denominator)}"


def fraction_from_text(text, where) -> Fraction:
    if not isinstance(text, str):
        raise SchemaError(f"{where}: expected a rational as text, got {quote(text)}")
    num, sep, den = text.partition("/")
    try:
        numerator = int_from_text(num, where)
        denominator = int_from_text(den, where) if sep else 1
    except SchemaError:
        raise SchemaError(f"{where}: malformed rational {quote(text)}") from None
    # Canonical text writes a denominator only in lowest terms and when it is at least 2.
    if sep and (denominator < 2 or gcd(numerator, denominator) != 1):
        raise SchemaError(f"{where}: malformed rational {quote(text)}")
    return Fraction(numerator, denominator)


def residue_from_text(desc: PrimeField, text, where) -> int:
    residue = int_from_text(text, where)
    if not 0 <= residue < desc.p:
        raise SchemaError(f"{where}: residue {quote(residue)} out of range for p={desc.p}")
    return residue


def read_integers(items: list):
    """``items`` read as integers, or None unless each is the canonical text
    of its value.  ``str`` writes exactly that text, so the check is one
    comparison of lists.  Past the digit limit ``int`` or ``str`` raises and
    the result is None too, for reading item by item."""
    try:
        values = list(map(int, items))
        if list(map(str, values)) == items:
            return values
    except (TypeError, ValueError, OverflowError):  # OverflowError: int(inf)
        pass
    return None


_split_fraction = methodcaller("partition", "/")
_new_object = object.__new__


def read_rationals(items: list):
    """``items`` read as rationals, or None unless each is the canonical text
    of its value: the numerators, and the denominators where a ``/`` is
    present, pass ``read_integers``'s check, and each such denominator is at
    least 2 and coprime to its numerator.  That leaves nothing for Fraction's
    constructor to check or reduce, so the values are built without it."""
    if not items:
        return []
    try:
        numerators, slashes, denominators = zip(*map(_split_fraction, items))
    except AttributeError:  # an item is not text
        return None
    tops = read_integers(list(numerators))
    if tops is None:
        return None
    if "/" not in slashes:
        return _coprime_fractions(tops, [1] * len(tops))
    # Where no "/" is present the denominator is 1, and only there.
    bottoms = read_integers([d if s else "1" for s, d in zip(slashes, denominators)])
    if (
        bottoms is None
        or min(bottoms) < 1
        or bottoms.count(1) != slashes.count("")
        or max(map(gcd, tops, bottoms)) != 1
    ):
        return None
    return _coprime_fractions(tops, bottoms)


def _coprime_fractions(numerators: list, denominators: list) -> list:
    """Fractions of numerators and positive denominators already in lowest
    terms, made as Python 3.12's ``Fraction._from_coprime_ints`` makes one."""
    values = []
    for numerator, denominator in zip(numerators, denominators):
        value = _new_object(Fraction)
        value._numerator = numerator
        value._denominator = denominator
        values.append(value)
    return values


def read_residues(desc: PrimeField, items: list):
    """As ``read_integers``, and None too unless every value lies in [0, p)."""
    values = read_integers(items)
    if values and not (min(values) >= 0 and max(values) < desc.p):
        return None
    return values
