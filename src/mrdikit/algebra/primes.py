"""Primality testing, prime streams for modular runs, and balanced CRT lifting."""

from __future__ import annotations

import math
import threading
from typing import Iterable, Iterator

from ..errors import ValidationError, quote

# The first 13 primes as Miller-Rabin witnesses decide primality for every
# n below psi_13 = 3317044064679887385961981, the least strong pseudoprime to
# all of them (Sorenson & Webster, 2015); the first 12 stop at psi_12 ~ 3.19e23.
# That covers every modulus this package generates (machine-width primes)
# with room to spare for user-supplied ones.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < ``_MR_BOUND``; larger n raise
    ValidationError, since the witness set no longer decides them."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValidationError(
            f"primality of {quote(n)} is not decided: moduli must be below {_MR_BOUND}"
        )
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The primes found so far below each start value, largest first.  Every
# stream serves these before it tests further numbers, so later solves do not
# run Miller-Rabin over the same odd numbers again.
_FOUND: dict[int, list[int]] = {}
_FOUND_LOCK = threading.Lock()


def _prime_below(n: int) -> int | None:
    """The largest prime below ``n``, or None."""
    m = n - 1
    if m > 2 and m % 2 == 0:
        m -= 1
    while m > 2 and not is_prime(m):
        m -= 2
    return m if m >= 2 else None


def descending_primes(start_below: int = 2**31) -> Iterator[int]:
    """Primes strictly below ``start_below``, largest first."""
    found = _FOUND.setdefault(start_below, [])
    i = 0
    while True:
        if i == len(found):
            with _FOUND_LOCK:
                if i == len(found):
                    p = _prime_below(found[-1] if found else start_below)
                    if p is None:
                        return
                    found.append(p)
        yield found[i]
        i += 1


def crt_combine_balanced(residues: Iterable[int], moduli: Iterable[int]) -> int:
    """Solve r = residues[i] mod moduli[i] with the balanced representative.

    The result is the unique r with -M/2 < r <= M/2 for M the product of the
    moduli, so negative integers reconstruct from their nonnegative residues.
    Moduli must be pairwise coprime.

    Garner's mixed-radix fold: each modulus m extends the solution modulo the
    running product P to one modulo P*m, so one gcd(P, m) per modulus checks
    coprimality.  With two moduli this is one incremental lift step: the
    previous (balanced) lift modulo P and a new residue modulo m.
    """
    residues = list(residues)
    moduli = list(moduli)
    if len(residues) != len(moduli):
        raise ValidationError("residues and moduli must have equal length")
    if not moduli:
        raise ValidationError("need at least one modulus")
    for m in moduli:
        if m < 2:
            raise ValidationError(f"modulus must be >= 2, got {m}")
    product = 1
    acc = 0  # the solution so far, in [0, product)
    for r, m in zip(residues, moduli):
        if math.gcd(product, m) != 1:
            raise ValidationError(
                f"modulus {m} is not coprime to the product of the moduli before it"
            )
        acc += product * ((r - acc) * pow(product, -1, m) % m)
        product *= m
    if 2 * acc > product:
        acc -= product
    return acc
