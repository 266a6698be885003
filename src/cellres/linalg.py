"""Exact rank computations over GF(2) and the rationals.

These are the two coefficient fields of the homology engine.  Both ranks
reduce sparse rows, one at a time, by the pivot rows found so far, keyed on
their lowest column: GF(2) rows are int bitmasks, rational rows stay integer
rows divided by the gcd of their entries.  There is no floating point and
no precision question anywhere.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple


class _FieldSpecFields(NamedTuple):
    characteristic: int = 2


class FieldSpec(_FieldSpecFields):
    """Coefficient field: characteristic 0 is the rationals, 2 is GF(2)."""

    __slots__ = ()

    def __new__(cls, characteristic: int = 2):
        if characteristic not in (0, 2):
            raise ValueError(
                f"characteristic must be 0 or 2, got {characteristic}")
        return super().__new__(cls, characteristic)

    @property
    def is_rational(self) -> bool:
        return self.characteristic == 0

    def describe(self) -> str:
        return "rational" if self.is_rational else "gf2"


GF2 = FieldSpec(2)
RATIONAL = FieldSpec(0)


def gf2_rank(rows) -> int:
    """Rank over GF(2) of a matrix whose rows are given as int bitmasks."""
    basis = {}
    for row in rows:
        while row:
            low = row & -row
            piv = basis.get(low)
            if piv is None:
                basis[low] = row
                break
            row ^= piv
    return len(basis)


def matrix_rank(rows, field: FieldSpec) -> int:
    """Rank over `field` of an integer matrix given as sparse rows.

    Each row is an iterable of (column, value) pairs, each column at most
    once.  Over GF(2) the odd entries are packed into bitmasks.  Over Q a
    row whose lowest column c already has a pivot row p becomes
    p[c] * row - row[c] * p, which clears c and stays integral, and is
    then divided by the gcd of its entries to keep them small.
    """
    if not field.is_rational:
        return gf2_rank(sum(1 << c for c, x in row if x % 2) for row in rows)
    basis = {}  # lowest column -> pivot row, as a dict column -> value
    for row in rows:
        row = {c: x for c, x in row if x}
        while row:
            low = min(row)
            piv = basis.get(low)
            if piv is None:
                basis[low] = row
                break
            a, b = piv[low], row[low]
            row = {c: a * x for c, x in row.items()}
            for c, y in piv.items():
                x = row.get(c, 0) - b * y
                if x:
                    row[c] = x
                else:
                    del row[c]
            g = gcd(*row.values())
            if g > 1:
                row = {c: x // g for c, x in row.items()}
    return len(basis)
