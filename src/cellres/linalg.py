"""Exact rank computations over GF(2) and the rationals.

These are the two coefficient fields of the homology engine.  Everything
here is integer arithmetic: GF(2) ranks use bitset rows, the rational rank
uses fraction-free (two-step) integer elimination, so there are no floating
point or precision questions anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 is the rationals, 2 is GF(2)."""

    characteristic: int = 2

    def __post_init__(self):
        if self.characteristic not in (0, 2):
            raise ValueError(
                f"characteristic must be 0 or 2, got {self.characteristic}")

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
    rank = 0
    for row in rows:
        while row:
            low = row & -row
            piv = basis.get(low)
            if piv is None:
                basis[low] = row
                rank += 1
                break
            row ^= piv
    return rank


def fraction_free_rank(rows) -> int:
    """Rank over the rationals by fraction-free integer elimination.

    The two-step (Bareiss) update keeps every intermediate entry an exact
    minor of the input, so the divisions below are exact integer divisions.
    """
    m = [list(row) for row in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    rank = 0
    prev = 1
    for c in range(nc):
        piv = None
        for i in range(rank, nr):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pivot = m[rank][c]
        for i in range(rank + 1, nr):
            fi = m[i][c]
            mi = m[i]
            mr = m[rank]
            for j in range(c + 1, nc):
                mi[j] = (pivot * mi[j] - fi * mr[j]) // prev
            mi[c] = 0
        prev = pivot
        rank += 1
        if rank == nr:
            break
    return rank


def matrix_rank(rows, field: FieldSpec) -> int:
    """Rank of an integer matrix (list of row lists) over `field`."""
    if not rows or not rows[0]:
        return 0
    if field.is_rational:
        return fraction_free_rank(rows)
    return gf2_rank(sum(1 << j for j, x in enumerate(row) if x % 2)
                    for row in rows)
