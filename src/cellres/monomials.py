"""Monomial labellings, vertex families, and the refinement order.

A labelling assigns one monomial to each vertex of a complex; the labels
must form a minimal generating set (none divides another) and every
variable must actually occur.  A square-free labelling with pairwise
distinct variable supports is the same data as a family of distinct
nonempty vertex subsets: variable p corresponds to the set of vertices
whose label it divides.

The refinement order on families: F is finer than G when every member of
G is a disjoint union of members of F.  Reduction removes members that
are disjoint unions of other members; on reduced families refinement is a
partial order.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class LabellingError(ValueError):
    """Invalid monomial labelling input."""


class FamilyError(ValueError):
    """Invalid vertex family input."""


class GuardExceeded(RuntimeError):
    """Input refused before an exhaustive scan: more candidate sets than
    the search allows; more than UNION_LIMIT unions to close, exact-cover
    remainders to hold, candidate forests to try or resolving trees to
    list; a family document on more than UNION_LIMIT vertices, whose
    masks would not fit; or a polarization past its variable or exponent
    limit."""


class _MonomialFields(NamedTuple):
    exponents: tuple


class Monomial(_MonomialFields):
    __slots__ = ()

    def __new__(cls, exponents: tuple):
        if any(e < 0 for e in exponents):
            raise LabellingError("negative exponent")
        return super().__new__(cls, exponents)


def monomial(*exponents) -> Monomial:
    return Monomial(tuple(exponents))


class _LabellingFields(NamedTuple):
    n_variables: int
    labels: tuple  # Monomial entries, one per vertex


class MonomialLabelling(_LabellingFields):
    """Vertex labels m_0, ..., m_(n-1) in a fixed polynomial ring.

    Invariants enforced on construction: every label has n_variables
    exponents, no label divides another (in particular no duplicates), and
    every variable occurs in at least one label.  The level masks of the
    labels (see _level_masks) are kept as the attribute _levels, outside
    equality, hash and repr; every lcm of labels, support of a variable and
    top exponent is read off them.
    """

    def __new__(cls, n_variables: int, labels: tuple):
        for m in labels:
            if len(m.exponents) != n_variables:
                raise LabellingError(
                    f"label {m.exponents} does not have {n_variables} exponents")
        exps = [m.exponents for m in labels]
        levels = _level_masks(exps)
        at_least = [dict(per_var) for per_var in levels]
        everyone = (1 << len(exps)) - 1
        for i, e in enumerate(exps):
            # label i divides the labels at or above each of its levels
            above = everyone & ~(1 << i)
            for p, t in enumerate(e):
                if t:
                    above &= at_least[p][t]
            if above:
                j = (above & -above).bit_length() - 1
                raise LabellingError(
                    f"label at vertex {i} divides label at vertex {j}")
        missing = n_variables - sum(1 for per_var in levels if per_var)
        if missing > 0:
            p = next((p for p, per_var in enumerate(levels) if not per_var),
                     len(levels))
            more = (f", nor do {missing - 1} more variables" if missing > 1
                    else "")
            raise LabellingError(f"variable {p} occurs in no label{more}")
        self = super().__new__(cls, n_variables, labels)
        self._levels = levels
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: validate, and keep the level masks
        return cls(*iterable)

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def is_squarefree(self) -> bool:
        return all(per_var[0][0] == 1 for per_var in self._levels)


def labelling(n_variables: int, rows) -> MonomialLabelling:
    return MonomialLabelling(n_variables, tuple(Monomial(tuple(r)) for r in rows))


def member_key(s) -> tuple:
    """Canonical order of family members: by size, then by sorted content."""
    return (len(s), tuple(sorted(s)))


def _mask_key(m: int) -> tuple:
    """member_key(set_of(m)), read off the mask."""
    return (m.bit_count(), tuple(iter_bits(m)))


class _FamilyFields(NamedTuple):
    n: int
    sets: tuple  # frozenset entries


class VertexFamily(_FamilyFields):
    """Ordered list of distinct nonempty subsets of range(n)."""

    __slots__ = ()

    def __new__(cls, n: int, sets: tuple):
        seen = set()
        for s in sets:
            if not s:
                raise FamilyError("empty member set")
            if not all(isinstance(v, int) and 0 <= v < n for v in s):
                raise FamilyError(f"member {sorted(s)} out of range for n={n}")
            if s in seen:
                raise FamilyError(f"member {sorted(s)} repeated")
            seen.add(s)
        return super().__new__(cls, n, sets)

    def member_masks(self) -> list:
        return [mask_of(s) for s in self.sets]

    def same_family(self, other: "VertexFamily") -> bool:
        return self.n == other.n and set(self.sets) == set(other.sets)


def family(n: int, sets) -> VertexFamily:
    return VertexFamily(n, tuple(frozenset(s) for s in sets))


def mask_of(vertices) -> int:
    """Bitmask with bit v set for every vertex v."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int):
    """Indices of the set bits of a bitmask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def set_of(mask: int) -> frozenset:
    """Vertex set of a bitmask; inverse of mask_of."""
    return frozenset(iter_bits(mask))


def family_of(L: MonomialLabelling) -> VertexFamily:
    """Vertex family of a square-free labelling.

    Variable p maps to its support, the set of vertices whose label it
    divides (never empty: every variable occurs).  Raises if the labelling
    is not square-free or if two variables cut out the same vertex set
    (such a labelling corresponds to no family).
    """
    if not L.is_squarefree():
        raise LabellingError("labelling is not square-free")
    seen = {}
    for p, support in enumerate(_supports(L)):
        if support in seen:
            raise FamilyError(
                f"variables {seen[support]} and {p} divide exactly the same vertex labels")
        seen[support] = p
    return VertexFamily(L.n_vertices, tuple(map(set_of, seen)))


def labelling_of(F: VertexFamily) -> MonomialLabelling:
    """Square-free labelling with one variable per member of the family."""
    for v in range(F.n):
        if not any(v in s for s in F.sets):
            raise FamilyError(f"vertex {v} lies in no member of the family")
    rows = []
    for v in range(F.n):
        rows.append(tuple(1 if v in s else 0 for s in F.sets))
    return labelling(len(F.sets), rows)


def polarize(L: MonomialLabelling) -> MonomialLabelling:
    """Square-free labelling obtained by splitting each variable into copies.

    Variable p becomes max-exponent-many variables; an exponent k uses its
    first k copies.  New variables are ordered by (old variable, copy), so a
    square-free input is returned unchanged.  Divisibility between labels is
    preserved in both directions.  Refuses (GuardExceeded) before building
    any row when that takes more than UNION_LIMIT variables, or more than
    2 * UNION_LIMIT exponents over all rows: the output and its pairwise
    divisibility check grow as labels times variables.
    """
    maxes = _lcm_exponents(L, (1 << L.n_vertices) - 1)
    total = sum(maxes)
    if total > UNION_LIMIT:
        raise GuardExceeded(
            f"polarization needs {total} variables, more than {UNION_LIMIT}")
    if len(L.labels) * total > 2 * UNION_LIMIT:
        raise GuardExceeded(
            f"polarization needs {len(L.labels)} rows of {total} exponents, "
            f"more than {2 * UNION_LIMIT} in all")
    rows = []
    for m in L.labels:
        row = []
        for p, top in enumerate(maxes):
            e = m.exponents[p]
            row.extend([1] * e + [0] * (top - e))
        rows.append(tuple(row))
    return labelling(total, rows)


def _exact_cover_exists(target: int, parts) -> bool:
    """Can `target` be written as a disjoint union of some of `parts`?

    Exactly one chosen part holds the lowest bit left to cover, and a part
    inside the remainder that holds that bit has it as its own lowest bit;
    so the usable parts are bucketed by lowest bit once, and each remainder
    scans one bucket.  Raises GuardExceeded once more than UNION_LIMIT
    remainders are held.
    """
    by_low = {}
    for p in parts:
        if p and p & ~target == 0:
            by_low.setdefault(p & -p, []).append(p)
    stack, seen = [target], {target}
    while stack:
        rest = stack.pop()
        if not rest:
            return True
        if len(seen) > UNION_LIMIT:
            raise GuardExceeded(
                f"more than {UNION_LIMIT} remainders in an exact cover; "
                "the input is too large to scan exhaustively")
        for p in by_low.get(rest & -rest, ()):
            if p & ~rest == 0 and rest ^ p not in seen:
                seen.add(rest ^ p)
                stack.append(rest ^ p)
    return False


def _decomposable(masks):
    """Yield, in order, the members of `masks` that are disjoint unions of
    other members, by exhaustive exact cover."""
    for i, m in enumerate(masks):
        if _exact_cover_exists(m, masks[:i] + masks[i + 1:]):
            yield m


def reduce_family(F: VertexFamily) -> VertexFamily:
    """Drop members that are disjoint unions of two or more other members.

    The test is exact (see `_decomposable`); reduction is idempotent.
    """
    masks = F.member_masks()
    gone = set(_decomposable(masks))
    return VertexFamily(F.n, tuple(
        s for s, m in zip(F.sets, masks) if m not in gone))


def refines(F: VertexFamily, G: VertexFamily) -> bool:
    """Every member of G is a disjoint union of members of F: for families
    of valid labellings of one complex, a morphism from F's labelling to
    G's exists."""
    if F.n != G.n:
        raise FamilyError("families live on different vertex sets")
    fmasks = F.member_masks()
    return all(_exact_cover_exists(m, fmasks) for m in G.member_masks())


class Refinement(enum.Enum):
    """Relation of a first family to a second; values are the wire names."""

    FINER = "finer"
    COARSER = "coarser"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def refinement_compare(F: VertexFamily, G: VertexFamily) -> Refinement:
    """Compare two families in the refinement order.

    EQUAL is reported when each refines the other; for reduced families
    that happens only when they are equal as set families.
    """
    fg = refines(F, G)
    gf = refines(G, F)
    if fg and gf:
        return Refinement.EQUAL
    if fg:
        return Refinement.FINER
    if gf:
        return Refinement.COARSER
    return Refinement.INCOMPARABLE


# the most unions `subfamily_unions` builds before it refuses the input;
# 2^16 still closes 16 singleton vertex sets
UNION_LIMIT = 1 << 16


def subfamily_unions(masks) -> set:
    """All unions of subfamilies, as bitmasks; includes 0 (empty union).

    Raises GuardExceeded as soon as more than UNION_LIMIT unions are held.
    The set only grows, so it never holds more than 2 * UNION_LIMIT.
    """
    unions = {0}
    for m in masks:
        if m in unions:
            continue  # already a union, so it adds nothing
        unions |= {u | m for u in unions}
        if len(unions) > UNION_LIMIT:
            raise GuardExceeded(
                f"more than {UNION_LIMIT} unions of vertex sets; "
                "the input is too large to scan exhaustively")
    return unions


def _level_masks(exps) -> list:
    """Per variable p, highest first: (t, A(p, t)) for each exponent t > 0
    that occurs, where A(p, t) is the mask of the labels whose exponent of
    p is at least t.  A variable that occurs in no label gets no levels;
    with no labels at all the list is empty."""
    levels = []
    for column in zip(*exps):
        exactly = {}
        for v, e in enumerate(column):
            if e:
                exactly[e] = exactly.get(e, 0) | 1 << v
        per_var, acc = [], 0
        for t in sorted(exactly, reverse=True):
            acc |= exactly[t]
            per_var.append((t, acc))
        levels.append(per_var)
    return levels


def _supports(L: MonomialLabelling) -> list:
    """Per variable, the mask of the labels it divides: its lowest level."""
    return [per_var[-1][1] for per_var in L._levels]


def _lcm_exponents(L: MonomialLabelling, mask: int) -> tuple:
    """Exponent vector of the lcm of the labels in a vertex mask: per
    variable, the highest level the mask meets, or 0."""
    b = []
    for per_var in L._levels:
        for t, a in per_var:
            if a & mask:
                b.append(t)
                break
        else:
            b.append(0)
    return tuple(b)


def lcm_lattice(L: MonomialLabelling) -> dict:
    """Smallest set of exponent vectors containing the labels and closed
    under componentwise max, found as its supports, the closed vertex sets.
    Returns {exponent tuple: support}, the support being the mask of the
    vertices whose labels divide the point; its len() is the point count.

    With A(p, t) the vertices whose exponent of p is at least t, the support
    of b is the complement of the union of the A(p, b_p + 1).  Conversely a
    nonempty complement M of a union of A's is {v : e(v) <= c} for some c
    (the levels of one variable nest), and b = lcm(M) <= c, so M is b's
    support.  Only the levels t that occur as exponents are closed: any
    other A(p, t) equals the next occurring level up, or is empty.  So the
    work does not grow with the exponents, and b_p is the largest level of
    p that M meets.
    """
    full = (1 << L.n_vertices) - 1
    supports = {}
    for u in subfamily_unions(a for per_var in L._levels for _, a in per_var):
        support = full & ~u
        if support:
            supports[_lcm_exponents(L, support)] = support
    return supports
