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
from dataclasses import dataclass


class LabellingError(ValueError):
    """Invalid monomial labelling input."""


class FamilyError(ValueError):
    """Invalid vertex family input."""


class GuardExceeded(RuntimeError):
    """Input refused before an exhaustive scan: more candidate sets than
    the search allows, more unions than UNION_LIMIT to close, or a
    polarization past its variable or exponent limit."""


@dataclass(frozen=True)
class Monomial:
    exponents: tuple

    def __post_init__(self):
        if any(e < 0 for e in self.exponents):
            raise LabellingError("negative exponent")

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def divides(self, other: "Monomial") -> bool:
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def join(self, other: "Monomial") -> "Monomial":
        return Monomial(tuple(max(a, b) for a, b in zip(self.exponents, other.exponents)))

    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def support(self) -> frozenset:
        return frozenset(p for p, e in enumerate(self.exponents) if e)


def monomial(*exponents) -> Monomial:
    return Monomial(tuple(exponents))


@dataclass(frozen=True)
class MonomialLabelling:
    """Vertex labels m_0, ..., m_(n-1) in a fixed polynomial ring.

    Invariants enforced on construction: every label has n_variables
    exponents, no label divides another (in particular no duplicates), and
    every variable occurs in at least one label.
    """

    n_variables: int
    labels: tuple  # Monomial entries, one per vertex

    def __post_init__(self):
        for m in self.labels:
            if len(m.exponents) != self.n_variables:
                raise LabellingError(
                    f"label {m.exponents} does not have {self.n_variables} exponents")
        exps = [m.exponents for m in self.labels]
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
        missing = self.n_variables - sum(1 for per_var in levels if per_var)
        if missing > 0:
            p = next((p for p, per_var in enumerate(levels) if not per_var),
                     len(levels))
            more = (f", nor do {missing - 1} more variables" if missing > 1
                    else "")
            raise LabellingError(f"variable {p} occurs in no label{more}")

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def is_squarefree(self) -> bool:
        return all(m.is_squarefree() for m in self.labels)


def labelling(n_variables: int, rows) -> MonomialLabelling:
    return MonomialLabelling(n_variables, tuple(Monomial(tuple(r)) for r in rows))


def member_key(s) -> tuple:
    """Canonical order of family members: by size, then by sorted content."""
    return (len(s), tuple(sorted(s)))


@dataclass(frozen=True)
class VertexFamily:
    """Ordered list of distinct nonempty subsets of range(n)."""

    n: int
    sets: tuple  # frozenset entries

    def __post_init__(self):
        seen = set()
        for s in self.sets:
            if not s:
                raise FamilyError("empty member set")
            if not all(isinstance(v, int) and 0 <= v < self.n for v in s):
                raise FamilyError(f"member {sorted(s)} out of range for n={self.n}")
            if s in seen:
                raise FamilyError(f"member {sorted(s)} repeated")
            seen.add(s)

    def as_set(self) -> frozenset:
        return frozenset(self.sets)

    def member_masks(self) -> list:
        return [mask_of(s) for s in self.sets]

    def canonical(self) -> "VertexFamily":
        ordered = sorted(self.sets, key=member_key)
        return VertexFamily(self.n, tuple(ordered))

    def same_family(self, other: "VertexFamily") -> bool:
        return self.n == other.n and self.as_set() == other.as_set()


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

    Variable p maps to the set of vertices whose label it divides; empty
    sets are dropped.  Raises if the labelling is not square-free or if two
    variables cut out the same vertex set (such a labelling corresponds to
    no family).
    """
    if not L.is_squarefree():
        raise LabellingError("labelling is not square-free")
    sets = []
    seen = {}
    for p in range(L.n_variables):
        s = frozenset(v for v, m in enumerate(L.labels) if m.exponents[p])
        if not s:
            continue
        if s in seen:
            raise FamilyError(
                f"variables {seen[s]} and {p} divide exactly the same vertex labels")
        seen[s] = p
        sets.append(s)
    return VertexFamily(L.n_vertices, tuple(sets))


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
    maxes = [max(m.exponents[p] for m in L.labels) for p in range(L.n_variables)]
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
    """Can `target` be written as a disjoint union of some of `parts`?"""
    usable = [p for p in parts if p and p & ~target == 0]

    # branch on the lowest uncovered bit: exactly one chosen part must
    # contain it, and any part of the cover may appear anywhere in the list
    def go(rest):
        if rest == 0:
            return True
        low = rest & -rest
        for p in usable:
            if p & low and p & ~rest == 0 and go(rest ^ p):
                return True
        return False

    return go(target)


def is_disjoint_union_of(target, members) -> bool:
    """True when `target` is a disjoint union of (one or more) `members`."""
    tmask = mask_of(target)
    return _exact_cover_exists(tmask, [mask_of(s) for s in members])


def reduce_family(F: VertexFamily) -> VertexFamily:
    """Drop members that are disjoint unions of two or more other members.

    The emptied member test is exhaustive exact cover, so the result is
    exact; reduction is idempotent.
    """
    masks = F.member_masks()
    keep = []
    for i, s in enumerate(F.sets):
        others = [m for j, m in enumerate(masks) if j != i]
        if not _exact_cover_exists(masks[i], others):
            keep.append(s)
    return VertexFamily(F.n, tuple(keep))


def refines(F: VertexFamily, G: VertexFamily) -> bool:
    """Every member of G is a disjoint union of members of F."""
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


def morphism_exists(F: VertexFamily, G: VertexFamily) -> bool:
    """Is there a morphism from the labelling of F to the labelling of G?

    Holds exactly when every member of G is a disjoint union of members
    of F.  Both families are assumed to come from valid labellings of the
    same complex; that is not re-verified here.
    """
    return refines(F, G)


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


@dataclass(frozen=True)
class LcmLattice:
    """The lcms of the nonempty sets of labels, each mapped to its support:
    the mask of the vertices whose labels divide it.  Points and supports
    are in bijection, since a point is the lcm of its support (see
    lcm_lattice)."""

    n_variables: int
    supports: dict  # exponent tuple -> mask of labels dividing it

    @property
    def points(self) -> frozenset:
        return frozenset(self.supports)

    def sorted_points(self) -> list:
        return sorted(self.supports)

    def __len__(self) -> int:
        return len(self.supports)


def lcm_lattice(L: MonomialLabelling) -> LcmLattice:
    """Smallest set of exponent vectors containing the labels and closed
    under componentwise max, found as its supports, the closed vertex sets.

    With A(p, t) the vertices whose exponent of p is at least t, the support
    of b is the complement of the union of the A(p, b_p + 1).  Conversely a
    nonempty complement M of a union of A's is {v : e(v) <= c} for some c
    (the levels of one variable nest), and b = lcm(M) <= c, so M is b's
    support.  Only the levels t that occur as exponents are closed: any
    other A(p, t) equals the next occurring level up, or is empty.  So the
    work does not grow with the exponents, and b_p is the largest level of
    p that M meets.
    """
    exps = [m.exponents for m in L.labels]
    full = (1 << len(exps)) - 1
    levels = _level_masks(exps)
    supports = {}
    for u in subfamily_unions(a for per_var in levels for _, a in per_var):
        support = full & ~u
        if not support:
            continue
        b = []
        for per_var in levels:
            for t, a in per_var:
                if a & support:
                    b.append(t)
                    break
            else:
                b.append(0)
        supports[tuple(b)] = support
    return LcmLattice(L.n_variables, supports)
