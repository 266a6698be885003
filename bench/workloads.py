"""Seeded inputs, op lists and expected answers of the cellres benchmark.

Every workload is a fixed list of ops.  An op runs one user-visible call
(a `cellres` CLI subcommand in-process, or `any_valid_family` on a parsed
JSON document) and returns its raw outcome; its check maps the answer back
through the instance's vertex relabelling and compares it with an expected
answer pinned here, from the README catalogue, the acceptance suite's
documented verdicts, or elementary facts about the inputs.  Nothing is
cached across ops: every CLI call reads its files and builds its own
`AcyclicityOracle`, as a command-line user's call does.

This module imports no `cellres` code at import time, so the set-up probe
in run.py can time the import itself.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

FIELDS = ("gf2", "rational")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]  # error text, None when right
    limit_s: float


def load_cellres() -> SimpleNamespace:
    """Import the library modules the workloads call."""
    names = ("cli", "constructions", "linalg", "monomials", "search",
             "serialize")
    return SimpleNamespace(**{n: importlib.import_module(f"cellres.{n}")
                              for n in names})


# ---------------------------------------------------------------------------
# expected answers, pinned independently of the code under test

# The six instances of the variable-count table (n-gon, chords).  Pinned
# here so that a change to the library's own instance list cannot change
# the workload.
VARIABLE_COUNT = (
    (5, ((0, 2),)),
    (6, ((0, 2),)),
    (6, ((0, 3),)),
    (7, ((0, 2),)),
    (7, ((0, 3),)),
    (6, ((1, 5), (3, 5))),
)

# README, "A corrected catalogue": the six maximal families on the hexagon
# with chords (1,5) and (3,5).
HEXAGON_MAXIMAL = frozenset(
    frozenset(frozenset(s) for s in fam) for fam in (
        [[0], [2], [4], [0, 1], [1, 2], [2, 3], [0, 1, 5], [1, 2, 3],
         [3, 4, 5]],
        [[0], [2], [4], [1, 2], [2, 3], [3, 4], [0, 1, 5], [1, 2, 3],
         [3, 4, 5]],
        [[0], [4], [0, 1], [0, 5], [1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]],
        [[0], [4], [0, 1], [1, 2], [2, 3], [0, 1, 5], [0, 4, 5], [3, 4, 5]],
        [[0], [4], [1, 2], [2, 3], [3, 4], [0, 1, 5], [0, 4, 5], [3, 4, 5]],
        [[0], [4], [2, 3], [3, 4], [4, 5], [0, 1, 2], [0, 1, 5], [1, 2, 3]],
    ))

# README: hex-squares-combined stays valid after adjoining {0,1}.  The
# reflection 0<->4, 1<->3 fixes that complex and that family, so {3,4} is
# the same extension seen in a mirror; which of the two the scan meets
# first depends on the vertex relabelling.  Both are subsets of the other
# extensions, so the first one found is always one of these two.
HEXAGON_EXTENSIONS = (frozenset({0, 1}), frozenset({3, 4}))

# Acceptance suite: all ten fixture labellings are Cohen-Macaulay, with
# codimension dim + 1 (3 on the hexagon, 4 on the 3-dimensional ones).
FIXTURES = (
    "hex-squares", "hex-squares-polarized", "hex-squares-alternative",
    "hex-squares-combined", "pyramid-pentagon", "elongated-pyramid-triangle",
    "wheel-hexagon", "wheel-bipyramid-a", "wheel-bipyramid-b",
    "wheel-bipyramid-c",
)

ARC_POLYGONS = (11, 13, 15)

# Acceptance suite (selfdual table) and README: pyramids over odd polygons
# and the elongated pyramid over the triangle admit a family; bipyramids
# and pyramids over even polygons admit none.
EXISTENCE = (
    ("bipyramid-4", False), ("bipyramid-5", False),
    ("pyramid-5", True), ("pyramid-6", False),
    ("pyramid-7", True), ("pyramid-8", False),
    ("elongated-pyramid-3", True),
)

# 16 to 18 vertices give 2^n-scale candidate generation and more connected
# candidates than the default limit of 60, so exit 2 is the answer.
GUARD_POLYGONS = (16, 17, 18)


# ---------------------------------------------------------------------------
# relabelling and plain-data helpers


class Relabel:
    """A seeded vertex permutation and its inverse, applied to documents.

    By default every vertex is relabelled.  With `base`, only the first
    `base` vertices are shuffled; each further block of `base` ids up to
    `base * layers` follows the same shuffle, and higher ids keep theirs.
    """

    def __init__(self, rng: random.Random, n: int, base: int = None,
                 layers: int = 1):
        if base is None:
            self.perm = list(range(n))
            rng.shuffle(self.perm)
        else:
            shuffle = list(range(base))
            rng.shuffle(shuffle)
            self.perm = [shuffle[v % base] + v - v % base
                         if v < base * layers else v for v in range(n)]
        self.inv = [0] * n
        for v, p in enumerate(self.perm):
            self.inv[p] = v

    def complex(self, doc: dict) -> dict:
        cells = [dict(c, vertices=sorted(self.perm[v] for v in c["vertices"]))
                 for c in doc["cells"]]
        return {"n_vertices": doc["n_vertices"], "cells": cells}

    def family(self, sets, n: int) -> dict:
        return {"n": n,
                "sets": [sorted(self.perm[v] for v in s) for s in sets]}

    def labelling(self, doc: dict) -> dict:
        labels = [None] * len(doc["labels"])
        for v, row in enumerate(doc["labels"]):
            labels[self.perm[v]] = row
        return {"n_variables": doc["n_variables"], "labels": labels}

    def back(self, members) -> frozenset:
        return frozenset(self.inv[v] for v in members)


def arcs(n: int, length: int) -> list:
    """All runs of `length` consecutive vertices on the n-cycle."""
    return [frozenset((s + i) % n for i in range(length)) for s in range(n)]


def is_arc(vertices: frozenset, n: int) -> bool:
    return any(vertices == a for a in arcs(n, len(vertices)))


def f_vector(doc: dict) -> list:
    counts = {}
    for c in doc["cells"]:
        counts[c["dim"]] = counts.get(c["dim"], 0) + 1
    return [counts[d] for d in range(max(counts) + 1)]


def simple_criteria_error(doc: dict, sets) -> "str | None":
    """Check the combinatorial validity criteria on a family directly.

    Covering the vertices, the cover bound and face separation are checked
    from the complex document alone; acyclicity of complements needs
    homology and is left to the library.
    """
    n = doc["n_vertices"]
    full = frozenset(range(n))
    d = max(c["dim"] for c in doc["cells"])
    if frozenset().union(*sets) != full:
        return "family misses a vertex"
    for combo in itertools.combinations(sets, min(d, len(sets))):
        if frozenset().union(*combo) == full:
            return f"{d} members cover every vertex"
    support = [frozenset(c["vertices"]) for c in doc["cells"]]
    for c in doc["cells"]:
        for b, _ in c["boundary"]:
            if not any(s & support[c["id"]] and not s & support[b]
                       for s in sets):
                return f"face pair {b} < {c['id']} not separated"
    return None


# ---------------------------------------------------------------------------
# running ops


def cli_call(cr, argv: list):
    """One in-process CLI call: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cr.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def expect_report(code: int, inspect) -> Callable:
    """Check the exit code, then hand the report's result to `inspect`."""
    def check(outcome):
        got, out, err = outcome
        if got != code:
            return f"exit {got}, expected {code}: {err.strip()[:200]}"
        try:
            result = json.loads(out)["result"]
        except (ValueError, KeyError) as exc:
            return f"unreadable report: {exc}"
        return inspect(result)
    return check


def want(cond: bool, message: str) -> "str | None":
    return None if cond else message


class Inputs:
    """Writes the seeded input documents of one workload to a directory."""

    def __init__(self, cr, seed: int, workdir: Path, tag: str):
        self.cr = cr
        self.rng = random.Random(f"{tag}:{seed}")
        self.workdir = workdir
        self.tag = tag

    def write(self, name: str, doc: dict) -> str:
        path = self.workdir / f"{self.tag}-{name}.json"
        path.write_text(self.cr.serialize.canonical_json(doc))
        return str(path)

    def complex(self, name: str, X):
        """(path, original document, relabelling) for a complex."""
        doc = self.cr.serialize.complex_to_dict(X)
        rel = Relabel(self.rng, X.n_vertices)
        return self.write(name, rel.complex(doc)), doc, rel


# ---------------------------------------------------------------------------
# workloads


def _maximal_families_check(n: int, chords, rel: Relabel):
    def inspect(result):
        fams = {frozenset(rel.back(s) for s in f["sets"])
                for f in result["families"]}
        if len(fams) != result["count"]:
            return "families repeat or count disagrees"
        if len(chords) == 2:
            return want(fams == HEXAGON_MAXIMAL,
                        "maximal families differ from the README catalogue")
        sizes = sorted(len(f) for f in fams)
        return want(sizes == [n + 1, n + 1],
                    f"expected two maximal families of size {n + 1}, "
                    f"got sizes {sizes}")
    return expect_report(0, inspect)


def _enumerate_op(inputs: Inputs, n: int, chords, jobs: int = None) -> Op:
    cr = inputs.cr
    label = f"{n}-gon-" + "-".join(f"{a}.{b}" for a, b in chords)
    path, _, rel = inputs.complex(
        f"vc-{label}", cr.constructions.subdivided_polygon(n, chords))
    argv = ["enumerate", "--complex", path, "--maximal",
            "--max-candidates", "200"]
    if jobs:
        argv += ["--jobs", str(jobs)]
    return Op(f"enumerate {label}" + (f" jobs={jobs}" if jobs else ""),
              lambda: cli_call(cr, argv),
              _maximal_families_check(n, chords, rel), 120.0)


def variable_count_ops(inputs: Inputs) -> list:
    return [_enumerate_op(inputs, n, chords) for n, chords in VARIABLE_COUNT]


def jobs_ops(inputs: Inputs) -> list:
    """7-gon chord (0,3) serially and with two worker processes."""
    return [_enumerate_op(inputs, 7, ((0, 3),)),
            _enumerate_op(inputs, 7, ((0, 3),), jobs=2)]


def _cli_op(inputs, name, argv, check, field=None) -> Op:
    cr = inputs.cr
    if field:
        argv = argv + ["--field", field]
        name = f"{name} {field}"
    return Op(name, lambda: cli_call(cr, argv), check, 20.0)


def verdict_ops(inputs: Inputs) -> list:
    cr = inputs.cr
    sz = cr.serialize
    ops = []
    for fid in FIXTURES:
        X, L = cr.constructions.fixture(fid)
        cx, doc, rel = inputs.complex(f"fx-{fid}", X)
        lab = inputs.write(f"fx-{fid}-lab",
                           rel.labelling(sz.labelling_to_dict(L)))
        codim = max(c["dim"] for c in doc["cells"]) + 1
        for field in FIELDS:
            ops.append(_cli_op(
                inputs, f"verify {fid} labelling",
                ["verify", "--complex", cx, "--labelling", lab],
                expect_report(0, lambda r, codim=codim: want(
                    r["cm_verdict"]["is_cm"]
                    and r["cm_verdict"]["codimension"] == codim,
                    f"expected CM of codimension {codim}")), field))
            # every fixture complex is a disk or a ball
            ops.append(_cli_op(
                inputs, f"homology {fid}", ["homology", "--complex", cx],
                expect_report(0, lambda r: want(
                    r["homology"]["acyclic"], "expected acyclic")), field))
        ranks = [1] + f_vector(doc)
        ops.append(_cli_op(
            inputs, f"betti {fid}",
            ["betti", "--complex", cx, "--labelling", lab],
            expect_report(0, lambda r, ranks=ranks: want(
                r["ranks"] == ranks and r["composition_is_zero"],
                f"expected ranks {ranks}"))))
        if fid == "hex-squares-combined":
            fam_doc = sz.family_to_dict(cr.monomials.family_of(L))
            fam = inputs.write(f"fx-{fid}-fam",
                               rel.family(fam_doc["sets"], X.n_vertices))
            for field in FIELDS:
                ops.append(_cli_op(
                    inputs, f"verify {fid} family",
                    ["verify", "--complex", cx, "--family", fam],
                    expect_report(0, lambda r: want(
                        r["criteria"]["ok"] and r["cm_verdict"]["is_cm"],
                        "expected a valid CM family")), field))
                ops.append(_cli_op(
                    inputs, f"maximal-check {fid}",
                    ["maximal-check", "--complex", cx, "--family", fam],
                    expect_report(1, lambda r, rel=rel: want(
                        not r["maximality"]["is_maximal"]
                        and rel.back(r["maximality"]["extension"] or ())
                        in HEXAGON_EXTENSIONS,
                        "expected not maximal, extension {0,1} or {3,4}")),
                    field))
    for n in ARC_POLYGONS:
        ops += _arc_ops(inputs, n)
    return ops


def _arc_ops(inputs: Inputs, n: int) -> list:
    """The odd n-gon's arc family, and two seeded families failing it."""
    cr = inputs.cr
    sz = cr.serialize
    r = (n - 1) // 2
    cx, _, rel = inputs.complex(f"arc-{n}",
                                cr.constructions.polygon_complex(n))
    F = cr.constructions.polygon_family(n)
    fam = inputs.write(f"arc-{n}-fam", rel.family(F.sets, n))
    lab = inputs.write(f"arc-{n}-lab", rel.labelling(
        sz.labelling_to_dict(cr.monomials.labelling_of(F))))
    # a member and its complement cover the polygon: the cover bound breaks
    members = arcs(n, r)
    extra = frozenset(range(n)) - inputs.rng.choice(members)
    covering = inputs.write(f"arc-{n}-covering",
                            rel.family(members + [extra], n))
    # two disjoint short arcs leave a disconnected complement
    short = arcs(n, r - 1) + [inputs.rng.choice(members)]
    shorts = inputs.write(f"arc-{n}-short", rel.family(short, n))

    def short_fails(res, rel=rel):
        crit = res["criteria"]
        rest = frozenset(range(n)) - rel.back(crit["union_witness"] or ())
        return want(crit["cover_bound"] and not crit["complements_acyclic"]
                    and rest and not is_arc(rest, n)
                    and not res["cm_verdict"]["is_cm"],
                    "expected a disconnected complement and not CM")

    ops = []
    for field in FIELDS:
        ops += [
            _cli_op(inputs, f"verify {n}-gon arcs family",
                    ["verify", "--complex", cx, "--family", fam],
                    expect_report(0, lambda res: want(
                        res["criteria"]["ok"] and res["cm_verdict"]["is_cm"]
                        and res["cm_verdict"]["codimension"] == 3,
                        "expected a valid CM family")), field),
            _cli_op(inputs, f"verify {n}-gon arcs labelling",
                    ["verify", "--complex", cx, "--labelling", lab],
                    expect_report(0, lambda res: want(
                        res["cm_verdict"]["is_cm"], "expected CM")), field),
            _cli_op(inputs, f"maximal-check {n}-gon arcs",
                    ["maximal-check", "--complex", cx, "--family", fam],
                    expect_report(0, lambda res: want(
                        res["maximality"]["is_maximal"],
                        "expected maximal")), field),
            _cli_op(inputs, f"verify {n}-gon covering family",
                    ["verify", "--complex", cx, "--family", covering],
                    expect_report(1, lambda res: want(
                        not res["criteria"]["cover_bound"]
                        and not res["cm_verdict"]["is_cm"],
                        "expected a broken cover bound")), field),
            _cli_op(inputs, f"verify {n}-gon short-arc family",
                    ["verify", "--complex", cx, "--family", shorts],
                    expect_report(1, short_fails), field),
        ]
    ops += [
        _cli_op(inputs, f"betti {n}-gon arcs",
                ["betti", "--complex", cx, "--labelling", lab],
                expect_report(0, lambda res: want(
                    res["ranks"] == [1, n, n, 1], "expected ranks 1,n,n,1"))),
        _cli_op(inputs, f"maximal-check {n}-gon covering family",
                ["maximal-check", "--complex", cx, "--family", covering],
                expect_report(1, lambda res: want(
                    "maximality" not in res and not res["criteria"]["ok"],
                    "expected refusal before the maximality scan"))),
    ]
    return ops


def _existence_complex(cr, name: str):
    """(complex, base polygon size, copies of the base in the vertex ids)."""
    c = cr.constructions
    kind, k = name.rsplit("-", 1)
    k = int(k)
    if kind == "bipyramid":
        return c.bipyramid_complex(k), k, 1
    if kind == "pyramid":
        return c.pyramid(c.polygon_complex(k)), k, 1
    return c.elongated_pyramid(c.polygon_complex(k)), k, 2


def existence_ops(inputs: Inputs) -> list:
    """any_valid_family on 3-dimensional cones over polygons.

    Only the base polygon is relabelled; apexes keep their ids.  The
    search breaks ties between requirements by vertex id, so relabelling
    the apexes moves bipyramid(5) between about 120k and 350k oracle calls,
    a spread no run length here averages out.
    """
    cr = inputs.cr
    ops = []
    for name, admits in EXISTENCE:
        X, base, layers = _existence_complex(cr, name)
        doc = cr.serialize.complex_to_dict(X)
        for field in FIELDS:
            rel = Relabel(inputs.rng, X.n_vertices, base, layers)
            text = cr.serialize.canonical_json(rel.complex(doc))

            def run(text=text, field=field):
                Y = cr.serialize.complex_from_dict(
                    cr.serialize.parse_json(text))
                fs = cr.linalg.GF2 if field == "gf2" else cr.linalg.RATIONAL
                space = cr.search.SearchSpace(max_candidates=200)
                return cr.search.any_valid_family(Y, space, fs)

            def check(found, doc=doc, rel=rel, admits=admits):
                if found is None:
                    return want(not admits, "expected a valid family")
                if not admits:
                    return "expected no valid family"
                return simple_criteria_error(
                    doc, [rel.back(s) for s in found.sets])

            ops.append(Op(f"any_valid_family {name} {field}", run, check,
                          60.0))
    return ops


def guard_ops(inputs: Inputs) -> list:
    cr = inputs.cr
    ops = []
    for n in GUARD_POLYGONS:
        path, _, _ = inputs.complex(f"guard-{n}",
                                    cr.constructions.polygon_complex(n))

        def check(outcome):
            code, out, err = outcome
            if code != 2 or out:
                return f"exit {code}, expected a guard refusal (exit 2)"
            return want(json.loads(err)["error"]["type"] == "guard",
                        "expected a guard error")

        ops.append(_cli_op(inputs, f"enumerate {n}-gon",
                           ["enumerate", "--complex", path], check))
    return ops


# name -> (op builder, seconds of --seconds charged per pass).  A run makes
# round(seconds / charge) passes, at least one.  One variable-count pass
# takes about 20 s on a 2-core x86 host; it is charged 7.5 s so that a 15 s
# run reports the median of two passes.
WORKLOADS = {
    "variable-count": (variable_count_ops, 7.5),
    "verdict": (verdict_ops, 2.5),
    "existence-3d": (existence_ops, 4.0),
    "guard": (guard_ops, 3.8),
}


def build_ops(cr, workload: str, seed: int, workdir: Path,
              pass_no: int) -> list:
    """The op list of one pass, with that pass's seeded relabellings."""
    builder, _ = WORKLOADS[workload]
    return builder(Inputs(cr, seed, workdir, f"{workload}.{pass_no}"))
