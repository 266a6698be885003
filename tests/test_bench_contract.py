"""The benchmark's tracer still finds every library name it wraps.

`bench/tracing.py` measures per-layer work by replacing library functions
by name and counts rank eliminations through the `gf2_rank` and
`matrix_rank` names bound in `cellres.complexes` and `cellres.resolution`.
A refactor that renames a traced function fails `install()`, and one that
routes ranks around those names silently zeroes the rank counters; both
show up here.  The tracer's source is only read, never written.
"""

import sys
import types
from pathlib import Path

import cellres.cli  # noqa: F401  (the tracer wraps names in every module)
import cellres.complexes as complexes
import cellres.resolution as resolution
from cellres.constructions import fixture, polygon_complex, pyramid
from cellres.linalg import GF2, RATIONAL
from reference_search import strand_ranks
from test_resolution import projective_plane

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def bindings(tracing):
    """Every attribute the tracer may replace, with its current value."""
    out = {}
    for name in tracing.MODULES:
        for attr, value in vars(sys.modules[name]).items():
            out[name, attr] = value
    for attr in ("is_acyclic", "_compute"):
        out["AcyclicityOracle", attr] = vars(resolution.AcyclicityOracle)[attr]
    return out


def rank_counts(tracer):
    totals = {"rank_gf2": 0, "rank_q": 0}
    for (_, kind), (calls, _) in tracer.counts.items():
        if kind in totals:
            totals[kind] += calls
    return totals


def test_tracer_counts_rank_calls_on_every_route_and_uninstalls():
    tracing = load_tracing()
    before = bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert complexes.gf2_rank is not before["cellres.complexes", "gf2_rank"]
        X = pyramid(polygon_complex(4))
        full = (1 << X.n_vertices) - 1
        Y, L = fixture("pyramid-pentagon")
        fc = resolution.build_free_complex(Y, L)
        top = tuple(max(e) for e in zip(*(m.exponents for m in L.labels)))
        P = projective_plane()
        # route -> (call, {field: rank kinds the call raises}); an oracle
        # miss certifies acyclicity over Q by GF(2) ranks alone, and only
        # the projective plane, cyclic over GF(2) but acyclic over Q, goes
        # on to exact elimination over Q
        plain = {GF2: {"rank_gf2"}, RATIONAL: {"rank_q"}}
        routes = {
            "oracle miss": (lambda field: resolution.AcyclicityOracle(
                X, field).is_acyclic(full),
                {GF2: {"rank_gf2"}, RATIONAL: {"rank_gf2"}}),
            "oracle miss, Q fallback": (
                lambda field: resolution.AcyclicityOracle(
                    P, field).is_acyclic((1 << P.n_vertices) - 1),
                {RATIONAL: {"rank_gf2", "rank_q"}}),
            "reduced_homology": (lambda field: complexes.reduced_homology(
                X, field).acyclic, plain),
            "strand_ranks": (lambda field: strand_ranks(
                fc, top, field) == (0,) * len(fc.multidegrees), plain),
        }
        for route, (call, raises) in routes.items():
            for field, kinds in raises.items():
                seen = rank_counts(tracer)
                assert call(field), route
                now = rank_counts(tracer)
                assert {k for k in now if now[k] > seen[k]} == kinds, \
                    (route, field)
        metrics = tracer.metrics()
        assert metrics["linalg.rank_calls_gf2"] > 0
        assert metrics["linalg.rank_calls_q"] > 0
        assert metrics["resolution.oracle_misses"] == 3
    finally:
        tracer.uninstall()
    after = bindings(tracing)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
