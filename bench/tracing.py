"""Per-layer tracing of cellres from outside, by wrapping public functions.

`Tracer.install()` replaces library functions with wrappers wherever a
`cellres` module binds them, and `uninstall()` puts the originals back.
Two kinds of wrapper exist:

* span wrappers record (name, start, end, parent span, op id) for calls at
  a layer boundary: CLI entry, search engines, criteria and verdicts,
  homology, lcm lattices, serialization, constructions;
* count wrappers, for calls made millions of times per op (oracle queries,
  oracle misses, rank kernels), add a call count and summed time to the
  enclosing span instead of recording a span per call.

A span's self time is its duration minus its child spans and minus the
count-wrapped calls made directly inside it.  Spans are kept in memory and
written out by `dump()` when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("cellres", "cellres.cli", "cellres.complexes",
           "cellres.constructions", "cellres.monomials", "cellres.resolution",
           "cellres.search", "cellres.serialize")

# (module, function, span name, info taken from (args, result) or None)
SPANS = (
    ("cellres.cli", "main", "cli.main", None),
    ("cellres.search", "connected_vertex_subsets",
     "search.connected_vertex_subsets",
     lambda a, r: (len(r), (1 << a[0].n_vertices) - 1)),
    ("cellres.search", "enumerate_valid_families",
     "search.enumerate_valid_families", lambda a, r: len(r)),
    ("cellres.search", "enumerate_maximal_families",
     "search.enumerate_maximal_families", None),
    ("cellres.search", "any_valid_family", "search.any_valid_family", None),
    ("cellres.search", "is_maximal", "search.is_maximal",
     lambda a, r: r.is_maximal),
    ("cellres.resolution", "check_family_criteria",
     "resolution.check_family_criteria", None),
    ("cellres.resolution", "check_cm_labelling",
     "resolution.check_cm_labelling", None),
    ("cellres.resolution", "build_free_complex",
     "resolution.build_free_complex", None),
    ("cellres.complexes", "reduced_homology", "complexes.reduced_homology",
     None),
    ("cellres.monomials", "lcm_lattice", "monomials.lcm_lattice",
     lambda a, r: len(r)),
    ("cellres.serialize", "canonical_json", "serialize.emit.canonical_json",
     lambda a, r: len(r.encode())),
    ("cellres.serialize", "parse_json", "serialize.parse.parse_json", None),
)

RANK_OWNERS = ("cellres.resolution", "cellres.complexes")


def _group(name: str) -> str:
    """Spans of one group are counted once when they nest."""
    return name.rsplit(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, info]
        self.counts = defaultdict(lambda: [0, 0.0])  # (parent, kind)
        self.covered = defaultdict(float)  # parent -> outermost counted time
        self.stack = []
        self.depth = 0           # nesting of count-wrapped calls
        self.op = None
        self._undo = []

    # -- installing wrappers ------------------------------------------------

    def install(self):
        for module, func, name, info in self._span_targets():
            orig = getattr(sys.modules[module], func)
            self._replace(orig, self._span(name, orig, info), MODULES)
        oracle = sys.modules["cellres.resolution"].AcyclicityOracle
        for attr, kind in (("is_acyclic", "oracle"), ("_compute", "miss")):
            orig = getattr(oracle, attr)
            self._undo.append((oracle, attr, orig))
            setattr(oracle, attr, self._count(lambda a, k=kind: k, orig))
        linalg = sys.modules["cellres.linalg"]
        self._replace(linalg.gf2_rank,
                      self._count(lambda a: "rank_gf2", linalg.gf2_rank),
                      RANK_OWNERS)
        self._replace(linalg.matrix_rank,
                      self._count(_matrix_rank_kind, linalg.matrix_rank),
                      RANK_OWNERS)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _span_targets(self):
        yield from SPANS
        serialize = sys.modules["cellres.serialize"]
        for func, obj in sorted(vars(serialize).items()):
            if inspect.isfunction(obj) and obj.__module__ == serialize.__name__:
                if func.endswith("_to_dict"):
                    yield ("cellres.serialize", func,
                           f"serialize.emit.{func}", None)
                elif func.endswith("_from_dict"):
                    yield ("cellres.serialize", func,
                           f"serialize.parse.{func}", None)
        cons = sys.modules["cellres.constructions"]
        for func, obj in sorted(vars(cons).items()):
            if (inspect.isfunction(obj) and obj.__module__ == cons.__name__
                    and not func.startswith("_")):
                yield ("cellres.constructions", func,
                       f"constructions.{func}", None)

    def _replace(self, orig, wrapper, modules):
        for mod_name in modules:
            mod = sys.modules[mod_name]
            for attr in [a for a, v in vars(mod).items() if v is orig]:
                self._undo.append((mod, attr, orig))
                setattr(mod, attr, wrapper)

    def _span(self, name, fn, info):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1,
                   tracer.op, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
            if info is not None:
                rec[5] = info(args, result)
            return result
        return wrapped

    def _count(self, kind_of, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            tracer.depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                tracer.depth -= 1
                parent = tracer.stack[-1] if tracer.stack else -1
                slot = tracer.counts[parent, kind_of(args)]
                slot[0] += 1
                slot[1] += took
                if tracer.depth == 0:
                    tracer.covered[parent] += took
        return wrapped

    # -- spans opened by the benchmark itself -------------------------------

    def open(self, name: str) -> int:
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-2] if len(self.stack) > 1 else -1,
                           self.op, None])
        return self.stack[-1]

    def close(self, sid: int):
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    # -- reading the trace --------------------------------------------------

    def metrics(self) -> dict:
        spans = self.spans
        child = defaultdict(float)
        for name, start, end, parent, _, _ in spans:
            child[parent] += end - start

        def outermost(sid):
            group = _group(spans[sid][0])
            parent = spans[sid][3]
            while parent != -1:
                if _group(spans[parent][0]) == group:
                    return False
                parent = spans[parent][3]
            return True

        dur = defaultdict(float)
        selft = defaultdict(float)
        calls = defaultdict(int)
        infos = defaultdict(list)
        group_time = defaultdict(float)
        for sid, (name, start, end, _, _, info) in enumerate(spans):
            dur[name] += end - start
            selft[name] += end - start - child[sid] - self.covered[sid]
            calls[name] += 1
            if info is not None:
                infos[name].append(info)
            if outermost(sid):
                group_time[_group(name)] += end - start
        kinds = defaultdict(lambda: [0, 0.0])
        for (_, kind), (n, t) in self.counts.items():
            kinds[kind][0] += n
            kinds[kind][1] += t

        kept = sum(k for k, _ in infos["search.connected_vertex_subsets"])
        scanned = sum(s for _, s in infos["search.connected_vertex_subsets"])
        checked = calls["search.is_maximal"]
        maximal = sum(infos["search.is_maximal"])
        oracle_calls, oracle_s = kinds["oracle"]
        misses = kinds["miss"][0]
        return {
            "search.candidates_s": dur["search.connected_vertex_subsets"],
            "search.candidate_keep_ratio": _ratio(kept, scanned),
            "search.enumerate_self_s": selft["search.enumerate_valid_families"],
            "search.families_valid": sum(
                infos["search.enumerate_valid_families"]),
            "search.existence_self_s": selft["search.any_valid_family"],
            "search.maximal_filter_s": dur["search.is_maximal"],
            "search.maximal_yield": _ratio(maximal, checked),
            "search.families_maximal": maximal,
            "resolution.oracle_calls": oracle_calls,
            "resolution.oracle_misses": misses,
            "resolution.oracle_hit_ratio": _ratio(oracle_calls - misses,
                                                  oracle_calls),
            "resolution.oracle_s": oracle_s,
            "resolution.criteria_s": dur["resolution.check_family_criteria"],
            "resolution.cm_s": dur["resolution.check_cm_labelling"],
            "resolution.free_complex_s": dur["resolution.build_free_complex"],
            "linalg.rank_calls_gf2": kinds["rank_gf2"][0],
            "linalg.rank_calls_q": kinds["rank_q"][0],
            "linalg.rank_s": sum(kinds[k][1] for k in kinds
                                 if k.startswith("rank_")),
            "complexes.homology_calls": calls["complexes.reduced_homology"],
            "complexes.homology_s": dur["complexes.reduced_homology"],
            "monomials.lcm_points": sum(infos["monomials.lcm_lattice"]),
            "monomials.lcm_lattice_s": dur["monomials.lcm_lattice"],
            "serialize.parse_s": group_time["serialize.parse"],
            "serialize.emit_s": group_time["serialize.emit"],
            "serialize.bytes_out": sum(
                infos["serialize.emit.canonical_json"]),
            "cli.self_s": selft["cli.main"],
            "constructions.build_s": group_time["constructions"],
        }

    def dump(self, path: Path):
        """Write every span and per-span call counts as JSON."""
        counts = defaultdict(dict)
        for (parent, kind), (n, t) in self.counts.items():
            counts[parent][kind] = {"calls": n, "seconds": t}
        doc = {
            "spans": [
                {"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "op": op, "counted": counts.get(sid, {})}
                for sid, (name, start, end, parent, op, _)
                in enumerate(self.spans)],
            "counted_outside_spans": counts.get(-1, {}),
        }
        path.write_text(json.dumps(doc))


def _matrix_rank_kind(args) -> str:
    characteristic = args[1].characteristic
    return {2: "rank_gf2", 0: "rank_q"}.get(characteristic,
                                            f"rank_gf{characteristic}")


def _ratio(part, whole) -> float:
    """part / whole, and 0.0 when the layer saw no work."""
    return part / whole if whole else 0.0
