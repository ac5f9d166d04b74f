"""Span recording around llab's module boundaries, installed from outside.

Nothing under src/ knows about this module.  `install` replaces every
public function of each layer module -- at every binding a caller looks
up, including `from x import f` copies in other llab modules and package
re-exports -- with a wrapper that records a span when the call crosses
into the layer from another one.  Named probes (a few methods and the
`splu` that eigensolve calls) always record, so that per-stage times and
counts can be read off even when caller and callee share a layer.

Spans are kept in memory as [name, layer, start, end, parent] rows and
written out by `Tracer.dump` when the run ends.  Recording assumes one
thread: the traced run sets LLAB_THREADS=1, and a span opened from any
other thread is counted in `foreign_thread_calls` and fails the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
import types
from collections import defaultdict

# layer name -> module path; hyperbolic.oracle is a frozen table at run
# time and is not a layer
LAYERS = {
    "cli": "llab.cli",
    "reports": "llab.reports",
    "suites": "llab.suites",
    "algebra": "llab.algebra",
    "lefschetz": "llab.lefschetz",
    "torus": "llab.torus",
    "hyperbolic.mesh": "llab.hyperbolic.mesh",
    "hyperbolic.assembly": "llab.hyperbolic.assembly",
    "hyperbolic.eigensolve": "llab.hyperbolic.eigensolve",
    "hyperbolic.forms": "llab.hyperbolic.forms",
    "hyperbolic.gap": "llab.hyperbolic.gap",
}

# modules whose functools caches make up the cache.* metrics
CACHE_MODULES = ("llab.algebra", "llab.lefschetz")

NAME, LAYER, START, END, PARENT = range(5)


def _note_modes(tr, args, kwargs, fc):
    tr.counts["torus.modes"] += len(fc.modes)


def _note_mode_ops(tr, args, kwargs, ops):
    tr.counts["torus.mode_ops_calls"] += 1
    tr.distinct["torus.xi"].add(ops.xi)


def _note_mesh(tr, args, kwargs, mesh):
    tr.counts["hyperbolic.mesh.build_calls"] += 1
    tr.counts["hyperbolic.mesh.vertices"] += mesh.n_vertices
    tr.distinct["hyperbolic.mesh.Rh"].add((float(mesh.R), float(mesh.h)))


def _note_laplacian(tr, args, kwargs, pair):
    tr.counts["hyperbolic.assembly.nnz"] += pair[0].nnz


def _note_eigen(tr, args, kwargs, result):
    tr.counts["hyperbolic.eigensolve.lanczos_iters"] += int(result[2])
    tr.counts["hyperbolic.eigensolve.dofs"] += int(args[0].shape[0])


def _note_lu(tr, args, kwargs, factor):
    tr.counts["hyperbolic.eigensolve.lu_nnz"] += int(factor.L.nnz + factor.U.nnz)


def _note_report(tr, args, kwargs, paths):
    tr.counts["reports.bytes"] += sum(p.stat().st_size for p in paths)


def _count(key):
    def note(tr, args, kwargs, result):
        tr.counts[key] += 1

    return note


# probe -> (layer, module, attribute path, result hook).  Every probe must
# resolve at install time; which probes a workload must fire is listed in
# workloads.py.
PROBES = {
    "algebra.metric_gram": ("algebra", "llab.algebra", "metric_gram", None),
    "algebra.hodge_star": ("algebra", "llab.algebra", "hodge_star", None),
    "algebra.pq_decompose": ("algebra", "llab.algebra", "pq_decompose", None),
    "algebra.pq_projector_matrices": ("algebra", "llab.algebra", "pq_projector_matrices", None),
    "algebra.weil_operator": ("algebra", "llab.algebra", "weil_operator", None),
    "lefschetz.primitive_decompose": (
        "lefschetz", "llab.lefschetz", "primitive_decompose",
        _count("lefschetz.primitive_decompose_calls"),
    ),
    "lefschetz.power_matrix": ("lefschetz", "llab.lefschetz", "lefschetz_power_matrix", None),
    "lefschetz.primitive_basis": ("lefschetz", "llab.lefschetz", "primitive_basis", None),
    "torus.build": ("torus", "llab.torus", "build_fourier_complex", _note_modes),
    "torus.mode_ops": ("torus", "llab.torus", "FourierComplex.mode_ops", _note_mode_ops),
    "torus.harmonic_space": ("torus", "llab.torus", "harmonic_space", None),
    "torus.check_complex": ("torus", "llab.torus", "check_complex", None),
    "torus.p7": ("torus", "llab.torus", "verify_p7_decomposition", None),
    "torus.L8": ("torus", "llab.torus", "verify_lemma_L8", None),
    "torus.L10": ("torus", "llab.torus", "verify_lemma_L10", None),
    "torus.kahler": ("torus", "llab.torus", "verify_kahler_identity", None),
    "torus.anti_invariant": ("torus", "llab.torus", "anti_invariant_suite", None),
    "torus.self_dual": ("torus", "llab.torus", "self_dual_invariant_relation", None),
    "hyperbolic.mesh.build": ("hyperbolic.mesh", "llab.hyperbolic.mesh", "build_disc_mesh", _note_mesh),
    "hyperbolic.assembly.laplacian": (
        "hyperbolic.assembly", "llab.hyperbolic.assembly", "assemble_hodge_laplacian", _note_laplacian,
    ),
    "hyperbolic.assembly.edge_structure": (
        "hyperbolic.assembly", "llab.hyperbolic.assembly", "edge_structure", None,
    ),
    "hyperbolic.eigensolve.solve": (
        "hyperbolic.eigensolve", "llab.hyperbolic.eigensolve", "smallest_eigenpairs", _note_eigen,
    ),
    # splu as eigensolve looks it up: through its module-level `spla` alias
    "hyperbolic.eigensolve.lu": ("hyperbolic.eigensolve", "llab.hyperbolic.eigensolve", "spla.splu", _note_lu),
    "hyperbolic.forms.bounded_primitive": (
        "hyperbolic.forms", "llab.hyperbolic.forms", "bounded_primitive", None,
    ),
    "hyperbolic.forms.crossterm": ("hyperbolic.forms", "llab.hyperbolic.forms", "crossterm_constant", None),
    "hyperbolic.forms.annulus_decay": ("hyperbolic.forms", "llab.hyperbolic.forms", "annulus_decay", None),
    "hyperbolic.gap.sweep": ("hyperbolic.gap", "llab.hyperbolic.gap", "gap_sweep", None),
    "hyperbolic.gap.derivation": ("hyperbolic.gap", "llab.hyperbolic.gap", "gromov_bound_report", None),
    "reports.write": ("reports", "llab.reports", "ReportBundle.write", _note_report),
    "cli.decompose": ("cli", "llab.cli", "decompose_file", None),
}


class Tracer:
    """In-memory span store for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.thread = threading.get_ident()
        self.foreign_thread_calls = 0

    def wrap(self, fn, name: str, layer: str, probe: bool, hook=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if threading.get_ident() != self.thread:
                self.foreign_thread_calls += 1
                return fn(*args, **kwargs)
            if not probe and stack and spans[stack[-1]][LAYER] == layer:
                return fn(*args, **kwargs)  # not a layer boundary
            row = [name, layer, clock(), 0.0, stack[-1] if stack else -1]
            idx = len(spans)
            spans.append(row)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                row[END] = clock()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "columns": ["name", "layer", "start", "end", "parent"],
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
                separators=(",", ":"),
            )


def _llab_modules():
    return [m for name, m in list(sys.modules.items()) if (name == "llab" or name.startswith("llab.")) and m]


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class _ModuleProxy(types.ModuleType):
    """Stands in for scipy.sparse.linalg inside eigensolve only."""

    def __init__(self, real, splu):
        super().__init__(real.__name__)
        self._real = real
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._real, name)


def install(run_id: str) -> Tracer:
    """Wrap every layer's public functions and every probe; return the tracer.

    Raises LookupError when a layer module or a probe target is missing,
    so a renamed function fails the traced run instead of reading 0.
    """
    tracer = Tracer(run_id)
    replaced: dict[int, object] = {}
    probe_of = {}
    for probe, (layer, modname, path, hook) in PROBES.items():
        if "." not in path:
            fn = getattr(sys.modules[modname], path, None)
            if fn is None:
                raise LookupError(f"probe {probe}: {modname}.{path} not found")
            probe_of[id(fn)] = (probe, hook)

    for layer, modname in LAYERS.items():
        mod = sys.modules.get(modname)
        if mod is None:
            raise LookupError(f"layer module {modname} is not imported")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != modname:
                continue
            probe, hook = probe_of.pop(id(obj), (None, None))
            replaced[id(obj)] = tracer.wrap(obj, probe or f"{layer}.{attr}", layer, probe is not None, hook)
    if probe_of:
        missing = ", ".join(probe for probe, _ in probe_of.values())
        raise LookupError(f"probes not defined as public functions of their layer: {missing}")

    # rebind at every site a caller looks the name up
    for mod in _llab_modules():
        for attr, obj in list(vars(mod).items()):
            new = replaced.get(id(obj))
            if new is not None:
                setattr(mod, attr, new)

    # probes on methods and on a foreign module alias
    for probe, (layer, modname, path, hook) in PROBES.items():
        if "." not in path:
            continue
        try:
            owner, attr, fn = _resolve(sys.modules[modname], path)
        except AttributeError as e:
            raise LookupError(f"probe {probe}: {modname}.{path} not found") from e
        wrapped = tracer.wrap(fn, probe, layer, True, hook)
        if isinstance(owner, types.ModuleType) and owner.__name__ != modname:
            # a module alias such as eigensolve's `spla`: swap in a proxy
            # for this caller only, leaving scipy itself untouched
            alias = path.split(".")[0]
            setattr(sys.modules[modname], alias, _ModuleProxy(owner, wrapped))
        else:
            setattr(owner, attr, wrapped)
    return tracer


def cache_stats() -> dict:
    """Summed functools cache_info over the cache modules (0 when none)."""
    hits = misses = entries = 0
    for modname in CACHE_MODULES:
        for obj in vars(sys.modules[modname]).values():
            info = getattr(obj, "cache_info", None)
            if callable(info):
                ci = info()
                hits += ci.hits
                misses += ci.misses
                entries += ci.currsize
    return {"hits": hits, "misses": misses, "entries": entries}


def summarize(spans: list, wall_s: float) -> dict:
    """Per-layer self and busy times, per-probe times, and span coverage.

    self time of a span = its duration minus its direct children's; busy
    time of a layer = the summed duration of its outermost spans.
    """
    n = len(spans)
    child_time = [0.0] * n
    for row in spans:
        if row[PARENT] >= 0:
            child_time[row[PARENT]] += row[END] - row[START]
    self_s: dict[str, float] = defaultdict(float)
    busy_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    probe_s: dict[str, float] = defaultdict(float)
    probe_self_s: dict[str, float] = defaultdict(float)
    fired: set = set()
    root_s = 0.0
    for i, row in enumerate(spans):
        name, layer, start, end, parent = row
        dur = end - start
        fired.add(name)
        self_s[layer] += dur - child_time[i]
        probe_self_s[name] += dur - child_time[i]
        if parent < 0:
            root_s += dur
        # nearest enclosing span of the same layer / same name
        p, same_layer, same_name = parent, False, False
        while p >= 0 and not (same_layer and same_name):
            same_layer = same_layer or spans[p][LAYER] == layer
            same_name = same_name or spans[p][NAME] == name
            p = spans[p][PARENT]
        if not same_layer:
            busy_s[layer] += dur
            calls[layer] += 1
        if not same_name:
            probe_s[name] += dur
    return {
        "self_s": dict(self_s),
        "busy_s": dict(busy_s),
        "calls": dict(calls),
        "probe_s": dict(probe_s),
        "probe_self_s": dict(probe_self_s),
        "fired": sorted(fired),
        "root_s": root_s,
        "wall_s": wall_s,
    }
