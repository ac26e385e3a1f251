"""Span tracing of sepdiff's layers, installed from outside the package.

``install`` wraps the public functions listed by ``targets`` and rebinds every
module attribute of the package that refers to the same object, so a name
imported elsewhere with ``from .sobolev import solve_general`` is traced too.
A target that no longer exists is reported as absent instead of failing.

Each span records name, start, end, parent span, thread and the id of the
traced command, plus a few counts read from the call's arguments and
result. Spans stay in memory and are written out once, at the end of the
command. ``layer_metrics`` turns the spans of traced commands into the
per-layer numbers of the benchmark.

Nothing here runs unless a traced command calls ``install``: untraced runs
never import this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import threading
import time
import weakref

import events


# -- annotations: counts read from a call ------------------------------------

def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _ann_states(seen):
    def ann(fn, args, kwargs, result):
        space = args[0]
        if space in seen:
            return {}
        seen.add(space)
        return {"states": len(result)}
    return ann


def _ann_nnz(fn, args, kwargs, result):
    return {"nnz": int(result.offdiag.nnz)}


def _ann_matvec(fn, args, kwargs, result):
    op = args[0]
    return {"bytes": events.matvec_bytes(op.offdiag.nnz, op.size)}


def _ann_solve(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"n": int(a["op"].size), "asked": a.get("method", "auto"),
            "method": result.method, "iterations": int(result.iterations),
            "residual": float(result.relative_residual)}


def _ann_directions(fn, args, kwargs, result):
    return {"directions": len(result.directions)}


def _ann_replica(fn, args, kwargs, result):
    return {"jumps": int(result.jump_counts.sum())}


def _ann_estimate(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    space = a["space"]
    return {"threads": int(a["threads"]),
            "events": events.expected_events(
                space.K, space.M, float(a["T"]), int(a["M"]),
                len(result.horizons))}


def targets():
    """(module, attribute path, span name, annotator) for every traced
    public function. The span name is ``<layer>.<function>``."""
    seen = weakref.WeakSet()
    S, G, O, D, C, L = ("sepdiff.statespace", "sepdiff.generator",
                        "sepdiff.sobolev", "sepdiff.diffusion",
                        "sepdiff.montecarlo", "sepdiff.cli")
    return [
        (S, "StateSpace.bitmasks", "statespace.enumerate", _ann_states(seen)),
        (S, "StateSpace.site_occupancy", "statespace.site_occupancy", None),
        (S, "StateSpace.inside_counts", "statespace.inside_counts", None),
        (G, "assemble_environment", "generator.assemble_environment", _ann_nnz),
        (G, "assemble_tagged", "generator.assemble_tagged", _ann_nnz),
        (G, "full_generator", "generator.full_generator", None),
        (G, "symmetric_part", "generator.symmetric_part", None),
        (G, "adjoint", "generator.adjoint", None),
        (G, "check_ergodicity", "generator.check_ergodicity", None),
        (G, "check_stationarity", "generator.check_stationarity", None),
        (G, "dirichlet_form", "generator.dirichlet_form", None),
        (G, "SparseOperator.matvec", "generator.matvec", _ann_matvec),
        (G, "SparseOperator.is_symmetric", "generator.is_symmetric", None),
        (G, "SparseOperator.to_dense", "generator.to_dense", None),
        (G, "SparseOperator.to_csr", "generator.to_csr", None),
        (O, "solve_spd", "sobolev.solve_spd", _ann_solve),
        (O, "solve_general", "sobolev.solve_general", _ann_solve),
        (O, "resolvent_solve", "sobolev.resolvent_solve", _ann_solve),
        (O, "resolvent_sweep", "sobolev.resolvent_sweep", None),
        (O, "hminus1_norm", "sobolev.hminus1_norm", None),
        (O, "h1_norm", "sobolev.h1_norm", None),
        (O, "spectral_gap", "sobolev.spectral_gap", None),
        (O, "sector_constant", "sobolev.sector_constant", None),
        (O, "approximation_residual", "sobolev.approximation_residual", None),
        (O, "verify_prop1", "sobolev.verify_prop1", None),
        (D, "compute_D", "diffusion.compute_D", _ann_directions),
        (D, "compute_D_matrix", "diffusion.compute_D_matrix", _ann_directions),
        (D, "sweep", "diffusion.sweep", None),
        (D, "local_drift_functions", "diffusion.local_drift_functions", None),
        (D, "conditional_expectation", "diffusion.conditional_expectation", None),
        (D, "multiscale_diagnostic", "diffusion.multiscale_diagnostic", None),
        (D, "occupancy_observable", "diffusion.occupancy_observable", None),
        (D, "occupancy_difference_observable",
         "diffusion.occupancy_difference_observable", None),
        (D, "hminus1_convergence_diagnostic",
         "diffusion.hminus1_convergence_diagnostic", None),
        (D, "approximation_residual_diagnostic",
         "diffusion.approximation_residual_diagnostic", None),
        (C, "TransitionTable.__init__", "montecarlo.transition_table", None),
        (C, "simulate", "montecarlo.simulate", _ann_replica),
        (C, "estimate_diffusion", "montecarlo.estimate_diffusion", _ann_estimate),
        (C, "arbitrate_sign", "montecarlo.arbitrate_sign", None),
        (L, "main", "cli.main", None),
    ]


# -- recording ----------------------------------------------------------------

class Tracer:
    """In-memory span store for one traced command.

    A span is the list ``[id, parent, name, start, end, thread, run_id,
    attrs]``; a call that raised gets ``{"raised": 1}`` as attrs. A span opened in a worker thread with no open span of its own gets the
    main thread's innermost open span as its parent.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.absent = []
        self._ids = iter(range(1, 1 << 62))
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name, fn, annotate):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            sid = next(tracer._ids)
            stack.append(sid)
            attrs = {"raised": 1}
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                attrs = None
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if attrs is None:
                    attrs = annotate(fn, args, kwargs, result) if annotate else {}
                tracer.spans.append([sid, parent, name, t0, t1,
                                     threading.get_ident(), tracer.run_id,
                                     attrs])
            return result

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "absent": self.absent,
                       "spans": self.spans}, fh)


def _resolve(module, path):
    """(owner, attribute name, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    attr = parts[-1]
    orig = owner.__dict__.get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if orig is None or not callable(orig):
        return None
    return owner, attr, orig


def install(tracer, table=None):
    """Wrap every target; returns the span names whose target is absent."""
    importlib.import_module("sepdiff")
    for module, path, name, annotate in (table or targets()):
        found = _resolve(module, path)
        if found is None:
            tracer.absent.append(name)
            continue
        owner, attr, orig = found
        traced = tracer.wrap(name, orig, annotate)
        setattr(owner, attr, traced)
        if isinstance(owner, type):
            continue
        for mod in list(sys.modules.values()):
            mname = getattr(mod, "__name__", "")
            if mname != "sepdiff" and not mname.startswith("sepdiff."):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, traced)
    return tracer.absent


# -- analysis -----------------------------------------------------------------

def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals
    (clipped to the span), so overlapping worker-thread children are not
    subtracted twice."""
    children = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[3], s[4]))
    out = {}
    for s in spans:
        t0, t1 = s[3], s[4]
        covered, reached = 0.0, t0
        for lo, hi in sorted(children.get(s[0], ())):
            lo, hi = max(lo, reached), min(hi, t1)
            if hi > lo:
                covered += hi - lo
                reached = hi
        out[s[0]] = (t1 - t0) - covered
    return out


_SOLVES = ("sobolev.solve_spd", "sobolev.solve_general",
           "sobolev.resolvent_solve")
LAYERS = ("statespace", "generator", "sobolev", "diffusion", "montecarlo",
          "cli")

#: per-layer metric -> span names it is derived from (absent if all are)
SOURCES = {
    "statespace.states": ["statespace.enumerate"],
    "statespace.enumerate_s": ["statespace.enumerate"],
    "statespace.occupancy_s": ["statespace.site_occupancy",
                               "statespace.inside_counts"],
    "generator.env_assembly_s": ["generator.assemble_environment"],
    "generator.tagged_assembly_s": ["generator.assemble_tagged"],
    "generator.nnz": ["generator.assemble_environment",
                      "generator.assemble_tagged"],
    "generator.assembly_nnz_per_s": ["generator.assemble_environment",
                                     "generator.assemble_tagged"],
    "generator.symchecks": ["generator.is_symmetric"],
    "generator.symcheck_s": ["generator.is_symmetric"],
    "generator.matvecs": ["generator.matvec"],
    "generator.matvec_s": ["generator.matvec"],
    "generator.matvec_gb_computed": ["generator.matvec"],
    "sobolev.solves": list(_SOLVES),
    "sobolev.solve_self_s": ["sobolev.solve_spd", "sobolev.solve_general"],
    "sobolev.iterations": list(_SOLVES),
    "sobolev.max_residual": list(_SOLVES),
    "sobolev.dense_fallbacks": ["sobolev.solve_spd", "sobolev.solve_general"],
    "sobolev.spectral_s": ["sobolev.spectral_gap", "sobolev.sector_constant"],
    "sobolev.resolvent_s": ["sobolev.resolvent_solve",
                            "sobolev.resolvent_sweep"],
    "diffusion.directions": ["diffusion.compute_D", "diffusion.compute_D_matrix"],
    "diffusion.drift_obs_s": ["diffusion.local_drift_functions"],
    "diffusion.block_projection_s": ["diffusion.conditional_expectation",
                                     "diffusion.multiscale_diagnostic"],
    "montecarlo.table_builds": ["montecarlo.transition_table"],
    "montecarlo.table_build_s": ["montecarlo.transition_table"],
    "montecarlo.replica_s": ["montecarlo.simulate"],
    "montecarlo.replica_p99_ms": ["montecarlo.simulate"],
    "montecarlo.loop_events_per_s": ["montecarlo.simulate",
                                     "montecarlo.estimate_diffusion"],
    "montecarlo.events_computed": ["montecarlo.estimate_diffusion"],
    "montecarlo.tagged_jumps": ["montecarlo.simulate"],
    "montecarlo.rate_1w": ["montecarlo.estimate_diffusion"],
    "montecarlo.rate_2w": ["montecarlo.estimate_diffusion"],
    "montecarlo.scaling_2w": ["montecarlo.estimate_diffusion"],
}
for _layer in LAYERS:
    SOURCES[f"{_layer}.self_s"] = [
        t[2] for t in targets() if t[2].startswith(_layer + ".")]


def _percentile(values, q):
    """Nearest-rank percentile (q in (0, 100])."""
    v = sorted(values)
    return v[max(0, math.ceil(q / 100.0 * len(v)) - 1)]


def layer_metrics(commands, n_ops):
    """Per-layer metrics, per operation, from the traced commands.

    ``commands`` is a list of dicts with ``spans`` (span lists) and
    ``absent`` (span names whose target is gone). Returns ``(metrics,
    absent, not_called)``: metric name -> value, and the metric names whose
    sources are absent or were never called on this workload (both read 0).
    """
    total = {}                    # span name -> summed self time
    calls = {}                    # span name -> call count
    attrs = {}                    # span name -> list of attr dicts
    replica_ms = []
    per_threads = {}              # threads -> [events, wall of estimate, replica s]
    absent_names = set()
    for cmd in commands:
        spans = cmd["spans"]
        absent_names.update(cmd["absent"])
        selfs = self_times(spans)
        by_id = {s[0]: s for s in spans}
        sims, estimates = {}, []
        for s in spans:
            name = s[2]
            total[name] = total.get(name, 0.0) + selfs[s[0]]
            calls[name] = calls.get(name, 0) + 1
            a = dict(s[7])
            if name in _SOLVES:
                a["name"] = name
                p, top = s[1], True
                while p is not None:
                    if by_id[p][2] in _SOLVES:
                        top = False
                        break
                    p = by_id[p][1]
                a["top"] = top
            attrs.setdefault(name, []).append(a)
            if name == "montecarlo.simulate":
                replica_ms.append(1e3 * (s[4] - s[3]))
                sims[s[1]] = sims.get(s[1], 0.0) + (s[4] - s[3])
            elif name == "montecarlo.estimate_diffusion" and "events" in a:
                estimates.append(s)
        for s in estimates:
            acc = per_threads.setdefault(s[7]["threads"], [0.0, 0.0, 0.0])
            acc[0] += s[7]["events"]
            acc[1] += s[4] - s[3]
            acc[2] += sims.get(s[0], 0.0)

    def t(*names):
        return sum(total.get(n, 0.0) for n in names) / n_ops

    def n(*names):
        return sum(calls.get(n, 0) for n in names) / n_ops

    def attr_sum(key, *names):
        return sum(a.get(key, 0) for nm in names for a in attrs.get(nm, ())) \
            / n_ops

    top_solves = [a for nm in _SOLVES for a in attrs.get(nm, ()) if a["top"]]
    one = per_threads.get(1)
    multi = [v for k, v in per_threads.items() if k > 1]
    rate_1w = one[0] / one[1] if one and one[1] > 0 else 0.0
    rate_2w = multi[0][0] / multi[0][1] if multi and multi[0][1] > 0 else 0.0
    asm_s = t("generator.assemble_environment", "generator.assemble_tagged")
    nnz = attr_sum("nnz", "generator.assemble_environment",
                   "generator.assemble_tagged")
    m = {
        "statespace.states": attr_sum("states", "statespace.enumerate"),
        "statespace.enumerate_s": t("statespace.enumerate"),
        "statespace.occupancy_s": t("statespace.site_occupancy",
                                    "statespace.inside_counts"),
        "generator.env_assembly_s": t("generator.assemble_environment"),
        "generator.tagged_assembly_s": t("generator.assemble_tagged"),
        "generator.nnz": nnz,
        "generator.assembly_nnz_per_s": nnz / asm_s if asm_s > 0 else 0.0,
        "generator.symchecks": n("generator.is_symmetric"),
        "generator.symcheck_s": t("generator.is_symmetric"),
        "generator.matvecs": n("generator.matvec"),
        "generator.matvec_s": t("generator.matvec"),
        "generator.matvec_gb_computed":
            attr_sum("bytes", "generator.matvec") / 1e9,
        "sobolev.solves": len(top_solves) / n_ops,
        "sobolev.solve_self_s": t("sobolev.solve_spd", "sobolev.solve_general"),
        "sobolev.iterations":
            sum(a["iterations"] for a in top_solves) / n_ops,
        "sobolev.max_residual":
            max((a["residual"] for a in top_solves), default=0.0),
        "sobolev.dense_fallbacks": sum(
            1 for a in top_solves
            if a["name"] != "sobolev.resolvent_solve" and a["n"] > 1
            and a["method"] == "dense" and a["asked"] != "dense") / n_ops,
        "sobolev.spectral_s": t("sobolev.spectral_gap",
                                "sobolev.sector_constant"),
        "sobolev.resolvent_s": t("sobolev.resolvent_solve",
                                 "sobolev.resolvent_sweep"),
        "diffusion.directions": attr_sum("directions", "diffusion.compute_D",
                                         "diffusion.compute_D_matrix"),
        "diffusion.drift_obs_s": t("diffusion.local_drift_functions"),
        "diffusion.block_projection_s": t("diffusion.conditional_expectation",
                                          "diffusion.multiscale_diagnostic"),
        "montecarlo.table_builds": n("montecarlo.transition_table"),
        "montecarlo.table_build_s": t("montecarlo.transition_table"),
        "montecarlo.replica_s": sum(replica_ms) / 1e3 / n_ops,
        "montecarlo.replica_p99_ms":
            _percentile(replica_ms, 99) if replica_ms else 0.0,
        "montecarlo.loop_events_per_s":
            one[0] / one[2] if one and one[2] > 0 else 0.0,
        "montecarlo.events_computed":
            sum(v[0] for v in per_threads.values()) / n_ops,
        "montecarlo.tagged_jumps": attr_sum("jumps", "montecarlo.simulate"),
        "montecarlo.rate_1w": rate_1w,
        "montecarlo.rate_2w": rate_2w,
        "montecarlo.scaling_2w": rate_2w / rate_1w if rate_1w > 0 else 0.0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in total.items()
                                   if k.startswith(layer + ".")) / n_ops
    absent = sorted(k for k, src in SOURCES.items()
                    if all(s in absent_names for s in src))
    not_called = sorted(k for k, src in SOURCES.items()
                        if k not in absent and not any(calls.get(s) for s in src))
    if not multi:
        not_called = sorted(set(not_called) | {"montecarlo.rate_2w",
                                               "montecarlo.scaling_2w"})
    return m, absent, not_called
