"""Measurement loop of the femchp benchmark: passes, metrics, environment.

A pass builds and classifies every mesh of a workload, then runs its ops
one after another (closed loop, one process, serial).  A run repeats
passes on the same inputs until its time is up.  Untraced passes give the
end-to-end metrics; traced passes wrap the layer entry points (see
tracer.py) and give the per-layer metrics.  Every pass of a run must
report the same counters, traced or not.

Every end-to-end time is normalised to a reference host speed by the
speed probe (probe.py), which samples the host's speed throughout the run,
and is then the median over the run's passes (for op latencies: each op's
median, then percentiles over the ops).  On a shared host the wall time
of the same pass swings by up to half between passes; the normalised time
follows the program's own cost.  The raw wall times are kept in the
record of the run.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from femchp import convex

from probe import SpeedProbe
from tracer import LAYERS, Tracer
from workloads import OpResult, build_meshes, build_workload, run_op

# untraced passes per run at least, so that the median and the best of
# them have several samples
MIN_PASSES = 3
# mesh resolution of the warm-up ops, run once before any timing
WARM_UP_SCALE = 3

END_TO_END = (
    ("setup_s", "s"), ("solve_s", "s"), ("verify_s", "s"), ("total_s", "s"),
    ("op_p95_ms", "ms"), ("peak_rss_mb", "MB"),
    ("converged_ratio", "ratio"),
)

# per-layer metric -> (unit, span whose wrapper it needs, or None)
PER_LAYER = {
    "mesh.construct_s": ("s", None),
    "mesh.classify_s": ("s", None),
    "mesh.vertices": ("count", None),
    "mesh.elements": ("count", None),
    "solver.factor_s": ("s", "solver.factor"),
    "solver.factor_attempts": ("count", "solver.factor"),
    "solver.factor_failures": ("count", "solver.factor"),
    "solver.factor_success_ratio": ("ratio", "solver.factor"),
    "solver.linsolve_s": ("s", "solver.linsolve"),
    "solver.assemble_hessian_s": ("s", "solver.assemble_hessian"),
    "solver.hessian_bytes_max": ("B", "solver.assemble_hessian"),
    "solver.minimize_self_s": ("s", None),
    "solver.oracle_s": ("s", None),
    "solver.iterations": ("count", None),
    "solver.newton_steps": ("count", None),
    "solver.gradient_steps": ("count", None),
    "solver.backtracks": ("count", None),
    "solver.step_accept_ratio": ("ratio", "energy.energy_value"),
    "energy.residual_calls": ("count", "energy.residual"),
    "energy.residual_s": ("s", "energy.residual"),
    "energy.energy_value_calls": ("count", "energy.energy_value"),
    "energy.energy_value_s": ("s", "energy.energy_value"),
    "field.element_gradients_calls": ("count", "field.element_gradients"),
    "field.element_gradients_s": ("s", "field.element_gradients"),
    "convex.finite_hull_calls": ("count", "convex.finite_hull"),
    "convex.finite_hull_s": ("s", "convex.finite_hull"),
    "convex.project_point_calls": ("count", "convex.project_point"),
    "convex.project_point_s": ("s", "convex.project_point"),
    "convex.project_field_s": ("s", "convex.project_field"),
    "convex.is_extreme_calls": ("count", "convex.is_extreme"),
    "convex.is_extreme_s": ("s", "convex.is_extreme"),
    "convex.worst_slack": ("1", None),
    "verify.chp_s": ("s", None),
    "verify.dmp_s": ("s", None),
    "verify.hull0_s": ("s", None),
    "verify.lemma_pos_s": ("s", None),
    "verify.strong_chp_s": ("s", None),
    "verify.beta_weights_calls": ("count", "verify.beta_weights"),
    "verify.beta_weights_s": ("s", "verify.beta_weights"),
    "trace.overhead_ratio": ("ratio", None),
    "trace.coverage": ("ratio", None),
    **{f"share.{layer}": ("ratio", None) for layer in LAYERS},
}


@dataclass
class Pass:
    """Figures of one pass over a workload."""

    t0: float
    total_s: float
    tracer: Tracer
    op_spans: list     # (start, end) of each op
    counts: dict
    attempted: int
    failed: int
    problems: list


def run_pass(specs, ops, traced: bool) -> Pass:
    """Build the meshes and run every op once; exceptions count as failures."""
    gc.collect()
    tracer = Tracer()
    if traced:
        tracer.install()
    try:
        convex.reset_certificate_stats()
        t0 = time.perf_counter()
        op_spans, problems = [], []
        try:
            meshes = build_meshes(specs, tracer)
        except Exception as exc:   # every op then fails on its missing mesh
            meshes = {}
            problems.append(f"mesh set-up: {type(exc).__name__}: {exc}")
        counts: dict = {}
        failed = 0
        for op in ops:
            t_op = time.perf_counter()
            try:
                res = run_op(op, meshes[op.mesh], tracer)
            except Exception as exc:   # one broken op must not end the run
                res = OpResult([f"{type(exc).__name__}: {exc}"], {})
            op_spans.append((t_op, time.perf_counter()))
            failed += bool(res.problems)
            problems += [f"{op.label}: {p}" for p in res.problems]
            for key, value in res.counts.items():
                counts[key] = counts.get(key, 0) + value
        total = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    stats = convex.certificate_stats()
    counts.update(projections=stats.projections, worst_slack=stats.worst_slack,
                  vertices=sum(m.num_vertices for m in meshes.values()),
                  elements=sum(m.num_elements for m in meshes.values()))
    return Pass(t0, total, tracer, op_spans, counts, len(ops), failed, problems)


def _warm_up(ops) -> None:
    """Run each kind of op once on tiny meshes so lazy imports finish."""
    seen = set()
    for op in ops:
        key = (op.energy, op.theorems, op.source, op.lumped_q, op.mesh[0])
        if key not in seen:
            seen.add(key)
            small = replace(op, mesh=(op.mesh[0], WARM_UP_SCALE))
            run_pass([small.mesh], [small], traced=False)


def normalised(p: Pass, probe: SpeedProbe) -> dict:
    """A pass's times at the reference host speed, in seconds."""
    def spans_s(prefix):
        return sum(probe.normalised_s(*span) for span in p.tracer.top_level(prefix))
    return {"setup_s": spans_s("mesh."), "solve_s": spans_s("solver."),
            "verify_s": spans_s("verify."),
            "total_s": probe.normalised_s(p.t0, p.t0 + p.total_s),
            "op_s": [probe.normalised_s(*span) for span in p.op_spans]}


def end_to_end(passes, probe: SpeedProbe) -> dict:
    norm = [normalised(p, probe) for p in passes]
    med = {key: statistics.median(n[key] for n in norm)
           for key in ("setup_s", "solve_s", "verify_s", "total_s")}
    op_ms = 1e3 * np.median([n["op_s"] for n in norm], axis=0)
    c = passes[0].counts
    values = {
        **med,
        "op_p95_ms": float(np.percentile(op_ms, 95)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "converged_ratio": c["converged"] / c["solves"] if c["solves"] else 1.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _layer_values(p: Pass, overhead_ratio: float) -> dict:
    s = p.tracer.summary()
    get = lambda name, key: s[name][key] if name in s else 0   # noqa: E731
    c = p.counts
    attempts = get("solver.factor", "calls")
    failures = get("solver.factor", "failures")
    energy_calls = get("energy.energy_value", "calls")
    values = {
        "mesh.construct_s": get("mesh.construct", "total_s"),
        "mesh.classify_s": get("mesh.classify", "total_s"),
        "mesh.vertices": c["vertices"],
        "mesh.elements": c["elements"],
        "solver.factor_s": get("solver.factor", "total_s"),
        "solver.factor_attempts": attempts,
        "solver.factor_failures": failures,
        "solver.linsolve_s": get("solver.linsolve", "total_s"),
        "solver.assemble_hessian_s": get("solver.assemble_hessian", "total_s"),
        "solver.hessian_bytes_max": p.tracer.hessian_bytes_max,
        "solver.minimize_self_s": get("solver.minimize", "self_s"),
        "solver.oracle_s": get("solver.oracle", "total_s"),
        "solver.iterations": c["iterations"],
        "solver.newton_steps": c["newton_steps"],
        "solver.gradient_steps": c["gradient_steps"],
        "solver.backtracks": c["backtracks"],
        "convex.worst_slack": c["worst_slack"],
        "trace.overhead_ratio": overhead_ratio,
    }
    if attempts:
        values["solver.factor_success_ratio"] = (attempts - failures) / attempts
    if energy_calls:
        values["solver.step_accept_ratio"] = (
            (c["newton_steps"] + c["gradient_steps"]) / energy_calls)
    # the remaining "<span>_s" and "<span>_calls" metrics read that span
    for metric in PER_LAYER:
        if metric in values:
            continue
        span, _, kind = metric.rpartition("_")
        if kind in ("s", "calls"):
            values[metric] = get(span, "total_s" if kind == "s" else "calls")
    values["trace.coverage"] = p.tracer.top_level_s("") / p.total_s
    for layer in LAYERS:
        values[f"share.{layer}"] = sum(
            row["self_s"] for name, row in s.items()
            if name.startswith(layer + ".")) / p.total_s
    return values


def per_layer(traced, untraced, probe: SpeedProbe) -> dict:
    """Medians over traced passes; metrics of absent wrappers are left out.

    Span times are wall times; only the tracing overhead compares the
    normalised totals of traced and untraced passes.
    """
    untraced_total = statistics.median(
        probe.normalised_s(p.t0, p.t0 + p.total_s) for p in untraced)
    rows = [_layer_values(p, probe.normalised_s(p.t0, p.t0 + p.total_s) / untraced_total)
            for p in traced]
    wrapped = traced[0].tracer.wrapped
    out = {}
    for metric, (unit, span) in PER_LAYER.items():
        if (span is not None and span not in wrapped) or any(metric not in r for r in rows):
            continue
        value = statistics.median(r[metric] for r in rows)
        out[metric] = {"value": round(value) if unit in ("count", "B") else value,
                       "unit": unit}
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: int | None = None):
    """Run one benchmark run; return (result line, full record)."""
    specs, ops = build_workload(workload, seed, scale)
    _warm_up(ops)
    untraced, traced = [], []
    t0 = time.perf_counter()
    # a traced run alternates untraced and traced passes; stop before a
    # round that would end past the deadline, once the minimum is done
    min_rounds = 1 if trace else MIN_PASSES
    with SpeedProbe() as probe:
        while True:
            untraced.append(run_pass(specs, ops, traced=False))
            if trace:
                traced.append(run_pass(specs, ops, traced=True))
            elapsed = time.perf_counter() - t0
            rounds = len(untraced)
            if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
                break
    passes = untraced + traced
    problems = [msg for p in passes for msg in p.problems]
    for p in passes[1:]:
        if p.counts != passes[0].counts:
            problems.append(f"pass counters differ: {p.counts} != {passes[0].counts}")
    metrics = per_layer(traced, untraced, probe) if trace else end_to_end(untraced, probe)
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(),
        "passes": [{"traced": bool(p.tracer.wrapped), "t0": p.t0,
                    "wall": {"total_s": p.total_s,
                             "setup_s": p.tracer.top_level_s("mesh."),
                             "solve_s": p.tracer.top_level_s("solver."),
                             "verify_s": p.tracer.top_level_s("verify."),
                             "op_ms": [1e3 * (b - a) for a, b in p.op_spans]},
                    "normalised": normalised(p, probe),
                    "kernel_s": probe.kernel_s(p.t0, p.t0 + p.total_s),
                    "counts": p.counts} for p in passes],
        "problems": problems[:50],
        "result": result,
        "probe": probe.to_json(),
    }
    if trace:
        record["spans"] = traced[-1].tracer.to_json()
    return result, record


# -- environment -------------------------------------------------------------


def _openblas_threads() -> dict:
    """Thread counts the loaded OpenBLAS libraries report, by package."""
    import ctypes
    import glob
    out = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "libscipy_openblas*.so"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[pkg.__name__] = int(fn())
                    break
    return out


def _git_commit(root: Path):
    """Commit of the checkout read from .git, or None outside a repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    root = Path(__file__).resolve().parent.parent
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "openblas_threads_reported": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "argv": sys.argv,
    }
