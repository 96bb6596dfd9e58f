"""Spans around the library's public entry points, installed from outside.

The wrappers are attached to the imported `nekrasov` modules (and to the
scipy LAPACK/FFT entry points the library calls) for one traced run and
removed afterwards, so untraced runs execute unmodified library code and no
file under `src/` carries tracing code.

A span is `[name, start, end, parent, ok]`: times from `perf_counter`, the
index of the enclosing span (-1 at the root) and whether the call returned.
The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

# layers whose self time is reported; every workload reports every metric,
# zero where it does not reach a layer
LAYERS = ("solver", "grid", "continuation", "series", "profile", "graded",
          "extreme", "io")


class Tracer:
    """In-memory span recorder with counters taken at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def in_layer(self, layer: str) -> bool:
        prefix = layer + "."
        return any(self.spans[i][0].startswith(prefix) for i in self._stack)

    def wrap(self, name, func, on_result=None, on_error=None):
        """Return func recorded as a span; `name` may be a callable of the
        call's (args, kwargs) returning the span name."""
        tracer = self
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            index = len(spans)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1, True])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                spans[index][2] = clock()
                spans[index][4] = False
                if on_error is not None:
                    on_error(tracer, args, kwargs, exc)
                raise
            finally:
                stack.pop()
            spans[index][2] = clock()
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return traced


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        # vars() gives the raw class attribute (a property, not its value)
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def function(self, func, wrapper) -> None:
        """Replace func in every nekrasov module that bound it by name."""
        for name, module in list(sys.modules.items()):
            if name == "nekrasov" or name.startswith("nekrasov."):
                for attr, value in list(vars(module).items()):
                    if value is func:
                        self.set(module, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _lazy_property(tracer: Tracer, name: str, prop: property, slot: str) -> property:
    """A cached property whose first (building) access is a span."""
    build = tracer.wrap(name, prop.fget)

    def get(self):
        return build(self) if getattr(self, slot) is None else prop.fget(self)

    return property(get, doc=prop.__doc__)


def install(tracer: Tracer) -> Patches:
    """Attach spans to the layers; call `restore()` on the result to remove them."""
    import scipy.fft
    import scipy.linalg
    from scipy.sparse.linalg import LinearOperator

    from nekrasov import _graded, continuation, extreme, grid, io, profile, series, solver

    patches = Patches()
    wrap = tracer.wrap

    def solve_name(args, kwargs):
        method = kwargs.get("method", args[2] if len(args) > 2 else "newton")
        return {"newton": "solver.solve_dense",
                "newton_krylov": "solver.solve_krylov"}.get(method, "solver.solve_other")

    def count_iterations(t, args, kwargs, result):
        t.counts["solver.newton_iterations"] += result.iterations

    def count_failed_iterations(t, args, kwargs, exc):
        t.counts["solver.newton_iterations"] += getattr(exc, "iterations", 0)

    patches.function(solver.solve, wrap(solve_name, solver.solve, count_iterations,
                                        count_failed_iterations))
    patches.function(solver.get_operator, wrap("solver.get_operator", solver.get_operator))
    op_class = solver.NekrasovOperator
    patches.set(op_class, "__init__", wrap("solver.operator_build", op_class.__init__))
    patches.set(op_class, "apply", wrap("solver.apply", op_class.apply))
    patches.set(op_class, "jacobian_dense",
                wrap("solver.jacobian_dense", op_class.jacobian_dense))
    for attr in ("b_dense", "w_dense"):
        patches.set(op_class, attr, _lazy_property(
            tracer, "solver.dense_matrix_build", vars(op_class)[attr], "_" + attr))

    jacobian_operator = op_class.jacobian_operator

    def traced_jacobian_operator(self, values, mu):
        jac = jacobian_operator(self, values, mu)
        return LinearOperator(jac.shape, matvec=wrap("solver.matvec", jac.matvec),
                              dtype=jac.dtype)

    patches.set(op_class, "jacobian_operator", traced_jacobian_operator)

    # dense LU solves are attributed to the layer that asked for them
    def linear_solve_name(args, kwargs):
        for layer in ("solver", "graded"):
            if tracer.in_layer(layer):
                return layer + ".linear_solve"
        return "other.linear_solve"

    patches.set(scipy.linalg, "solve", wrap(linear_solve_name, scipy.linalg.solve))
    patches.set(scipy.fft, "dst", wrap("grid.dst", scipy.fft.dst))
    patches.set(scipy.fft, "dct", wrap("grid.dst", scipy.fft.dct))
    patches.set(grid.AngleField, "sup_norm", wrap("grid.sup_norm", grid.AngleField.sup_norm))

    def count_points(t, args, kwargs, branch):
        t.counts["continuation.points"] += len(branch.points)

    patches.function(continuation.trace_branch,
                     wrap("continuation.trace_branch", continuation.trace_branch,
                          count_points))
    patches.function(continuation._converge_resolved,
                     wrap("continuation.converge", continuation._converge_resolved))
    patches.function(continuation._corrector,
                     wrap("continuation.corrector", continuation._corrector))
    patches.function(continuation.cone_membership,
                     wrap("continuation.cone", continuation.cone_membership))

    patches.function(series.expand_solution, wrap("series.expand", series.expand_solution))
    patches.function(profile.reconstruct_profile,
                     wrap("profile.reconstruct", profile.reconstruct_profile))
    patches.function(profile.profile_from_map_coefficients,
                     wrap("profile.map_route", profile.profile_from_map_coefficients))

    graded_class = _graded.GradedCollocation
    patches.set(graded_class, "weights", _lazy_property(
        tracer, "graded.weights", vars(graded_class)["weights"], "_weights"))

    def count_graded_iterations(t, args, kwargs, result):
        t.counts["graded.newton_iterations"] += result.iterations

    patches.set(graded_class, "solve",
                wrap("graded.newton", graded_class.solve, count_graded_iterations))
    patches.function(extreme.solve_extreme,
                     wrap("extreme.solve_extreme", extreme.solve_extreme))
    patches.function(extreme.stokes_limit, wrap("extreme.fit", extreme.stokes_limit))
    patches.function(extreme.fit_asymptotics, wrap("extreme.fit", extreme.fit_asymptotics))

    def count_bytes(t, args, kwargs, result):
        t.counts["io.bytes_written"] += os.path.getsize(args[0])

    for writer in (io.write_json, io.write_csv):
        patches.function(writer, wrap("io.write", writer, count_bytes))
    return patches


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer counts and times of one traced workload run.

    `trace.unattributed_s` is the part of the workload's wall time that no
    root span covers; `trace.overhead_s` needs an untraced run and is added
    by the caller.
    """
    spans = tracer.spans
    time_by: Counter = Counter()
    calls_by: Counter = Counter()
    failed_by: Counter = Counter()
    self_by_layer: Counter = Counter()
    nested_calls: Counter = Counter()  # keyed by (parent name, child name)
    nested_time: Counter = Counter()
    for (name, start, end, parent, ok), own in zip(spans, self_times(spans)):
        time_by[name] += end - start
        calls_by[name] += 1
        failed_by[name] += not ok
        self_by_layer[name.split(".", 1)[0]] += own
        if parent >= 0:
            nested_calls[spans[parent][0], name] += 1
            nested_time[spans[parent][0], name] += end - start
    builds_on_lookup = nested_calls["solver.get_operator", "solver.operator_build"]
    lookups = calls_by["solver.get_operator"]
    counts = tracer.counts

    metrics = {
        "solver.solves_dense": calls_by["solver.solve_dense"],
        "solver.solves_krylov": calls_by["solver.solve_krylov"],
        "solver.newton_iterations": counts["solver.newton_iterations"],
        "solver.krylov_matvecs": calls_by["solver.matvec"],
        "solver.apply_calls": calls_by["solver.apply"],
        "solver.operator_builds": calls_by["solver.operator_build"],
        "solver.operator_hit_ratio": (lookups - builds_on_lookup) / lookups if lookups else 0.0,
        "solver.dense_matrix_builds": calls_by["solver.dense_matrix_build"],
        "solver.failed_solves": sum(failed_by[n] for n in (
            "solver.solve_dense", "solver.solve_krylov", "solver.solve_other")),
        "solver.dense_solve_s": time_by["solver.solve_dense"],
        "solver.krylov_solve_s": time_by["solver.solve_krylov"],
        "solver.jacobian_dense_s": time_by["solver.jacobian_dense"],
        "solver.linear_solve_s": time_by["solver.linear_solve"],
        "solver.matvec_s": time_by["solver.matvec"],
        "solver.apply_s": time_by["solver.apply"],
        "grid.dst_calls": calls_by["grid.dst"],
        "grid.dst_s": time_by["grid.dst"],
        "grid.sup_norm_s": time_by["grid.sup_norm"],
        "continuation.points": counts["continuation.points"],
        "continuation.corrector_solves": calls_by["continuation.corrector"],
        "continuation.refinements": (calls_by["continuation.corrector"]
                                     - calls_by["continuation.converge"]),
        "continuation.rejected_steps": failed_by["continuation.converge"],
        "continuation.cone_s": time_by["continuation.cone"],
        "series.expand_calls": calls_by["series.expand"],
        "series.expand_s": time_by["series.expand"],
        "profile.reconstruct_s": time_by["profile.reconstruct"],
        "profile.map_route_s": time_by["profile.map_route"],
        "graded.weights_s": time_by["graded.weights"],
        # the Newton iterations alone: the first weight assembly happens
        # inside the first solve and is reported on its own
        "graded.newton_s": time_by["graded.newton"] - nested_time["graded.newton", "graded.weights"],
        "graded.newton_iterations": counts["graded.newton_iterations"],
        "graded.linear_solve_s": time_by["graded.linear_solve"],
        "extreme.fit_s": time_by["extreme.fit"],
        "io.write_s": time_by["io.write"],
        "io.bytes_written": counts["io.bytes_written"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_by_layer[layer]
    roots = sum(end - start for _, start, end, parent, _ in spans if parent < 0)
    metrics["trace.unattributed_s"] = wall_s - roots
    return metrics
