"""Spans around fkdv's public functions, recorded from outside the package.

``install`` replaces module attributes of ``fkdv`` with wrappers that record
one span per call: metric name, start, end, parent span and op id, plus a few
counts taken from the arguments.  Callers inside the package look these
names up at call time (``evolve`` calls ``orbital_distance``, ``build_profile``
calls ``jacobi_cn`` through ``waves``), so the spans nest and each layer's
self time (its duration minus its children's) separates.  Spans stay in
memory; ``layer_metrics`` reduces them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
import tracemalloc


def _points(args, kwargs):
    z = args[0] if args else kwargs.get("z")
    return {"points": int(getattr(z, "size", 1))}


def _evolve_steps(args, kwargs):
    # evolve advances ceil((t_end - t0)/dt) fixed steps of the given dt
    state = args[0] if args else kwargs["state"]
    t_end = args[1] if len(args) > 1 else kwargs["t_end"]
    dt = args[2] if len(args) > 2 else kwargs.get("dt")
    attrs = {"grid_n": int(state.grid_n)}
    if dt:
        attrs["steps"] = max(1, math.ceil((t_end - state.time) / dt - 1e-12))
    return attrs


def _pf2_minors(args, kwargs):
    window = args[1] if len(args) > 1 else kwargs.get("window", 12)
    pairs = (2 * window + 1) * (2 * window) // 2
    return {"minors": pairs * pairs}


# (module in fkdv, attribute path, metric, argument counts, measure memory)
WRAPS = (
    ("elliptic", "EllipticContext.from_modulus", "elliptic.from_modulus", None, False),
    ("elliptic", "jacobi_cn", "elliptic.jacobi_cn", _points, False),
    ("waves", "jacobi_cn", "elliptic.jacobi_cn", _points, False),
    ("waves", "build_profile", "waves.build_profile", None, False),
    ("waves", "conservation_residuals", "waves.conservation_residuals", None, False),
    ("fourier", "cn2_coeffs", "fourier.analytic_coeffs", None, False),
    ("fourier", "cn4_coeffs_halfmodulus", "fourier.analytic_coeffs", None, False),
    ("fourier", "dft_coeffs", "fourier.dft_coeffs", None, False),
    ("fourier", "pf2_check", "fourier.pf2_check", _pf2_minors, True),
    ("stability", "cn2_norm_derivative", "stability.cn2_norm_derivative", None, False),
    ("stability", "cn4_norm_derivative", "stability.cn4_norm_derivative", None, False),
    ("stability", "solve_flux_for_wavelength", "stability.solve_flux_for_wavelength",
     None, False),
    ("stability", "gegenbauer_verdict", "stability.gegenbauer_verdict", None, False),
    ("pde", "stability_experiment", "pde.stability_experiment", None, False),
    ("pde", "evolve", "pde.evolve", _evolve_steps, False),
    ("pde", "orbital_distance", "pde.orbital_distance", None, False),
)
CLI_WRAP = ("cli", "main", "cli.main", None, False)


class Tracer:
    """In-memory span list; a span is [metric, start, end, parent, op, attrs]."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def wrap(self, metric, fn, counts=None, memory=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = counts(args, kwargs) if counts else {}
            span = [metric, 0.0, 0.0, stack[-1] if stack else None, self.op, attrs]
            stack.append(len(spans))
            spans.append(span)
            tracing_memory = memory and not tracemalloc.is_tracing()
            if tracing_memory:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                attrs["error"] = 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if tracing_memory:
                    attrs["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()

        return traced


def install(tracer, wraps=WRAPS):
    """Wrap every listed name that exists; return {metric: reason} for the rest."""
    found, missing = set(), {}
    for module_name, path, metric, counts, memory in wraps:
        where = f"fkdv.{module_name}.{path}"
        try:
            owner = importlib.import_module(f"fkdv.{module_name}")
            *parents, name = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            static = inspect.getattr_static(owner, name)
        except (ImportError, AttributeError):
            missing.setdefault(metric, []).append(where)
            continue
        if isinstance(static, classmethod):
            setattr(owner, name, classmethod(
                tracer.wrap(metric, static.__func__, counts, memory)))
        else:
            setattr(owner, name, tracer.wrap(metric, static, counts, memory))
        found.add(metric)
    return {metric: f"{', '.join(where)} not found"
            for metric, where in missing.items() if metric not in found}


def self_times(spans):
    child = [0.0] * len(spans)
    for metric, start, end, parent, op, attrs in spans:
        if parent is not None:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_metrics(spans, n_ops, op_seconds, count_ops):
    """Per-layer figures from one traced pass.

    ``*.self_ms`` is self time per op, averaged over the ``n_ops`` traced ops
    that took ``op_seconds`` in all.  Work counts (``calls``, ``points``,
    ``minors``, ``steps``) are totals over the ops in ``count_ops``, a fixed
    prefix of the op schedule, so they repeat exactly for a seed.  Errors
    count exceptions that leave a layer, over all traced ops.
    """
    selfs = self_times(spans)
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    steps_by_n, self_by_n = {}, {}
    diag_seconds = 0.0
    for span, own in zip(spans, selfs):
        metric, start, end, parent, op, attrs = span
        add(f"{metric}.self_ms", 1e3 * own / n_ops)
        if op in count_ops:
            add(f"{metric}.calls", 1)
            for key in ("points", "minors", "steps"):
                if key in attrs:
                    add(f"{metric}.{key}", attrs[key])
        if "peak_mb" in attrs:
            out[f"{metric}.peak_mb"] = max(out.get(f"{metric}.peak_mb", 0.0),
                                           attrs["peak_mb"])
        if metric == "pde.evolve" and "steps" in attrs:
            n = attrs["grid_n"]
            steps_by_n[n] = steps_by_n.get(n, 0) + attrs["steps"]
            self_by_n[n] = self_by_n.get(n, 0.0) + own
        if metric == "pde.orbital_distance":
            diag_seconds += end - start
        layer = metric.split(".")[0]
        add(f"{layer}.errors", 0)
        if attrs.get("error") and (parent is None
                                   or not spans[parent][0].startswith(layer + ".")):
            add(f"{layer}.errors", 1)
    for n, steps in steps_by_n.items():
        out[f"pde.evolve.us_per_step.N{n}"] = 1e6 * self_by_n[n] / steps
    out["pde.diag_share"] = diag_seconds / op_seconds if op_seconds > 0 else 0.0
    return out
