"""Span tracing of plurimean's public functions, installed from outside.

The tracer replaces each traced function at every name it is bound under
inside the ``plurimean`` package (``forms.eval_jet`` as well as
``chartcalc.eval_jet``, ``kernels.gauss_curvature_numpy`` as well as
``kernels.gauss_curvature``) and each check body in
``pipeline.CHECKS``.  A wrapper records a span: name, start, end and the
index of the enclosing span.  ``restore`` puts every original back.

A layer is the module part of a span name.  A span's self time is its
duration minus the durations of its direct children; the self times of
all spans in an interval plus the time no span covers
(``unattributed_s``) add up to the interval.
"""

import functools
import hashlib
import os
import sys
import time

from spec import CHECKS, FIXTURES, LAYERS, PER_LAYER

# module -> public functions timed as spans
TARGETS = {
    "cli": ("main",),
    "fixtures": ("registry", "get_fixture", "get_immersion"),
    "chartcalc": ("eval_jet", "fd_jet_oracle"),
    "forms": ("compute_geometry",),
    "kaehler": ("metric_data", "normal_frame", "curvature_from_gauss"),
    "kernels": ("gauss_curvature", "christoffel", "gauss_residual"),
    "gaussmaps": ("bundle_projectors", "projector_derivatives",
                  "dgauss_check"),
    "family": ("integrate_family", "structure_equation_residuals",
               "rigid_match", "build_psi", "closedness_residual"),
    "flags": ("grade", "generation_check", "cartan_split",
              "bracket_grading_residual", "split_two_complex_structures"),
    "pipeline": ("run",),
    "report": ("render_report", "write_mesh", "write_sweep_csv"),
}

F64 = 8  # bytes per float64


# ------------------------------------------------ computed kernel counts
# Counts follow from the array shapes of the arguments and result; they
# are the work the kernels' formulas imply, not hardware counters.

def _gauss_curvature_counts(args, out):
    G, d, _, n = args[0].shape
    # two contractions over n (multiply + add each) and one subtraction
    flops = 4 * G * d**4 * n + G * d**4
    return flops, F64 * (args[0].size + G * d**4)


def _christoffel_counts(args, out):
    dg, ginv = args[0], args[1]
    G, d = dg.shape[0], dg.shape[1]
    # two adds to symmetrize, a d-term contraction, the factor 1/2
    flops = 2 * G * d**3 + 2 * G * d**4 + G * d**3
    return flops, F64 * (dg.size + ginv.size + out.size)


def _gauss_residual_counts(args, out):
    R, alpha = args[0], args[1]
    G, d, _, n = alpha.shape
    # the curvature of alpha_theta, then |R - rhs| and the running max
    flops = 4 * G * d**4 * n + G * d**4 + 3 * G * d**4
    return flops, F64 * (R.size + alpha.size)


KERNEL_COUNTS = {
    "kernels.gauss_curvature": _gauss_curvature_counts,
    "kernels.christoffel": _christoffel_counts,
    "kernels.gauss_residual": _gauss_residual_counts,
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None

    def as_list(self):
        return [self.name, self.parent, self.start, self.end, self.info]


class Tracer:
    """Records spans of wrapped plurimean functions, one thread only."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans = []
        self._stack = []
        self._saved = []   # (namespace dict, key, original) for restore

    # -------------------------------------------------------- recording

    def _info(self, name, args):
        """Input-side counters, taken before the span starts."""
        if name in ("chartcalc.eval_jet", "forms.compute_geometry"):
            imm, pts = args[0], args[1]
            info = {"points": int(len(pts))}
            if name == "forms.compute_geometry":
                h = hashlib.blake2b(pts.tobytes(), digest_size=16)
                h.update(imm.name.encode())
                info["key"] = h.hexdigest()
            return info
        if name == "flags.grade":
            return {"algebra_dim": int(args[0].algebra_dim)}
        return None

    def _wrap(self, name, fn):
        tracer = self
        counts = KERNEL_COUNTS.get(name)
        is_mesh = name == "report.write_mesh"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, tracer._stack[-1] if tracer._stack else None)
            span.info = tracer._info(name, args)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = tracer.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                tracer._stack.pop()
            if counts is not None:
                flops, nbytes = counts(args, out)
                span.info = {"flops": flops, "bytes": nbytes}
            elif is_mesh:
                span.info = {"bytes": os.path.getsize(args[0])}
            return out

        return traced

    # ----------------------------------------------------- installation

    def install(self):
        """Wrap every target at every name bound to it in the package."""
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None
                and (k == "plurimean" or k.startswith("plurimean."))]
        for modname, fnames in TARGETS.items():
            mod = sys.modules[f"plurimean.{modname}"]
            for fname in fnames:
                orig = getattr(mod, fname)
                wrapped = self._wrap(f"{modname}.{fname}", orig)
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._replace(vars(m), key, wrapped)
        checks = sys.modules["plurimean.pipeline"].CHECKS
        for key, fn in list(checks.items()):
            self._replace(checks, key, self._wrap(f"pipeline.check.{key}", fn))

    def _replace(self, namespace, key, wrapped):
        self._saved.append((namespace, key, namespace[key]))
        namespace[key] = wrapped

    def restore(self):
        for namespace, key, orig in reversed(self._saved):
            namespace[key] = orig
        self._saved.clear()

    def take(self):
        """Return the recorded spans as plain lists and start afresh."""
        out = [s.as_list() for s in self.spans]
        self.spans = []
        return out


# ---------------------------------------------------------- aggregation

def attribute(spans, start, end):
    """Per-name and per-layer figures for spans inside [start, end].

    spans: lists [name, parent, start, end, info] whose parent indices
    refer to positions in the same list.
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, parent, s, e, _ in spans:
        if parent is not None:
            child_time[parent] += e - s
    by_name = {}
    layers = {k: 0.0 for k in LAYERS}
    for i, (name, parent, s, e, info) in enumerate(spans):
        dur = e - s
        self_s = dur - child_time[i]
        layers[name.split(".", 1)[0]] += self_s
        rec = by_name.setdefault(name, {
            "busy_s": 0.0, "self_s": 0.0, "calls": 0, "points": 0,
            "flops": 0, "bytes": 0, "keys": set(), "algebra_dim": 0})
        rec["calls"] += 1
        rec["self_s"] += self_s
        # a recursive call is already inside its caller's busy time
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][1]
        if p is None:
            rec["busy_s"] += dur
        if info:
            for key in ("points", "flops", "bytes", "algebra_dim"):
                rec[key] += info.get(key, 0)
            if "key" in info:
                rec["keys"].add(info["key"])
    covered = sum(layers.values())
    return {"by_name": by_name, "layers": layers,
            "unattributed_s": (end - start) - covered,
            "wall_s": end - start}


def layer_values(agg, setup, check_busy, counts):
    """Every per-layer metric of one traced iteration.

    agg: attribute() of the iteration's spans; setup: {"import_s",
    "build": {fixture: s}} of the process; check_busy: {check: summed
    CheckResult.runtime}; counts: {"errors", "mismatches", "skipped"}.
    trace.overhead_s needs the untraced runs and is left to the caller.
    """
    by = agg["by_name"]
    v = {"import.busy_s": setup["import_s"],
         "fixtures.build_s": sum(setup["build"].values(), 0.0)}
    for f in FIXTURES:
        v[f"fixtures.build.{f}_s"] = setup["build"].get(f, 0.0)
    for c in CHECKS:
        v[f"pipeline.check.{c}.busy_s"] = check_busy.get(c, 0.0)
        v[f"pipeline.check.{c}.self_s"] = by.get(
            f"pipeline.check.{c}", {}).get("self_s", 0.0)
    for key in ("errors", "mismatches", "skipped"):
        v[f"pipeline.{key}"] = counts.get(key, 0)
    for layer in LAYERS:
        v[f"layer.{layer}.self_s"] = agg["layers"][layer]
    geom = by.get("forms.compute_geometry")
    v["forms.compute_geometry.distinct_ratio"] = \
        len(geom["keys"]) / geom["calls"] if geom else 0.0
    grade = by.get("flags.grade", {})
    v["flags.elements"] = grade.get("calls", 0)
    v["flags.algebra_dim_sum"] = grade.get("algebra_dim", 0)
    v["unattributed_s"] = agg["unattributed_s"]
    v["trace.wall_s"] = agg["wall_s"]
    for name, _, _ in PER_LAYER:
        if name not in v and name != "trace.overhead_s":
            fn, _, key = name.rpartition(".")
            v[name] = by.get(fn, {}).get(key, 0)
    return v
