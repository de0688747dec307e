"""Per-layer tracing of hext from outside the package.

The tracer replaces public functions of hext's modules with wrappers while it
is installed, and puts the originals back when it is removed; nothing under
``src/`` is edited.  A function is replaced wherever hext holds a reference
to it: module globals (so ``from .x import f`` copies are caught), dict
values in module globals (the CLI's method table) and, for methods, every
name in the class that points at it (``__rmul__ = __mul__``).

Each wrapped call becomes a span ``[name, start, end, parent, call_id, info,
outermost]`` kept in memory; ``outermost`` is false when a span of the same
name is already open, so nested calls are not counted twice in a time.
Self time is a span's duration minus that of its direct children.  A few
very hot methods are counted without spans.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

INTEGRATE = "hext.profile_ode.integrate"
GRADED = "hext.graded_algebra"
CHERN = "hext.chern_futaki"


def _max_bits(cert, args, kwargs):
    bits = 0
    for claim in getattr(cert, "claims", ()):
        for x in (claim.lhs, claim.rhs):
            bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return bits


def _integrate_info(traj, args, kwargs):
    config = kwargs.get("config", args[2] if len(args) > 2 else None)
    default = getattr(sys.modules[INTEGRATE], "DEFAULT_CONFIG", None)
    return {"steps": int(traj.grid.size) - 1, "full": config is None or config == default}


def _solve_ivp_info(sol, args, kwargs):
    return {"nfev": int(sol.nfev), "steps": int(len(sol.t)) - 1}


def _shoot_info(res, args, kwargs):
    return {
        "m": res.m,
        "c_star": float(res.c_star),
        "defect": float(res.defect),
        "iterations": int(res.iterations),
        "scan_points": len(res.scan.points),
    }


def _scan_info(res, args, kwargs):
    return {
        "points": len(res.points),
        "failed": sum(1 for p in res.points if p.defect is None),
    }


# (span name, module, attribute path, summary of the return value)
SPANNED = [
    ("integrate_v", INTEGRATE, "integrate_v", _integrate_info),
    ("shoot", INTEGRATE, "shoot", _shoot_info),
    ("defect_scan", INTEGRATE, "defect_scan", _scan_info),
    ("residual_check", INTEGRATE, "residual_check", None),
    ("reconstruct_curve", INTEGRATE, "reconstruct_curve", None),
    ("to_csv", INTEGRATE, "Trajectory.to_csv", None),
    ("to_csv", INTEGRATE, "ProfileCurve.to_csv", None),
    ("solve_ivp", INTEGRATE, "solve_ivp", _solve_ivp_info),
    ("coeffs_from_C", "hext.profile_ode.coeffs", "coeffs_from_C", None),
    ("certify_m1", "hext.profile_ode.certificate", "certify_m1", _max_bits),
    ("rank1_check", GRADED, "rank1_check", None),
    ("truncpoly_mul", GRADED, "TruncatedPoly.__mul__", None),
    ("alpha_recursive", CHERN, "alpha_recursive", None),
    ("alpha_closed", CHERN, "alpha_closed", None),
    ("alpha_series", CHERN, "alpha_series", None),
    ("futaki_closed", CHERN, "futaki_closed", None),
]
# every public function of this module becomes a span of this name
SPANNED_MODULES = [("ratpoly", "hext.ratpoly")]
# counted only: too hot for a span each
COUNTED = [("grassmann_mul", GRADED, "GrassmannElement.__mul__")]

ROOT_SPAN = "cli.main"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._open = Counter()
        self._call_id = -1
        self._undo = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, info=None):
        spans, stack, open_ = self.spans, self._stack, self._open
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                self._call_id, None, open_[name] == 0]
        stack.append(len(spans))
        spans.append(span)
        open_[name] += 1
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def _spanned(self, name, fn, info):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._span(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(span)
                span[5] = {"raised": type(exc).__name__}
                raise
            tracer._close(span)
            if info is not None:
                span[5] = info(out, args, kwargs)
            return out

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -------------------------------------------------------
    def _replace(self, original, wrapper, owner=None):
        """Point every hext reference to `original` at `wrapper`."""
        if owner is not None:
            places = [owner]
        else:
            places = [m for n, m in list(sys.modules.items())
                      if n == "hext" or n.startswith("hext.")]
        for place in places:
            for key, val in list(vars(place).items()):
                if val is original:
                    setattr(place, key, wrapper)
                    self._undo.append((setattr, place, key, original))
                elif owner is None and type(val) is dict:
                    for k, v in val.items():
                        if v is original:
                            val[k] = wrapper
                            self._undo.append((dict.__setitem__, val, k, original))

    def _lookup(self, module, path):
        mod = sys.modules.get(module)
        owner, _, attr = path.rpartition(".")
        holder = getattr(mod, owner, None) if owner else mod
        if holder is None or not hasattr(holder, attr):
            self.missing.append(f"{module}.{path}")
            return None, None
        return holder if owner else None, getattr(holder, attr)

    def install(self):
        for name, module, path, info in SPANNED:
            owner, fn = self._lookup(module, path)
            if fn is not None:
                self._replace(fn, self._spanned(name, fn, info), owner)
        for name, module in SPANNED_MODULES:
            mod = sys.modules.get(module)
            for attr, fn in list(vars(mod).items()) if mod else ():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module):
                    self._replace(fn, self._spanned(name, fn, None))
        for name, module, path in COUNTED:
            owner, fn = self._lookup(module, path)
            if fn is not None:
                self._replace(fn, self._counted(name, fn), owner)

    def uninstall(self):
        while self._undo:
            put, place, key, original = self._undo.pop()
            put(place, key, original)

    @contextmanager
    def installed(self):
        self.missing = []
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def call(self):
        """Root span of one CLI call; spans inside it share one call id."""
        self._call_id += 1
        span = self._span(ROOT_SPAN)
        try:
            yield span
        finally:
            self._close(span)

    def write(self, path):
        """Write the spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


# name, unit; every value is a mean per traced CLI call unless the unit says
# otherwise ("/shoot", "/solve", "/step", or a max / share over the run)
PER_LAYER = [
    ("integrate_v.calls", "count/call"),
    ("integrate_v.s", "s/call"),
    ("integrate_v.steps", "count/call"),
    ("integrate_v.steps_full", "count/solve"),
    ("integrate_v.raised", "count/call"),
    ("integrate_v.share", "frac"),
    ("shoot.solves", "count/shoot"),
    ("shoot.full_solves", "count/shoot"),
    ("shoot.iterations", "count/shoot"),
    ("shoot.scan_points", "count/shoot"),
    ("shoot.self_s", "s/shoot"),
    ("shoot.cstar_err", "1"),
    ("shoot.defect_abs", "1"),
    ("defect_scan.calls", "count/call"),
    ("defect_scan.s", "s/call"),
    ("defect_scan.points", "count/call"),
    ("defect_scan.failed_points", "count/call"),
    ("residual_check.s", "s/call"),
    ("reconstruct_curve.s", "s/call"),
    ("to_csv.s", "s/call"),
    ("solve_ivp.calls", "count/call"),
    ("solve_ivp.nfev", "count/call"),
    ("solve_ivp.nfev_per_step", "count/step"),
    ("solve_ivp.s", "s/call"),
    ("coeffs_from_C.calls", "count/call"),
    ("coeffs_from_C.s", "s/call"),
    ("certify_m1.s", "s/call"),
    ("certify_m1.max_bits", "bits"),
    ("ratpoly.calls", "count/call"),
    ("ratpoly.s", "s/call"),
    ("rank1_check.s", "s/call"),
    ("grassmann_mul.calls", "count/call"),
    ("truncpoly_mul.calls", "count/call"),
    ("truncpoly_mul.s", "s/call"),
    ("alpha_recursive.s", "s/call"),
    ("alpha_closed.s", "s/call"),
    ("alpha_series.s", "s/call"),
    ("futaki_closed.s", "s/call"),
    ("cli.self_s", "s/call"),
    ("cli.artifact_bytes", "B/call"),
    ("trace.spans", "count/call"),
    ("trace.overhead", "frac"),
]


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tracer, artifact_bytes, c_star_ref, overhead):
    """Per-layer metrics from the spans of `len(artifact_bytes)` traced calls."""
    spans = tracer.spans
    calls = len(artifact_bytes)
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]

    def of(name):
        return [(i, s) for i, s in enumerate(spans) if s[0] == name]

    def total(name):
        return sum(s[2] - s[1] for _, s in of(name) if s[6])

    def under(i, name):
        while i >= 0:
            i = spans[i][3]
            if i >= 0 and spans[i][0] == name:
                return True
        return False

    def ok(name):
        return [s[5] for _, s in of(name) if s[5] and "raised" not in s[5]]

    solves = of("integrate_v")
    solved = ok("integrate_v")
    full = [x for x in solved if x["full"]]
    shoots = of("shoot")
    shot = ok("shoot")
    in_shoot = [i for i, _ in solves if under(i, "shoot")]
    full_in_shoot = [i for i, s in solves if s[5] and s[5].get("full") and under(i, "shoot")]
    scans = ok("defect_scan")
    ivps = ok("solve_ivp")
    certs = [s[5] for _, s in of("certify_m1") if isinstance(s[5], int)]
    roots = of(ROOT_SPAN)
    per_call = lambda x: _ratio(x, calls)  # noqa: E731

    values = {
        "integrate_v.calls": per_call(len(solves)),
        "integrate_v.s": per_call(total("integrate_v")),
        "integrate_v.steps": per_call(sum(x["steps"] for x in solved)),
        "integrate_v.steps_full": _ratio(sum(x["steps"] for x in full), len(full)),
        "integrate_v.raised": per_call(sum(1 for _, s in solves if s[5] and "raised" in s[5])),
        "integrate_v.share": _ratio(total("integrate_v"), total(ROOT_SPAN)),
        "shoot.solves": _ratio(len(in_shoot), len(shoots)),
        "shoot.full_solves": _ratio(len(full_in_shoot), len(shoots)),
        "shoot.iterations": _ratio(sum(x["iterations"] for x in shot), len(shot)),
        "shoot.scan_points": _ratio(sum(x["scan_points"] for x in shot), len(shot)),
        "shoot.self_s": _ratio(sum(s[2] - s[1] - child[i] for i, s in shoots), len(shoots)),
        "shoot.cstar_err": max((abs(x["c_star"] - c_star_ref[x["m"]]) for x in shot), default=0.0),
        "shoot.defect_abs": max((abs(x["defect"]) for x in shot), default=0.0),
        "defect_scan.calls": per_call(len(of("defect_scan"))),
        "defect_scan.s": per_call(total("defect_scan")),
        "defect_scan.points": per_call(sum(x["points"] for x in scans)),
        "defect_scan.failed_points": per_call(sum(x["failed"] for x in scans)),
        "residual_check.s": per_call(total("residual_check")),
        "reconstruct_curve.s": per_call(total("reconstruct_curve")),
        "to_csv.s": per_call(total("to_csv")),
        "solve_ivp.calls": per_call(len(of("solve_ivp"))),
        "solve_ivp.nfev": per_call(sum(x["nfev"] for x in ivps)),
        "solve_ivp.nfev_per_step": _ratio(sum(x["nfev"] for x in ivps), sum(x["steps"] for x in ivps)),
        "solve_ivp.s": per_call(total("solve_ivp")),
        "coeffs_from_C.calls": per_call(len(of("coeffs_from_C"))),
        "coeffs_from_C.s": per_call(total("coeffs_from_C")),
        "certify_m1.s": per_call(total("certify_m1")),
        "certify_m1.max_bits": max(certs, default=0),
        "ratpoly.calls": per_call(len(of("ratpoly"))),
        "ratpoly.s": per_call(total("ratpoly")),
        "rank1_check.s": per_call(total("rank1_check")),
        "grassmann_mul.calls": per_call(tracer.counts["grassmann_mul"]),
        "truncpoly_mul.calls": per_call(len(of("truncpoly_mul"))),
        "truncpoly_mul.s": per_call(total("truncpoly_mul")),
        "alpha_recursive.s": per_call(total("alpha_recursive")),
        "alpha_closed.s": per_call(total("alpha_closed")),
        "alpha_series.s": per_call(total("alpha_series")),
        "futaki_closed.s": per_call(total("futaki_closed")),
        "cli.self_s": per_call(sum(s[2] - s[1] - child[i] for i, s in roots)),
        "cli.artifact_bytes": per_call(sum(artifact_bytes)),
        "trace.spans": per_call(len(spans)),
        "trace.overhead": overhead,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
