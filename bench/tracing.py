"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces each traced function with a timing wrapper in
every `reebmin` module that binds it (a caller that did `from .polyhedral
import dual_cone` holds its own binding), and methods or constructors on
their class.  A span's self time is its duration minus the durations of the
spans it encloses.  Spans whose target no longer exists are skipped and
report zero.  `uninstall()` restores every original binding.
"""

import functools
import importlib
import sys
import time
from collections import defaultdict
from fractions import Fraction

import mpmath

# span name -> (module, attribute or Class.attribute)
SPANS = {
    "polyhedral.dual_cone": ("reebmin.polyhedral", "dual_cone"),
    "polyhedral.triangulate_cone": ("reebmin.polyhedral", "triangulate_cone"),
    "polyhedral.vertex_enumeration": ("reebmin.polyhedral", "vertex_enumeration"),
    "polyhedral.hrep_of": ("reebmin.polyhedral", "hrep_of"),
    "polyhedral.smith_normal_form": ("reebmin._exact", "smith_normal_form"),
    "polyhedral._rays_from_inequalities": ("reebmin.polyhedral", "_rays_from_inequalities"),
    "polyhedral.lp": ("reebmin._simplex", "lp_standard"),
    "polyhedral.VCone.contains": ("reebmin.polyhedral", "VCone.contains"),
    "polyhedral.VCone.extreme_rays": ("reebmin.polyhedral", "VCone.extreme_rays"),
    "toricvol.ToricData": ("reebmin.toricvol", "ToricData.__init__"),
    "toricvol.minimize": ("reebmin.toricvol", "minimize"),
    "toricvol.vol_xi": ("reebmin.toricvol", "vol_xi"),
    "toricvol.grad_vol": ("reebmin.toricvol", "grad_vol"),
    "toricvol.hessian_vol": ("reebmin.toricvol", "hessian_vol"),
    "toricvol.certify_barycenter": ("reebmin.toricvol", "certify_barycenter"),
    "cxonevol.PolyhedralDivisor": ("reebmin.cxonevol", "PolyhedralDivisor.__init__"),
    "cxonevol.build_cells": ("reebmin.cxonevol", "build_cells"),
    "cxonevol.minimize_c1": ("reebmin.cxonevol", "minimize_c1"),
    "cxonevol.vol_xi_c1": ("reebmin.cxonevol", "vol_xi_c1"),
    "downgrade.complete_sequence": ("reebmin.downgrade", "complete_sequence"),
    "downgrade.downgrade_sigma": ("reebmin.downgrade", "downgrade_sigma"),
    "downgrade.downgrade_coefficient": ("reebmin.downgrade", "downgrade_coefficient"),
    "futaki.semistable_scan": ("reebmin.futaki", "semistable_scan"),
    "futaki.futaki_invariant": ("reebmin.futaki", "futaki_invariant"),
    "approx.cone_rational_approx": ("reebmin.approx", "cone_rational_approx"),
    "approx.dirichlet_signed": ("reebmin.approx", "dirichlet_signed"),
    "oracle.count_toric": ("reebmin.oracle", "count_toric"),
    "oracle.count_cxone": ("reebmin.oracle", "count_cxone"),
    "oracle.vol_estimate": ("reebmin.oracle", "vol_estimate"),
    "oracle._slab_points": ("reebmin.oracle", "_slab_points"),
    "cli.run": ("reebmin.cli", "run"),
}
LAYERS = ("polyhedral", "toricvol", "cxonevol", "downgrade", "futaki", "approx", "oracle", "cli")
# spans whose calls are split by the number type of their xi argument
TYPED = ("toricvol.vol_xi", "toricvol.grad_vol", "toricvol.hessian_vol", "toricvol.certify_barycenter")
ARG_KINDS = ("float", "exact", "mp")
# counts read off a span's result; points_counted is the lattice points the
# oracle materializes in its slabs, zero once it no longer builds slabs
COUNTS = (
    "toricvol.minimize.iterations",
    "toricvol.minimize.unconverged",
    "cxonevol.build_cells.cells",
    "cxonevol.minimize_c1.iterations",
    "cxonevol.minimize_c1.unconverged",
    "oracle.points_counted",
)


def _arg_kind(xi):
    values = getattr(xi, "xi", xi)
    first = next(iter(values))
    if isinstance(first, (Fraction, int)):
        return "exact"
    if isinstance(first, (mpmath.mpf, mpmath.mpc)):
        return "mp"
    return "float"


def _count_result(counts, name, result):
    if name in ("toricvol.minimize", "cxonevol.minimize_c1"):
        counts[f"{name}.iterations"] += result.iterations
        counts[f"{name}.unconverged"] += not result.converged
    elif name == "cxonevol.build_cells":
        counts["cxonevol.build_cells.cells"] += len(result.cells)
    elif name == "oracle._slab_points":
        counts["oracle.points_counted"] += len(result)


class Tracer:
    """Span and counter recorder for one traced run."""

    def __init__(self):
        self.calls = defaultdict(int)  # span or "span.kind" -> calls
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # child time accumulated by each open span
        self._undo = []

    def _wrap(self, name, fn):
        stack, typed = self._stack, name in TYPED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if typed:
                self.calls[f"{name}.{_arg_kind(args[1] if len(args) > 1 else kwargs['xi'])}"] += 1
            else:
                self.calls[name] += 1
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.self_s[name] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            _count_result(self.counts, name, result)
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in list(sys.modules.items()) if key == "reebmin" or key.startswith("reebmin.")]
        for name, (modname, attr) in SPANS.items():
            try:
                module = importlib.import_module(modname)
            except ImportError:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                original = vars(cls)[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def metrics(self, passes, busy_s, scale):
        """Per-pass values of every span, layer and count, by metric name.

        busy_s is the wall time of the traced problems; times are multiplied
        by scale, the run's calibrated seconds per wall second.
        """
        out = {}
        for name in SPANS:
            out[f"{name}.self_s"] = (self.self_s[name] * scale / passes, "s")
            if name in TYPED:
                for kind in ARG_KINDS:
                    out[f"{name}.{kind}_calls"] = (self.calls[f"{name}.{kind}"] / passes, "count")
            elif name == "polyhedral.lp":
                out["polyhedral.lp_solves"] = (self.calls[name] / passes, "count")
            else:
                out[f"{name}.calls"] = (self.calls[name] / passes, "count")
        for name in COUNTS:
            out[name] = (self.counts[name] / passes, "count")
        traced = 0.0
        for layer in LAYERS:
            layer_s = sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)
            traced += layer_s
            out[f"layer.{layer}.self_s"] = (layer_s * scale / passes, "s")
        out["layer.bench.self_s"] = ((busy_s - traced) * scale / passes, "s")
        out["trace.coverage"] = (traced / busy_s, "ratio")
        return out
