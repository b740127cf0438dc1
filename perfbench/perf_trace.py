"""Spans and counters around the calls into each mhfie layer.

While installed, the tracer replaces the module attributes through which the
package reaches each layer (and ``scipy.linalg.lu_factor``/``lu_solve``) with
wrappers that record a span per call: name, operation id, parent span, start
and end.  Spans stay in memory; a layer's self time is its span's duration
minus the durations of its direct child spans.  The package is not modified.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg

import mhfie
import mhfie.approx
import mhfie.mhf
import mhfie.solver
from perf_workloads import RULE

SETUP = "setup"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, op id, pass key, parent index, start ns, end ns]
        self.counts = defaultdict(Counter)  # pass key -> counter
        self.degrees = defaultdict(set)  # pass key -> distinct rule degrees
        self.pass_key = SETUP
        self.op_id = -1
        self.op = None
        self._stack = []
        self._saved = []

    # -- context set by the benchmark loop ---------------------------------

    def begin_op(self, op_id: int, op) -> None:
        self.op_id, self.op = op_id, op
        if op.route != RULE:
            # Largest dense operator: W and E are (n+1)^d x (n+2)^d doubles.
            size = 8 * (op.n + 1) ** op.dim * (op.n + 2) ** op.dim
            counts = self.counts[self.pass_key]
            counts["solver.operator.bytes"] = max(counts["solver.operator.bytes"], size)

    def _count(self, name: str, value=1) -> None:
        self.counts[self.pass_key][name] += value

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, self.op_id, self.pass_key,
                          stack[-1] if stack else -1, time.perf_counter_ns(), 0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][5] = time.perf_counter_ns()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _hermite_done(self, args, rule) -> None:
        self._count("hermite.rule.nodes", rule.degree + 1)
        self.degrees[self.pass_key].add(rule.degree)

    def _newton(self, driver):
        traced = self._span("solver.newton", driver)

        def newton_driver(residual, jacobian, x0, *args, **kwargs):
            calls = [0]

            def counted(u):
                calls[0] += 1
                return residual(u)

            result = traced(self._span("solver.residual", counted),
                            self._span("solver.jacobian", jacobian, self._jacobian_done),
                            x0, *args, **kwargs)
            self._count("solver.newton.iters", result[1])
            self._count("solver.newton.trials", calls[0] - 1)  # the first is no trial
            return result

        return newton_driver

    def _jacobian_done(self, args, jac) -> None:
        # (W diag d) E with W of shape M x K and E of shape K x M: 2 M^2 K flops.
        m = np.shape(jac)[0]
        k = (self.op.n + 2) ** self.op.dim
        self._count("solver.jacobian.gflop", 2.0 * m * m * k * 1e-9)

    def _points(self, fn, grid: bool):
        def evaluate(interp, x, *rest):
            n = np.size(x) * (np.size(rest[0]) if grid else 1)
            self._count("approx.eval.points", n)
            return fn(interp, x, *rest)

        return evaluate

    def _targets(self) -> list:
        span = self._span
        hermite = span("hermite.rule", mhfie.hermite_gauss_rule, self._hermite_done)
        mapped = span("mhf.rule", mhfie.mhf_gauss_rule)
        newton = self._newton(mhfie.solver.newton_driver)
        i1, i2 = mhfie.approx.Interpolant1D, mhfie.approx.Interpolant2D
        return [
            (mhfie, "hermite_gauss_rule", hermite),
            (mhfie.mhf, "hermite_gauss_rule", hermite),
            (mhfie, "mhf_gauss_rule", mapped),
            (mhfie.solver, "mhf_gauss_rule", mapped),
            (mhfie.approx, "mhf_gauss_rule", mapped),
            (mhfie, "error_norms", span("approx.error_norms", mhfie.error_norms)),
            (mhfie, "manufactured_forcing",
             span("problem.forcing", mhfie.manufactured_forcing)),
            (mhfie, "solve", span("solver.solve", mhfie.solve)),
            (mhfie, "verify_residual", span("solver.verify", mhfie.verify_residual)),
            (mhfie.solver, "newton_driver", newton),
            (scipy.linalg, "lu_factor", span("solver.factor", scipy.linalg.lu_factor)),
            (scipy.linalg, "lu_solve", span("solver.factor", scipy.linalg.lu_solve)),
            (i1, "eval", self._points(i1.eval, grid=False)),
            (i2, "eval", self._points(i2.eval, grid=False)),
            (i2, "eval_grid", self._points(i2.eval_grid, grid=True)),
        ]

    def install(self, pass_key) -> None:
        self.pass_key = pass_key
        if self._saved:
            return
        for owner, attr, wrapper in self._targets():
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def _self_times(self) -> dict:
        """pass key -> Counter of (span name -> calls, self ns)."""
        child_ns = [0] * len(self.spans)
        for name, _, _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: defaultdict(Counter))
        for i, (name, _, key, _, start, end) in enumerate(self.spans):
            out[key][name]["calls"] += 1
            out[key][name]["self_ns"] += end - start - child_ns[i]
        return out

    def layer_metrics(self, traced_passes: list) -> dict:
        """Per-layer metrics: median over traced passes, set-up spans for forcing."""
        spans = self._self_times()
        per_pass = []
        for key in traced_passes:
            s, c = spans[key], self.counts[key]
            rule_calls = s["hermite.rule"]["calls"]
            trials = c["solver.newton.trials"]
            per_pass.append({
                "hermite.rule.calls": rule_calls,
                "hermite.rule.self_ms": s["hermite.rule"]["self_ns"] * 1e-6,
                "hermite.rule.nodes": c["hermite.rule.nodes"],
                "hermite.rule.distinct_frac":
                    len(self.degrees[key]) / rule_calls if rule_calls else 0.0,
                "mhf.rule.calls": s["mhf.rule"]["calls"],
                "mhf.rule.self_ms": s["mhf.rule"]["self_ns"] * 1e-6,
                "approx.error_norms.calls": s["approx.error_norms"]["calls"],
                "approx.error_norms.self_ms": s["approx.error_norms"]["self_ns"] * 1e-6,
                "approx.eval.points": c["approx.eval.points"],
                "solver.solve.self_ms": s["solver.solve"]["self_ns"] * 1e-6,
                "solver.factor.calls": s["solver.factor"]["calls"],
                "solver.factor.self_ms": s["solver.factor"]["self_ns"] * 1e-6,
                "solver.newton.self_ms": s["solver.newton"]["self_ns"] * 1e-6,
                "solver.newton.iters": c["solver.newton.iters"],
                "solver.residual.calls": s["solver.residual"]["calls"],
                "solver.newton.accept_frac":
                    c["solver.newton.iters"] / trials if trials else 0.0,
                "solver.jacobian.calls": s["solver.jacobian"]["calls"],
                "solver.jacobian.self_ms": s["solver.jacobian"]["self_ns"] * 1e-6,
                "solver.jacobian.gflop": c["solver.jacobian.gflop"],
                "solver.operator.bytes": c["solver.operator.bytes"],
                "solver.verify.calls": s["solver.verify"]["calls"],
                "solver.verify.self_ms": s["solver.verify"]["self_ns"] * 1e-6,
            })
        metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        metrics["problem.forcing.calls"] = spans[SETUP]["problem.forcing"]["calls"]
        metrics["problem.forcing.self_ms"] = spans[SETUP]["problem.forcing"]["self_ns"] * 1e-6
        return metrics
