"""Per-layer spans recorded from outside the qcongruence package.

The tracer replaces each traced public function at every module that binds
it (a function imported by name into another module is one more binding),
and each traced method on its class. Nothing under src/ changes; leaving
the tracer's `with` block puts every original back.

Spans stay in memory as (parent, task, name, start, end) tuples indexed by
span id; `write` saves them as JSON lines at the end of a run. A layer's
self time is its spans' duration minus the part covered by their children.

Exact counts ride along: calls per layer, and for the polynomial kernels
the computed coefficient operations, operand lengths and coefficient bit
heights. They are computed from the operands, not measured, so for a fixed
seed they repeat exactly from run to run. Computing them takes time of its
own; that time is recorded as a `trace.probe` child span so no layer's
self time includes it.

The hottest tiny helpers (FoldedRatio.mul_binom, the folded array loops,
IntPoly construction) stay unwrapped; their time shows up as self time of
the enclosing check or verifier span.
"""
from __future__ import annotations

import collections
import functools
import json
import sys
import time

from qcongruence import (bigpoly, constructs, cyclotomic, cycmodfield,
                         qseries, verifier)

# layer name -> functions, patched at every qcongruence module binding them
FUNCTIONS = {
    "cyclotomic.phi": (cyclotomic.phi,),
    "qseries.pochhammer": (qseries.pochhammer, qseries.poch_ratio),
    "constructs.all": (constructs.a_poly, constructs.b_poly,
                       constructs.c_poly, constructs.s_set,
                       constructs.n_alpha, constructs.expand_product),
    "cycmodfield.block_constant": (cycmodfield.check_block_constant,),
    "cycmodfield.block_sum": (cycmodfield.check_block_sum,),
    "cycmodfield.block_decomposition":
        (cycmodfield.check_block_decomposition,),
    "cycmodfield.qbinom_reduction": (cycmodfield.check_qbinom_reduction,),
    "cycmodfield.mu_consistency": (cycmodfield.check_mu_consistency,),
    "cycmodfield.sign_reduction": (cycmodfield.check_sign_reduction,),
    "cycmodfield.folded_equal": (cycmodfield.folded_equal,),
    "verifier.qcong": (verifier.verify_q_congruence,),
    "verifier.qcong_at_1": (verifier.verify_specialization_at_one,),
    "verifier.binomsum": (verifier.verify_binomial_sum,),
    "verifier.central": (verifier.verify_central_binomial,),
    "verifier.structure": (verifier.verify_structure_identity,),
    "verifier.value_at_one": (verifier.verify_value_identity,),
    "verifier.2adic": (verifier.verify_two_adic_bounds,),
}

# layer name -> (class, method names)
METHODS = {
    "bigpoly.div_exact": (bigpoly.IntPoly, ("div_exact",)),
    "bigpoly.mul": (bigpoly.IntPoly, ("__mul__", "__rmul__")),
    "bigpoly.rem_monic": (bigpoly.IntPoly, ("rem_monic",)),
    "bigpoly.laurent_mul": (bigpoly.LaurentInt, ("__mul__", "__rmul__")),
    "qseries.factored_mul": (qseries.FactoredQ, ("__mul__", "__pow__")),
    "qseries.expand": (qseries.FactoredQ, ("expand",)),
}

LAYERS = (*METHODS, *FUNCTIONS)


def _bits(coeffs):
    return max(max(coeffs), -min(coeffs)).bit_length() if coeffs else 0


def _probe_div_exact(counts, args, result):
    f, g = args[0].coeffs, args[1].coeffs
    if len(f) >= len(g):
        counts["bigpoly.div_exact.coeff_ops"] += (len(f) - len(g) + 1) * len(g)
    counts["bigpoly.div_exact.max_len"] = max(
        counts["bigpoly.div_exact.max_len"], len(f))
    counts["bigpoly.div_exact.max_bits"] = max(
        counts["bigpoly.div_exact.max_bits"], _bits(f))


def _probe_mul(counts, args, result):
    a, b = args
    lb = 1 if isinstance(b, int) else len(b.coeffs)
    counts["bigpoly.mul.coeff_ops"] += len(a.coeffs) * lb
    counts["bigpoly.mul.max_bits"] = max(counts["bigpoly.mul.max_bits"],
                                         _bits(result.coeffs))


PROBES = {"bigpoly.div_exact": _probe_div_exact, "bigpoly.mul": _probe_mul}
COMPUTED = ("bigpoly.div_exact.coeff_ops", "bigpoly.div_exact.max_len",
            "bigpoly.div_exact.max_bits", "bigpoly.mul.coeff_ops",
            "bigpoly.mul.max_bits")


class Tracer:
    """Install with `with Tracer(task_fns) as t:`. task_fns holds
    (span name, (module, attribute)) pairs: functions traced under that
    name whose every call opens a new task id."""

    def __init__(self, task_fns=()):
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._task = 0
        self._task_fns = task_fns
        self._undo = []

    def _wrap(self, name, fn, new_task=False):
        spans, stack, counts = self.spans, self._stack, self.counts
        probe = PROBES.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            if new_task:
                tracer._task += 1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (parent, tracer._task, name, t0, t1)
            if probe is not None:
                probe(counts, args, result)
                spans.append((parent, tracer._task, "trace.probe", t1,
                              clock()))
            return result

        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "qcongruence" or k.startswith("qcongruence.")]
        targets = [(name, fn, False) for name, fns in FUNCTIONS.items()
                   for fn in fns]
        targets += [(name, getattr(mod, attr), True)
                    for name, (mod, attr) in self._task_fns]
        for name, fn, new_task in targets:
            wrapped = self._wrap(name, fn, new_task)
            for mod in [*modules, *(m for _, (m, _) in self._task_fns)]:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._set(mod, attr, wrapped)
        for name, (cls, attrs) in METHODS.items():
            wrapped = {}
            for attr in attrs:
                fn = vars(cls)[attr]
                if fn not in wrapped:
                    wrapped[fn] = self._wrap(name, fn)
                self._set(cls, attr, wrapped[fn])
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    def layer_totals(self):
        """name -> [calls, self seconds, total seconds]."""
        child = [0.0] * len(self.spans)
        for parent, _, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = collections.defaultdict(lambda: [0, 0.0, 0.0])
        for sid, (_, _, name, t0, t1) in enumerate(self.spans):
            row = out[name]
            if name != "trace.probe":
                row[0] += 1
            row[1] += (t1 - t0) - child[sid]
            row[2] += t1 - t0
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for sid, (parent, task, name, t0, t1) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "task": task, "name": name,
                                     "start": t0, "end": t1}) + "\n")
