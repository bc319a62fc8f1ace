"""Spans around the public functions of each knotcert layer.

The wrappers live here, not in knotcert: ``install`` replaces each
listed function in every knotcert module namespace that bound it (by
definition or by ``from ... import``), and ``Word.__mul__`` on its class.
A span records its name, start, end, parent span and operation id, plus
up to two integers an observer takes from the call (an argument, a size
or a failure flag).  Spans stay in memory in flat arrays until
``write`` puts them in a file at the end of the run.
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from array import array
from collections import defaultdict

# (metric prefix, module, attribute); "words.Word.mul" is the method
# Word.__mul__.  acceptance is left out: selftest is not a workload.
LAYERS = [
    ("cli.run", "cli", "run"),
    ("constructions.distinctness_certificate", "constructions", "distinctness_certificate"),
    ("constructions.annihilator_poly", "constructions", "annihilator_poly"),
    ("constructions.order_ideal", "constructions", "order_ideal"),
    ("constructions.gamma_tab_presentation", "constructions", "gamma_tab_presentation"),
    ("fox.alexander_polynomial", "fox", "alexander_polynomial"),
    ("fox.fox_matrix", "fox", "fox_matrix"),
    ("fox.fox_derivative", "fox", "fox_derivative"),
    ("fox.elementary_ideal", "fox", "elementary_ideal"),
    ("fox.abelianize_element", "fox", "abelianize_element"),
    ("laurent.minors", "laurent", "minors"),
    ("laurent.laurent_det", "laurent", "laurent_det"),
    ("laurent.divide_exact", "laurent", "divide_exact"),
    ("laurent.divides", "laurent", "divides"),
    ("laurent.cyclotomic", "laurent", "cyclotomic"),
    ("laurent.laurent_gcd", "laurent", "laurent_gcd"),
    ("intlinalg.smith_normal_form", "intlinalg", "smith_normal_form"),
    ("presentations.abelianization", "presentations", "abelianization"),
    ("words.Word.mul", "words", "Word.__mul__"),
    ("torus.normal_form", "torus", "normal_form"),
    ("torus.verify_homomorphism", "torus", "verify_homomorphism"),
    ("fileformat.parse_presentation", "fileformat", "parse_presentation"),
    ("fileformat.parse_word", "fileformat", "parse_word"),
]

# Extra per-layer metrics: name -> (unit, better).
EXTRAS = {
    "constructions.annihilator_poly.useful_ratio": ("ratio", "higher"),
    "fox.fox_matrix.entries": ("count", "lower"),
    "fox.fox_derivative.terms": ("count", "lower"),
    "laurent.minors.attempts": ("count", "lower"),
    "laurent.minors.useful_ratio": ("ratio", "higher"),
    "laurent.laurent_det.max_dim": ("count", "lower"),
    "laurent.divide_exact.failed": ("count", "lower"),
    "laurent.cyclotomic.hit_ratio": ("ratio", "higher"),
    "laurent.laurent_gcd.max_in_degree": ("count", "lower"),
    "laurent.laurent_gcd.max_coeff_bits": ("bits", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def per_layer_spec() -> list[dict]:
    """The per_layer entries of BENCHMARK.json, in report order."""
    spec = []
    for name, _, _ in LAYERS:
        spec.append({"name": f"{name}.calls", "unit": "count", "better": "lower"})
        spec.append({"name": f"{name}.self_s", "unit": "s", "better": "lower"})
    for name, (unit, better) in EXTRAS.items():
        spec.append({"name": name, "unit": unit, "better": better})
    return spec


def _minors_values(args, kwargs, result):
    M, k = args[0], args[1]
    return math.comb(M.rows, k) * math.comb(M.cols, k), len(result)


def _gcd_values(args, kwargs, result):
    degree = bits = 0
    for f in args[0]:
        if f:
            degree = max(degree, f.max_exp() - f.min_exp())
            bits = max(bits, max(abs(c).bit_length() for _, c in f.items()))
    return degree, bits


# Observers: name -> f(args, kwargs, result) -> (value, value2), run after
# the span has closed.
OBSERVERS = {
    "constructions.annihilator_poly": lambda a, k, r: (a[0], 0),
    "fox.fox_matrix": lambda a, k, r: (r.rows * r.cols, 0),
    "fox.fox_derivative": lambda a, k, r: (len(r.terms), 0),
    "laurent.minors": _minors_values,
    "laurent.laurent_det": lambda a, k, r: (len(a[0]), 0),
    "laurent.cyclotomic": lambda a, k, r: (a[0], 0),
    "laurent.laurent_gcd": _gcd_values,
}


class Tracer:
    def __init__(self, not_divisible: type):
        self.names: list[str] = []
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.value = array("q")
        self.value2 = array("q")
        self.current_op = -1
        self._stack: list[int] = []
        self._not_divisible = not_divisible

    def wrap(self, name: str, fn):
        self.names.append(name)
        nid = len(self.names) - 1
        observe = OBSERVERS.get(name)
        failure = self._not_divisible if name == "laurent.divide_exact" else None
        # Bound to locals: this wrapper runs on every call of a hot function.
        clock, stack = time.perf_counter, self._stack
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        op, value, value2 = self.op, self.value, self.value2

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            value.append(0)
            value2.append(0)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[i] = clock()
                stack.pop()
                if failure is not None and isinstance(exc, failure):
                    value[i] = 1
                raise
            end[i] = clock()
            stack.pop()
            if observe is not None:
                value[i], value2[i] = observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\tvalue\tvalue2\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op[i]}\t"
                         f"{self.value[i]}\t{self.value2[i]}\n")

    def metrics(self, op_pass: list[int], passes: list[int]) -> dict[str, float]:
        """Per-layer metrics.  Counts and times are per batch: summed over
        each completed pass and averaged over those passes.  Maxima and the
        cyclotomic hit ratio are taken over the whole process."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        keep = set(passes)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        per_pass = defaultdict(lambda: defaultdict(int))
        ann_args = defaultdict(set)
        seen_n: set[int] = set()
        hits = cyc_calls = max_dim = max_deg = max_bits = 0
        for i in range(n):
            name = self.names[self.name_id[i]]
            v, v2 = self.value[i], self.value2[i]
            if name == "laurent.cyclotomic":
                cyc_calls += 1
                hits += v in seen_n
                seen_n.add(v)
            elif name == "laurent.laurent_det":
                max_dim = max(max_dim, v)
            elif name == "laurent.laurent_gcd":
                max_deg, max_bits = max(max_deg, v), max(max_bits, v2)
            pno = op_pass[self.op[i]] if self.op[i] >= 0 else -1
            if pno not in keep:
                continue
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - child[i]
            bucket = per_pass[pno]
            if name == "constructions.annihilator_poly":
                ann_args[pno].add(v)
                bucket["ann_calls"] += 1
            elif name == "fox.fox_matrix":
                bucket["entries"] += v
            elif name == "fox.fox_derivative":
                bucket["terms"] += v
            elif name == "laurent.minors":
                bucket["attempts"] += v
                bucket["minors"] += v2
            elif name == "laurent.divide_exact":
                bucket["failed"] += v
        count = max(len(keep), 1)

        def mean(values):
            values = list(values)
            return sum(values) / len(values) if values else 0.0

        out: dict[str, float] = {}
        for name, _, _ in LAYERS:
            out[f"{name}.calls"] = calls[name] / count
            out[f"{name}.self_s"] = self_s[name] / count
        buckets = [per_pass[p] for p in passes]
        out["constructions.annihilator_poly.useful_ratio"] = mean(
            len(ann_args[p]) / per_pass[p]["ann_calls"]
            for p in passes if per_pass[p]["ann_calls"])
        out["fox.fox_matrix.entries"] = mean(b["entries"] for b in buckets)
        out["fox.fox_derivative.terms"] = mean(b["terms"] for b in buckets)
        out["laurent.minors.attempts"] = mean(b["attempts"] for b in buckets)
        out["laurent.minors.useful_ratio"] = mean(
            b["minors"] / b["attempts"] for b in buckets if b["attempts"])
        out["laurent.laurent_det.max_dim"] = max_dim
        out["laurent.divide_exact.failed"] = mean(b["failed"] for b in buckets)
        out["laurent.cyclotomic.hit_ratio"] = hits / cyc_calls if cyc_calls else 0.0
        out["laurent.laurent_gcd.max_in_degree"] = max_deg
        out["laurent.laurent_gcd.max_coeff_bits"] = max_bits
        return out


def _resolve(module, attr: str):
    owner = module
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


def install(not_divisible: type) -> Tracer:
    """Wrap every function in LAYERS, in every knotcert namespace."""
    tracer = Tracer(not_divisible)
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "knotcert" or name.startswith("knotcert."))]
    for metric, modname, attr in LAYERS:
        owner, last = _resolve(sys.modules[f"knotcert.{modname}"], attr)
        original = getattr(owner, last)
        traced = tracer.wrap(metric, original)
        if owner is not sys.modules[f"knotcert.{modname}"]:  # a method
            setattr(owner, last, traced)
            continue
        for module in modules:
            for key, val in list(vars(module).items()):
                if val is original:
                    setattr(module, key, traced)
    return tracer
