"""Per-layer tracing of rqwork, installed from outside the package.

``install`` wraps the public functions and methods of every rqwork module
(and the three coefficient kernels of ``_backend``) in place, so each call
records a span: name, parent span, job, start and end.  Counters are taken
at the same boundaries.  Nothing inside ``src/`` changes; the wrappers only
exist in a process that asked for them.

A span's self time is its duration minus the time its child spans cover.
Calls made by a hook (the counters below) are timed and kept out of the
parent's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
from fractions import Fraction
from time import perf_counter

# rqwork modules in layer order; ``_backend`` is reported as ``backend``
# because metric names start with a letter
LAYERS = ("_backend", "series", "characters", "quantities", "linalg",
          "modeq", "numerics", "cli")
KERNELS = {"convolve": "convolve", "reciprocal": "reciprocal",
           "bareiss_rows": "bareiss"}
# per-coefficient accessors: a span would cost more than the call itself,
# so their time stays with the caller
UNTRACED = {"characters.TauTable.tau", "characters.TauTable.chi",
            "series.FormalSeries.coeff"}
KEEP_SPANS = 100_000  # spans beyond this are aggregated but not kept
ARITHMETIC = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__neg__"}


class Stat:
    __slots__ = ("calls", "total", "self_time", "active")

    def __init__(self):
        self.calls = 0
        self.total = 0.0      # outermost spans only, so recursion counts once
        self.self_time = 0.0
        self.active = 0


class Tracer:
    """Spans in memory, aggregated per name; written out by ``dump``."""

    def __init__(self):
        self.stats = {}
        self.counts = {}
        self.maxima = {}
        self.stack = []
        self.spans = []
        self.dropped_spans = 0
        self.job = None

    def stat(self, name):
        return self.stats.setdefault(name, Stat())

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def high(self, key, value):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def wrap(self, name, fn, hook=None):
        stat = self.stat(name)
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            index = len(spans)
            if index < KEEP_SPANS:
                spans.append(None)
            else:
                index = -1
                self.dropped_spans += 1
            frame = [0.0, index]
            stack.append(frame)
            stat.active += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stat.active -= 1
                d = t1 - t0
                stat.calls += 1
                stat.self_time += d - frame[0]
                if not stat.active:
                    stat.total += d
                if stack:
                    stack[-1][0] += d
                if index >= 0:
                    spans[index] = (name, parent, self.job, t0, t1)
            if hook is not None:
                hook(args, result)
                if stack:
                    stack[-1][0] += perf_counter() - t1
            return result

        return traced

    def dump(self, path, meta):
        """Write the kept spans and the aggregates as one JSON document."""
        doc = {
            "meta": meta,
            "span_fields": ["name", "parent", "job", "start_s", "end_s"],
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
            "stats": {k: {"calls": s.calls, "total_s": s.total,
                          "self_s": s.self_time}
                      for k, s in sorted(self.stats.items())},
            "counts": self.counts,
            "maxima": self.maxima,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _replace(old, new):
    """Rebind every rqwork module global that refers to ``old``."""
    for modname, mod in list(sys.modules.items()):
        if modname == "rqwork" or modname.startswith("rqwork."):
            for key, val in list(vars(mod).items()):
                if val is old:
                    setattr(mod, key, new)


def _public_callables(mod):
    """(qualified name, owner, attribute, function, kind) defined in mod."""
    for name, obj in list(vars(mod).items()):
        if name.startswith("_") \
                or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, None, name, obj, "function"
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, val in list(vars(obj).items()):
                if attr.startswith("_") and attr not in ARITHMETIC:
                    continue
                if isinstance(val, (classmethod, staticmethod)):
                    yield f"{name}.{attr}", obj, attr, val.__func__, type(val)
                elif inspect.isfunction(val):
                    yield f"{name}.{attr}", obj, attr, val, "method"


def _series_hook(tracer, rational_types):
    def hook(args, result):
        coeffs = getattr(result, "coeffs", None)
        if coeffs is None:
            return
        tracer.high("series.lattice.max_denom", result.denom)
        nonzero = ints = bits = 0
        for c in coeffs:
            if c and type(c) in rational_types:
                nonzero += 1
                den = c.denominator
                if den == 1:
                    ints += 1
                b = max(c.numerator.bit_length(), den.bit_length())
                if b > bits:
                    bits = b
        tracer.add("series.coeffs.rational", nonzero)
        tracer.add("series.coeffs.rational_int", ints)
        tracer.high("series.coeffs.max_bits", bits)
    return hook


def install(tracer: Tracer):
    """Wrap rqwork's layers in place, for the rest of the process."""
    mods = {layer: importlib.import_module("rqwork." + layer)
            for layer in LAYERS}

    def convolve_hook(args, result):
        a, b, n = args
        if len(a) > len(b):
            a, b = b, a
        prefix = list(itertools.accumulate((1 if x else 0 for x in b),
                                           initial=0))
        lb = len(b)
        tracer.add("backend.convolve.mults",
                   sum(prefix[min(n - i, lb)]
                       for i, x in enumerate(a[:n]) if x))
        tracer.high("backend.convolve.max_len", max(len(a), len(b)))

    def bareiss_hook(args, result):
        tracer.high("backend.bareiss.max_bits", abs(args[3]).bit_length())

    backend = mods["_backend"]
    for fname, short in KERNELS.items():
        orig = getattr(backend, fname)
        hook = {"convolve": convolve_hook, "bareiss": bareiss_hook}.get(short)
        _replace(orig, tracer.wrap(f"backend.{short}", orig, hook))

    series_hook = _series_hook(tracer, {Fraction, mods["series"].Rational})

    def verify_hook(args, result):
        tracer.add("quantities.verify.steps", result.get("verified_steps", 0))

    def tau_fill_hook(args, result):
        tracer.add("characters.tau_fill.n", args[1])

    def nullspace_hook(args, result):
        matrix = args[0]
        tracer.high("linalg.nullspace.rows", len(matrix))
        tracer.high("linalg.nullspace.cols", len(matrix[0]) if matrix else 0)
        tracer.add("linalg.nullspace.nullity", len(result))

    mine_stat = tracer.stat("modeq.mine")

    def verify_relation_hook(args, result):
        if mine_stat.active:
            tracer.add("modeq.candidates", 1)

    def mine_hook(args, result):
        tracer.add("modeq.kept", len(result))

    hooks = {
        "series.FormalSeries.__mul__": series_hook,
        "series.FormalSeries.inverse": series_hook,
        "quantities.IdentityRecord.verify": verify_hook,
        "characters.TauTable.fill": tau_fill_hook,
        "linalg.nullspace_rational": nullspace_hook,
        "modeq.verify_relation": verify_relation_hook,
        "modeq.mine": mine_hook,
    }

    for layer in LAYERS[1:]:
        mod = mods[layer]
        for qual, owner, attr, fn, kind in list(_public_callables(mod)):
            name = f"{layer}.{qual}"
            # a generator's span would close before its caller iterates
            if name in UNTRACED or inspect.isgeneratorfunction(fn):
                continue
            wrapped = tracer.wrap(name, fn, hooks.get(name))
            if owner is None:
                _replace(fn, wrapped)
            elif kind in (classmethod, staticmethod):
                setattr(owner, attr, kind(wrapped))
            else:
                setattr(owner, attr, wrapped)

    # every ctx.mp access clones an mpmath context; count them
    ctx_cls = mods["numerics"].PrecisionContext
    clone = ctx_cls.__dict__["mp"].fget

    def counted_mp(self):
        tracer.add("numerics.mp_clone.calls", 1)
        return clone(self)

    ctx_cls.mp = property(counted_mp)


# metric prefix -> traced function; ``<prefix>.calls`` counts its calls and
# ``<prefix>.s`` is its time
SPANS = {
    "backend.convolve": "backend.convolve",
    "backend.reciprocal": "backend.reciprocal",
    "backend.bareiss": "backend.bareiss",
    "series.mul": "series.FormalSeries.__mul__",
    "series.inverse": "series.FormalSeries.inverse",
    "series.pow": "series.FormalSeries.__pow__",
    "series.pochhammer": "series.pochhammer_inf",
    "characters.tau_fill": "characters.TauTable.fill",
    "characters.tau_scan": "characters.tau_relation_scan",
    "quantities.rq_series": "quantities.rq_series",
    "quantities.rq_star_series": "quantities.rq_star_series",
    "quantities.product_over_X": "quantities.product_over_X",
    "quantities.agile_series": "quantities.agile_series",
    "quantities.eta_quotient_series": "quantities.eta_quotient_series",
    "quantities.verify": "quantities.IdentityRecord.verify",
    "linalg.nullspace": "linalg.nullspace_rational",
    "modeq.mine": "modeq.mine",
    "modeq.recipe_build": "modeq.SeriesRecipe.build",
    "modeq.verify_relation": "modeq.verify_relation",
    "numerics.singular_modulus": "numerics.singular_modulus",
    "numerics.elliptic_K": "numerics.elliptic_K",
    "numerics.eval_rq": "numerics.eval_rq",
    "numerics.eval_series": "numerics.eval_series",
    "numerics.eval_cf": "numerics.eval_cf",
    "numerics.recognize": "numerics.recognize_algebraic",
    "cli.dispatch": "cli.dispatch",
}
RATIOS = {
    "series.coeffs.fraction_int_ratio": ("series.coeffs.rational_int",
                                         "series.coeffs.rational"),
    "modeq.kept_ratio": ("modeq.kept", "modeq.candidates"),
}
MAXIMA = {"backend.convolve.max_len", "backend.bareiss.max_bits",
          "series.lattice.max_denom", "series.coeffs.max_bits",
          "linalg.nullspace.rows", "linalg.nullspace.cols"}

# (metric, unit, better), in report order
PER_LAYER = [
    ("backend.convolve.calls", "count", "lower"),
    ("backend.convolve.s", "s", "lower"),
    ("backend.convolve.mults", "count", "lower"),
    ("backend.convolve.max_len", "count", "lower"),
    ("backend.reciprocal.calls", "count", "lower"),
    ("backend.reciprocal.s", "s", "lower"),
    ("backend.bareiss.calls", "count", "lower"),
    ("backend.bareiss.s", "s", "lower"),
    ("backend.bareiss.max_bits", "bits", "lower"),
    ("backend.self_s", "s", "lower"),
    ("series.mul.calls", "count", "lower"),
    ("series.mul.s", "s", "lower"),
    ("series.inverse.s", "s", "lower"),
    ("series.pow.s", "s", "lower"),
    ("series.pochhammer.calls", "count", "lower"),
    ("series.pochhammer.s", "s", "lower"),
    ("series.lattice.max_denom", "count", "lower"),
    ("series.coeffs.max_bits", "bits", "lower"),
    ("series.coeffs.fraction_int_ratio", "ratio", "lower"),
    ("series.self_s", "s", "lower"),
    ("characters.tau_fill.n", "count", "lower"),
    ("characters.tau_fill.s", "s", "lower"),
    ("characters.tau_scan.s", "s", "lower"),
    ("characters.self_s", "s", "lower"),
    ("quantities.rq_series.s", "s", "lower"),
    ("quantities.rq_star_series.s", "s", "lower"),
    ("quantities.product_over_X.s", "s", "lower"),
    ("quantities.agile_series.s", "s", "lower"),
    ("quantities.eta_quotient_series.s", "s", "lower"),
    ("quantities.verify.s", "s", "lower"),
    ("quantities.verify.steps", "count", "higher"),
    ("quantities.self_s", "s", "lower"),
    ("linalg.nullspace.calls", "count", "lower"),
    ("linalg.nullspace.s", "s", "lower"),
    ("linalg.nullspace.rows", "count", "lower"),
    ("linalg.nullspace.cols", "count", "lower"),
    ("linalg.nullspace.nullity", "count", "lower"),
    ("linalg.self_s", "s", "lower"),
    ("modeq.mine.s", "s", "lower"),
    ("modeq.recipe_build.s", "s", "lower"),
    ("modeq.verify_relation.calls", "count", "lower"),
    ("modeq.verify_relation.s", "s", "lower"),
    ("modeq.candidates", "count", "lower"),
    ("modeq.kept", "count", "higher"),
    ("modeq.kept_ratio", "ratio", "higher"),
    ("modeq.self_s", "s", "lower"),
    ("numerics.singular_modulus.calls", "count", "lower"),
    ("numerics.singular_modulus.s", "s", "lower"),
    ("numerics.elliptic_K.calls", "count", "lower"),
    ("numerics.mp_clone.calls", "count", "lower"),
    ("numerics.eval_rq.s", "s", "lower"),
    ("numerics.eval_series.s", "s", "lower"),
    ("numerics.eval_cf.s", "s", "lower"),
    ("numerics.recognize.s", "s", "lower"),
    ("numerics.self_s", "s", "lower"),
    ("cli.dispatch.calls", "count", "lower"),
    ("cli.dispatch.s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
]


def per_layer_metrics(tracer: Tracer, batches: int) -> dict:
    """Every per-layer metric, per batch of jobs (totals / batches).

    ``max_*``, rows and cols are the largest value seen, and ratios are
    taken over the whole run.  ``cli.dispatch.s`` is the self time of the
    ``cli`` layer, which is where ``dispatch`` spends its own time.
    """
    layer_self = {}
    for name, s in tracer.stats.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + s.self_time
    out = {}
    for metric, unit, _ in PER_LAYER:
        prefix, _, field = metric.rpartition(".")
        if metric in RATIOS:
            num, den = (tracer.counts.get(k, 0) for k in RATIOS[metric])
            value = num / den if den else 0.0
        elif metric in MAXIMA:
            value = tracer.maxima.get(metric, 0)
        elif metric == "cli.dispatch.s":
            value = layer_self.get("cli", 0.0) / batches
        elif field == "self_s":
            value = layer_self.get(prefix, 0.0) / batches
        elif prefix in SPANS and field in ("calls", "s"):
            s = tracer.stats.get(SPANS[prefix])
            if s is None:
                value = 0.0
            else:
                value = (s.calls if field == "calls" else s.total) / batches
        else:
            value = tracer.counts.get(metric, 0) / batches
        out[metric] = {"value": value, "unit": unit}
    return out
