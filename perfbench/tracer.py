"""Per-layer tracing of osptwist, installed from outside the package.

The tracer replaces public functions and methods of the eight modules with
timing wrappers.  A module-level function is replaced in every osptwist
namespace that holds it, because several modules import names directly
(``twist`` and ``quantum`` import ``ue_invert`` and ``embed_legs``, ``pbw``
and ``rmatrix`` import ``kron_all``, ``rmatrix`` imports
``scalar_inverse``); patching only the defining module would miss those
calls.  Methods are patched on the class, under every name that holds the
same function (``Poly.__rmul__`` is ``Poly.__mul__``).  A caching property
(``Twist.inverse``, ``RMatrix.rep_matrix``) is traced only on the reads
that compute its value, so its ``calls`` count computations.

Three kinds of target:

* SPAN  - coarse layers (cli, twist, quantum, rmatrix, algebra builders,
  the series routines).  Every call is kept in memory as a span
  ``(id, name, start, end, parent id)`` and written out at exit.
* HOT   - kernels called up to millions of times (tensor and matrix
  products, Poly and LaurentSeries arithmetic).  Calls are folded into a
  per-name accumulator; no span object is kept.
* COUNT - ``normal_form``: only the call count (its time stays in the
  caller's self time, which is where a kernel change would show it).

Self time of a call is its duration minus the time of the wrapped calls it
made.  ``total_s`` of a name counts only its outermost calls, so recursion
(``rep_chain`` builds the second link from the first chain) is not counted
twice.  Tiny helpers called once per term (``scalar_is_zero``,
``monomial_g2``) are left unwrapped on purpose: a wrapper there would cost
more than the helper, and their time lands in the caller's self time.

``calibrate`` times one call through each kind of wrapper on a function
that does nothing; its cost per call times the exact call counts is
``trace.overhead_est_s``, an estimate of what the wrappers add.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

SPAN, HOT, COUNT = "span", "hot", "count"

MODULES = ("scalars", "repmat", "algebra", "pbw", "rmatrix", "twist", "quantum", "cli")


def _tensor_sizes(extra, args, result):
    a, b = args[0], args[1]
    if type(b) is type(a):
        extra["pairs_nominal"] += len(a.terms) * len(b.terms)
        extra["terms_out"] += len(result.terms)


def _matrix_entries(extra, args, result):
    extra["entries_out"] += len(result.entries)


def _largest_element(extra, args, result):
    extra["terms"] = max(extra["terms"], len(result.element.terms))


# The figures each counter keeps; they start at 0, so a layer a workload
# never enters still reports them.
COUNTER_KEYS = {
    _tensor_sizes: ("pairs_nominal", "terms_out"),
    _matrix_entries: ("entries_out",),
    _largest_element: ("terms",),
}

# Caching properties and the slot that holds the computed value.  Only a
# read that finds the slot empty runs the wrapper, so ``calls`` counts
# computations, not cache hits.
CACHE_SLOTS = {
    "Twist.inverse": "_inverse",
    "RMatrix.rep_matrix": "_rep",
}


# (module, attribute, metric name, kind[, counter]).  "Cls.attr" patches a
# method or a property getter.  Several targets may share one metric name.
TARGETS = (
    ("scalars", "Poly.__mul__", "scalars.poly_mul", HOT),
    ("scalars", "LaurentSeries.__mul__", "scalars.laurent_mul", HOT),
    ("scalars", "LaurentSeries.invert", "scalars.laurent_series", HOT),
    ("scalars", "LaurentSeries.exp", "scalars.laurent_series", HOT),
    ("scalars", "LaurentSeries.log", "scalars.laurent_series", HOT),
    ("repmat", "kron", "repmat.kron", HOT),
    ("repmat", "kron_all", "repmat.kron_all", HOT),
    ("repmat", "embed_legs", "repmat.embed_legs", HOT),
    ("repmat", "GradedMatrix.matmul", "repmat.matmul", HOT, _matrix_entries),
    ("repmat", "GradedMatrix.exp_nilpotent", "repmat.nilpotent_series", HOT),
    ("repmat", "GradedMatrix.log_unipotent", "repmat.nilpotent_series", HOT),
    ("algebra", "build_osp", "algebra.build_osp", SPAN),
    ("algebra", "check_jacobi", "algebra.check_jacobi", SPAN),
    ("algebra", "OspAlgebra.bracket", "algebra.bracket", HOT),
    ("algebra", "OspAlgebra.expand_in_basis", "algebra.expand_in_basis", HOT),
    ("algebra", "OspAlgebra.monomial_matrix", "algebra.monomial_matrix", HOT),
    ("pbw", "normal_form", "pbw.normal_form", COUNT),
    ("pbw", "scalar_inverse", "pbw.scalar_inverse", HOT),
    ("pbw", "UEElement.__mul__", "pbw.element_mul", HOT),
    ("pbw", "UETensor.__mul__", "pbw.tensor_mul", HOT, _tensor_sizes),
    ("pbw", "UETensor.__add__", "pbw.tensor_add", HOT),
    ("pbw", "UEElement.coproduct", "pbw.coproduct", HOT),
    ("pbw", "UETensor.coproduct_leg", "pbw.coproduct", HOT),
    ("pbw", "UEElement.to_matrix", "pbw.to_matrix", HOT),
    ("pbw", "UETensor.to_matrix", "pbw.to_matrix", HOT),
    ("pbw", "ue_exp", "pbw.series", SPAN),
    ("pbw", "ue_log", "pbw.series", SPAN),
    ("pbw", "ue_sqrt", "pbw.series", SPAN),
    ("pbw", "ue_series", "pbw.series", SPAN),
    ("pbw", "ue_invert", "pbw.ue_invert", SPAN),
    ("pbw", "ad_exp", "pbw.ad_exp", SPAN),
    ("rmatrix", "cybe_residual", "rmatrix.cybe_residual", SPAN),
    ("rmatrix", "spectral_residual_rational", "rmatrix.spectral_residual", SPAN),
    ("rmatrix", "cobracket_kernel", "rmatrix.cobracket_kernel", SPAN),
    ("rmatrix", "kernel_closed_under_bracket", "rmatrix.kernel_closed", SPAN),
    ("rmatrix", "span_contains", "rmatrix.span_contains", SPAN),
    ("rmatrix", "contraction_limit", "rmatrix.contraction_limit", SPAN),
    ("rmatrix", "casimir_tensor", "rmatrix.casimir_tensor", SPAN),
    ("rmatrix", "adjoint_action", "rmatrix.adjoint_action", HOT),
    ("rmatrix", "LieTensor.to_matrix", "rmatrix.to_matrix", SPAN),
    ("twist", "full_chain", "twist.full_chain", SPAN, _largest_element),
    ("twist", "extended_super_jordanian", "twist.extended_super_jordanian", SPAN),
    ("twist", "build_factor", "twist.build_factor", SPAN),
    ("twist", "Twist.inverse", "twist.inverse", SPAN),
    ("twist", "cocycle_residual", "twist.cocycle_residual", SPAN),
    ("twist", "twisted_coproduct", "twist.twisted_coproduct", SPAN),
    ("twist", "rep_factor", "twist.rep_factor", SPAN),
    ("twist", "rep_chain", "twist.rep_chain", SPAN),
    ("twist", "rep_cocycle_residual", "twist.rep_cocycle_residual", SPAN),
    ("twist", "rep_twist_matrix", "twist.rep_twist_matrix", SPAN),
    ("quantum", "universal_R", "quantum.universal_R", SPAN, _largest_element),
    ("quantum", "triangularity_residual", "quantum.triangularity", SPAN),
    ("quantum", "intertwining_residual", "quantum.intertwining", SPAN),
    ("quantum", "qybe_residual", "quantum.qybe", SPAN),
    ("quantum", "qybe_residual_rep", "quantum.qybe_rep", SPAN),
    ("quantum", "classical_limit", "quantum.classical_limit", SPAN),
    ("quantum", "exp_r_matrix", "quantum.exp_r_matrix", SPAN),
    ("quantum", "l_operator", "quantum.l_operator", SPAN),
    ("quantum", "rtt_residual", "quantum.rtt_residual", SPAN),
    ("quantum", "RMatrix.rep_matrix", "quantum.rep_matrix", SPAN),
    ("quantum", "LOperator.frt_residual", "quantum.frt_residual", SPAN),
    ("quantum", "LOperator.to_matrix", "quantum.l_to_matrix", SPAN),
    ("cli", "run_suite", "cli.run_suite", SPAN),
    ("cli", "main", "cli.main", SPAN),
)


class Stat:
    """Accumulator for one metric name."""

    __slots__ = ("kind", "calls", "total_s", "self_s", "depth", "extra")

    def __init__(self):
        self.kind = None
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.extra = {}


class Tracer:
    """Wrappers, their accumulators and the kept spans of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stats: dict[str, Stat] = {}
        self.spans: list = []
        # one frame per active wrapped call: [child time, enclosing span id]
        self._stack: list = [[0.0, None]]
        self._next_id = 0

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _wrap(self, fn, name, kind, counter):
        st = self.stat(name)
        st.kind = kind
        for key in COUNTER_KEYS.get(counter, ()):
            st.extra.setdefault(key, 0)
        if kind == COUNT:
            def counted(*args, **kwargs):
                st.calls += 1
                return fn(*args, **kwargs)
            return counted

        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        keep = kind == SPAN

        def timed(*args, **kwargs):
            st.calls += 1
            st.depth += 1
            parent_span = stack[-1][1]
            if keep:
                span_id = self._next_id
                self._next_id += 1
            else:
                span_id = parent_span
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st.self_s += dur - frame[0]
                stack[-1][0] += dur
                st.depth -= 1
                if not st.depth:
                    st.total_s += dur
                if keep:
                    spans.append((span_id, name, t0, t1, parent_span))
            if counter is not None:
                counter(st.extra, args, result)
            return result

        return timed

    @staticmethod
    def _cached_getter(fget, slot, wrapped):
        def getter(obj):
            if getattr(obj, slot) is None:
                return wrapped(obj)
            return fget(obj)
        return getter

    def install(self):
        """Patch every target; osptwist must already be imported."""
        mods = [m for k, m in list(sys.modules.items())
                if k == "osptwist" or k.startswith("osptwist.")]
        for target in TARGETS:
            modname, attr, name, kind = target[:4]
            counter = target[4] if len(target) > 4 else None
            mod = importlib.import_module("osptwist." + modname)
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[member]
                if isinstance(raw, property):
                    setattr(cls, member, property(self._cached_getter(
                        raw.fget, CACHE_SLOTS[attr], self._wrap(raw.fget, name, kind, counter))))
                    continue
                wrapped = self._wrap(raw, name, kind, counter)
                for key, value in list(cls.__dict__.items()):
                    if value is raw:
                        setattr(cls, key, wrapped)
            else:
                raw = getattr(mod, attr)
                wrapped = self._wrap(raw, name, kind, counter)
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            setattr(m, key, wrapped)

    def metrics(self, cost: dict) -> dict:
        """Per-layer figures, keyed by stable names (see BENCHMARK.json).
        ``cost`` is the per-call wrapper cost from ``calibrate``; times its
        exact call counts it gives the estimated tracing overhead."""
        st = self.stats.__getitem__
        out = {}
        for name, s in self.stats.items():
            out[name + ".calls"] = s.calls
            out[name + ".total_s"] = s.total_s
            out[name + ".self_s"] = s.self_s
            for key, value in s.extra.items():
                out["%s.%s" % (name, key)] = value
        series = [st("pbw.series"), st("pbw.ue_invert")]
        out["pbw.series.calls"] = sum(s.calls for s in series)
        out["pbw.series.self_s"] = sum(s.self_s for s in series)
        out["pbw.series.total_s"] = sum(s.total_s for s in series)
        out["twist.F.terms"] = st("twist.full_chain").extra["terms"]
        out["quantum.R.terms"] = st("quantum.universal_R").extra["terms"]
        for mod in MODULES:
            out[mod + ".self_s"] = sum(
                s.self_s for n, s in self.stats.items() if n.split(".")[0] == mod
            )
        out["trace.spans"] = len(self.spans)
        out["trace.overhead_est_s"] = sum(
            s.calls * cost[s.kind] for s in self.stats.values()
        )
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["id", "name", "start", "end", "parent"],
                    "spans": self.spans,
                },
                fh,
            )


def calibrate(calls=20000, repeats=5) -> dict:
    """Seconds that one call through each kind of wrapper adds, timed on
    a function that does nothing (best of ``repeats``).  The counters
    of COUNTER_KEYS are not included."""
    def noop(*args):
        return None

    probe = Tracer("calibration")
    clock = time.perf_counter
    cost = {}
    for kind in (SPAN, HOT, COUNT):
        best = []
        for fn in (noop, probe._wrap(noop, kind, kind, None)):
            times = []
            for _ in range(repeats):
                probe.spans.clear()
                t0 = clock()
                for _ in range(calls):
                    fn(None)
                times.append(clock() - t0)
            best.append(min(times))
        cost[kind] = max(0.0, (best[1] - best[0]) / calls)
    return cost
