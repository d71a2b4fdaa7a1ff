"""Outside-in tracer for the nto1 package.

The tracer wraps public functions and methods of every nto1 module from
the benchmark's side; nothing under src/ knows it exists.  A wrapped
function records a span (metric name, start, end, parent span) into flat
in-memory arrays, or only bumps a counter where a span per call would cost
more than the call itself.  Per-layer metrics are derived from the spans
once the pass is over:

  <metric>.calls   number of spans
  <metric>.s       inclusive seconds; a span nested inside a span of the
                   same metric is not counted twice
  <layer>.self_s   span time of the layer minus the time of child spans

A module-level function is replaced at its defining module and at every
alias inside the package (``from .counting import classify`` binds
``classify`` in five modules, ``verify.RUNNERS`` holds the runners).
``install`` ends with a self-check that raises when a listed target is
missing or an alias still points at the unwrapped function, so a rename
inside the package fails the benchmark instead of reading as zero.
"""

import array
import functools
import importlib
import sys
import time
import weakref

import numpy as np

LAYERS = ("fields", "polys", "counting", "walsh", "lowdeg", "families",
          "diagrams", "verify", "cli")

# Every theorem id the benchmark expects in verify.RUNNERS.
THEOREM_IDS = (
    "monomial", "linearized", "de3p3", "de3pne3", "quartic", "walsh",
    "agwcore2", "miu2", "miu3", "nmiu3", "piecewisegenerel", "gouzao1",
    "gouzao2", "gouzao3", "2gouzao1", "2gouzao2", "zcriterion", "normalize",
)

FAMILY_BUILDERS = (
    "build_additive_split", "build_linearized_mix", "build_coset_power",
    "build_norm_lift", "build_two_branch_lift", "build_branch_interpolation",
    "build_translate_link", "build_shift_power", "solve_piecewise",
)
FAMILY_PREDICATES = (
    "branch_constant_predicate", "branch_case_predicate",
    "shift_power_predicate",
)
SCALAR_OPS = ("add", "sub", "neg", "mul", "inv", "div", "pow")


class TraceSetupError(RuntimeError):
    """A listed target is missing, or an alias escaped wrapping."""


def _references(mods):
    """(where, value) for every module global of mods, every class
    attribute of their classes, and every item of a container held there."""
    for mod in mods:
        spaces = [(mod.__name__, vars(mod))]
        spaces += [(f"{mod.__name__}.{k}", vars(v)) for k, v in vars(mod).items()
                   if isinstance(v, type) and v.__module__ == mod.__name__]
        for label, space in spaces:
            for k, v in space.items():
                yield f"{label}.{k}", v
                if isinstance(v, dict):
                    items = v.values()
                elif isinstance(v, (list, tuple, set, frozenset)):
                    items = v
                else:
                    continue
                for item in items:
                    yield f"{label}.{k}[...]", item


class Tracer:
    def __init__(self):
        self.metric_names = []
        self._metric_ids = {}
        self._depth = []
        self.span_metric = array.array("i")
        self.span_parent = array.array("i")
        self.span_outer = array.array("b")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.current = -1
        self.counters = dict.fromkeys((
            "fields.add_vec.elems", "polys.eval_all.elems",
            "counting.histogram.elems", "counting.histogram.dict_calls",
            "lowdeg.quartic.tried"), 0)
        self.keys = {}
        self._fields = weakref.WeakSet()
        self._embeds = weakref.WeakSet()
        self._table_bytes_max = 0
        self._wrapped = []  # (original, wrapper, owner, attr)

    # -- recording ----------------------------------------------------------

    def _metric_id(self, metric):
        if metric not in self._metric_ids:
            self._metric_ids[metric] = len(self.metric_names)
            self.metric_names.append(metric)
            self._depth.append(0)
        return self._metric_ids[metric]

    def span(self, metric, fn, when=None, after=None):
        """Wrap fn so each call records a span; ``when(args)`` false skips
        the span, ``after(args, result)`` runs outside the timed region."""
        mid = self._metric_id(metric)
        tracer = self
        names, parents, outer = self.span_metric, self.span_parent, self.span_outer
        starts, ends, depth = self.span_start, self.span_end, self._depth
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            i = len(names)
            names.append(mid)
            parents.append(tracer.current)
            outer.append(depth[mid] == 0)
            ends.append(0)
            depth[mid] += 1
            tracer.current = i
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                depth[mid] -= 1
                tracer.current = parents[i]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def count(self, counter, fn):
        """Wrap fn so each call only bumps a counter (no span)."""
        counters = self.counters
        counters.setdefault(counter, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, counter, amount):
        self.counters[counter] += amount

    def key(self, name, value):
        self.keys.setdefault(name, set()).add(value)

    def sample_table_bytes(self, *_):
        """Largest total nbytes of the arrays held by live Field and
        SubfieldEmbed objects, sampled after every table build."""
        total = 0
        for obj in list(self._fields) + list(self._embeds):
            for v in vars(obj).values():
                if isinstance(v, np.ndarray):
                    total += v.nbytes
        self._table_bytes_max = max(self._table_bytes_max, total)

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every target in the nto1 package, then self-check."""
        fields, polys, counting, walsh, lowdeg, families, diagrams, verify, cli = (
            importlib.import_module(f"nto1.{name}") for name in LAYERS)
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "nto1" or name.startswith("nto1.")]
        missing = sorted(set(THEOREM_IDS) ^ set(verify.RUNNERS))
        if missing:
            raise TraceSetupError(f"verify.RUNNERS and the benchmark disagree on {missing}")

        Field, SubfieldEmbed = fields.Field, fields.SubfieldEmbed
        Poly, LinearizedPoly = polys.Poly, polys.LinearizedPoly

        def method(cls, name, wrap):
            fn = vars(cls).get(name)
            if fn is None:
                raise TraceSetupError(f"{cls.__module__}.{cls.__name__}.{name} no longer exists")
            w = wrap(fn)
            setattr(cls, name, w)
            self._wrapped.append((fn, w, cls, name))

        def function(module, name, wrap):
            fn = getattr(module, name, None)
            if fn is None:
                raise TraceSetupError(f"{module.__name__}.{name} no longer exists")
            w = wrap(fn)
            for mod in mods:
                for k, v in list(vars(mod).items()):
                    if v is fn:
                        setattr(mod, k, w)
                    elif isinstance(v, dict):
                        for dk, dv in list(v.items()):
                            if dv is fn:
                                v[dk] = w
            self._wrapped.append((fn, w, None, name))

        # fields
        def field_built(args, _):
            f = args[0]
            self._fields.add(f)
            self.key("fields.field_init", (f.p, f.m, f.modulus))

        method(Field, "__init__", lambda fn: self.span("fields.field_init", fn, after=field_built))
        method(Field, "_ensure_tables", lambda fn: self.span(
            "fields.tables", fn, when=lambda a: a[0]._exp is None,
            after=self.sample_table_bytes))
        method(Field, "_digit_matrix", lambda fn: self.span(
            "fields.digit_matrix", fn, when=lambda a: a[0]._digits is None,
            after=self.sample_table_bytes))
        method(SubfieldEmbed, "__init__", lambda fn: self.span(
            "fields.subfield_embed", fn, after=lambda a, _: self._embeds.add(a[0])))
        method(Field, "add_vec", lambda fn: self.span(
            "fields.add_vec", fn, after=lambda a, r: self.add("fields.add_vec.elems", r.size)))
        for name in ("mul_vec", "pow_vec", "scalar_mul_vec"):
            method(Field, name, lambda fn, name=name: self.span(f"fields.{name}", fn))
        method(Field, "trace_to_prime_table", lambda fn: self.span(
            "fields.trace_table", fn, after=self.sample_table_bytes))
        method(SubfieldEmbed, "trace_table", lambda fn: self.span(
            "fields.trace_table", fn, after=self.sample_table_bytes))
        for name in SCALAR_OPS:
            method(Field, name, lambda fn: self.count("fields.scalar_ops.calls", fn))

        # polys
        method(Poly, "__init__", lambda fn: self.count("polys.poly_init.calls", fn))
        method(Poly, "eval_all", lambda fn: self.span(
            "polys.eval_all", fn, after=lambda a, r: self.add("polys.eval_all.elems", r.size)))
        method(Poly, "shift", lambda fn: self.span("polys.shift", fn))
        method(LinearizedPoly, "rank", lambda fn: self.span(
            "polys.rank", fn, after=lambda a, _: self.key("polys.rank", (
                a[0].ctx.p, a[0].ctx.m, a[0].ctx.modulus, a[0].q_sub, a[0].l_coeffs))))
        function(polys, "row_reduce", lambda fn: self.span("polys.row_reduce", fn))

        # counting
        map_types = (np.ndarray, Poly, LinearizedPoly)

        def histogram_done(args, result):
            self.add("counting.histogram.elems", sum(result.values()))
            if not isinstance(args[0], map_types):
                self.add("counting.histogram.dict_calls", 1)

        function(counting, "histogram", lambda fn: self.span(
            "counting.histogram", fn, after=histogram_done))
        function(counting, "classify", lambda fn: self.span("counting.classify", fn))
        function(counting, "is_n_to_1", lambda fn: self.span("counting.is_n_to_1", fn))

        # walsh
        for name in ("char_sum", "walsh_zero_table", "additive_convolution"):
            function(walsh, name, lambda fn, name=name: self.span(f"walsh.{name}", fn))

        # lowdeg
        function(lowdeg, "quartic_3to1_search", lambda fn: self.span(
            "lowdeg.quartic_search", fn,
            after=lambda a, r: self.add("lowdeg.quartic.tried", r.tried)))

        # families
        for name in FAMILY_BUILDERS:
            function(families, name, lambda fn: self.span("families.build", fn))
        for name in FAMILY_PREDICATES:
            function(families, name, lambda fn: self.span("families.predicate", fn))
        for name in ("holds", "holds_reduced"):
            method(families.FamilyInstance, name, lambda fn: self.span("families.holds", fn))

        # diagrams
        for name in ("verify_diagram", "transfer"):
            function(diagrams, name, lambda fn, name=name: self.span(f"diagrams.{name}", fn))

        # verify: one span per runner, plus run() itself for cli.emit
        for tid in THEOREM_IDS:
            fn = verify.RUNNERS[tid]
            function(verify, fn.__name__, lambda fn, tid=tid: self.span(f"verify.{tid}", fn))
        function(verify, "run", lambda fn: self.span("verify.run", fn))

        # cli
        function(cli, "main", lambda fn: self.span("cli.main", fn))

        self._self_check(mods, families)

    def _self_check(self, mods, families):
        unlisted = sorted(n for n in vars(families)
                          if n.startswith("build_") and n not in FAMILY_BUILDERS)
        if unlisted:
            raise TraceSetupError(f"families builders not traced: {unlisted}")
        originals = {}
        for fn, w, owner, attr in self._wrapped:
            if owner is not None and vars(owner).get(attr) is not w:
                raise TraceSetupError(f"{owner.__name__}.{attr} is not wrapped")
            originals[id(fn)] = attr
        for where, v in _references(mods):
            if id(v) in originals:
                raise TraceSetupError(f"{where} still holds unwrapped {originals[id(v)]}")

    # -- results ---------------------------------------------------------------

    def spans(self):
        """The recorded spans as numpy arrays (times in ns)."""
        return {
            "metric_names": np.array(self.metric_names),
            "metric": np.frombuffer(self.span_metric, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.span_start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.span_end, dtype=np.int64).copy(),
        }

    def metrics(self):
        """Every per-layer metric derivable from the spans and counters."""
        metric = np.frombuffer(self.span_metric, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        outer = np.frombuffer(self.span_outer, dtype=np.int8).astype(bool)
        dur = (np.frombuffer(self.span_end, dtype=np.int64)
               - np.frombuffer(self.span_start, dtype=np.int64)) / 1e9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child[:len(dur)]
        calls = np.bincount(metric, minlength=len(self.metric_names))
        incl = np.bincount(metric[outer], weights=dur[outer],
                           minlength=len(self.metric_names))
        own = np.bincount(metric, weights=self_t, minlength=len(self.metric_names))

        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for i, name in enumerate(self.metric_names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(incl[i])
            layer_self[name.split(".")[0]] += float(own[i])
        for layer, v in layer_self.items():
            out[f"{layer}.self_s"] = v
        out.update(self.counters)

        def ratio(num, den):
            return num / den if den else 0.0

        out["fields.tables.builds"] = out["fields.tables.calls"]
        out["fields.table_bytes.max"] = self._table_bytes_max
        for name in ("fields.field_init", "polys.rank"):
            out[f"{name}.unique_ratio"] = ratio(len(self.keys.get(name, ())),
                                                out[f"{name}.calls"])
        out["counting.dict_maps.share"] = ratio(
            out["counting.histogram.dict_calls"], out["counting.histogram.calls"])
        cli_main = self._metric_ids["cli.main"]
        under_cli = (metric == self._metric_ids["verify.run"]) & has_parent
        under_cli[under_cli] = metric[parent[under_cli]] == cli_main
        out["cli.emit.s"] = out["cli.main.s"] - float(dur[under_cli].sum())
        return out
