"""In-memory spans around the calls into hypframe's layers.

`Tracer` rebinds module and class attributes to timing wrappers and puts
every original back on exit.  Each call records a span (name, start, end,
parent); a span's self time is its duration minus that of its direct
children.  Spans live in flat arrays until `write_spans` dumps them.

The bindings are the ones the engine calls through at run time:

* the ``eval_expr`` and ``vectorized`` names bound in framedcurve, focal
  and evolute (not ``symexpr.eval_expr``, so recursion stays unwrapped);
* ``propagate`` on the active kernel module, looked up at call time;
* ``integrate_frame`` as bound in pipeline and cli, and the per-t methods
  of ``FramedCurveModel``;
* every public function of focal, evolute and duality, in each module
  that binds it (evolute binds some of focal's by name);
* load_spec, run_pipeline, the exporters and ``RunReport.write``.
"""

from __future__ import annotations

import dataclasses
import gzip
import inspect
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []
        self._patches = []
        self._restored = []
        self.counts = Counter()
        self.frenet_ts = set()
        self.models = []

    # -- spans ----------------------------------------------------------

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span_functions(self, name):
        """open() -> span index and close(index) for spans called `name`."""
        nid = self._id(name)
        stack, starts, ends = self._stack, self.start, self.end
        push_name, push_parent = self.name_id.append, self.parent.append
        push_start, push_end = starts.append, ends.append
        clock = time.perf_counter

        def open_():
            idx = len(starts)
            push_name(nid)
            push_parent(stack[-1] if stack else -1)
            push_end(0.0)
            stack.append(idx)
            push_start(clock())
            return idx

        def close(idx):
            ends[idx] = clock()
            stack.pop()

        return open_, close

    def timed(self, name, fn, *args, **kwargs):
        """Call fn inside a span called `name`."""
        open_, close = self._span_functions(name)
        idx = open_()
        try:
            return fn(*args, **kwargs)
        finally:
            close(idx)

    def _wrapper(self, name, fn, after=None):
        open_, close = self._span_functions(name)

        def wrapper(*args, **kwargs):
            idx = open_()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------

    def rebind(self, owner, attr, make):
        """Replace owner.attr by make(original); __exit__ puts it back."""
        original = inspect.getattr_static(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def patch(self, owner, attr, name, after=None):
        self.rebind(owner, attr, lambda fn: self._wrapper(name, fn, after))

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self.__exit__()
            raise
        return self

    def _install(self):
        import hypframe.cli as cli
        import hypframe.duality as duality
        import hypframe.evolute as evolute
        import hypframe.focal as focal
        import hypframe.framedcurve as framedcurve
        import hypframe.pipeline as pipeline

        count = self.counts

        for mod in (framedcurve, focal, evolute):
            self.patch(mod, "eval_expr", "symexpr.eval_expr")

        def vectorized(compile_):
            # time the compilation and every call of the compiled closure
            timed = self._wrapper("symexpr.vectorized", compile_)
            return lambda e: self._wrapper("symexpr.vectorized", timed(e))

        self.rebind(framedcurve, "vectorized", vectorized)

        def propagated(args, result):
            count["propagation.substeps"] += int(sum(args[2]))
            count["propagation.corrections"] += int(result[1])

        self.patch(framedcurve._kernel, "propagate", "propagation.propagate", propagated)

        for mod in (pipeline, cli):
            self.patch(mod, "integrate_frame", "framedcurve.integrate_frame",
                       lambda args, model: self.models.append(model))
        model_cls = framedcurve.FramedCurveModel
        self.patch(model_cls, "frenet_data_at", "framedcurve.frenet_data_at",
                   lambda args, _: self.frenet_ts.add(float(args[1])))
        self.patch(model_cls, "frame_at", "framedcurve.frame_at")
        self.patch(model_cls, "frenet_frame_at", "framedcurve.frenet_frame_at")

        def located(args, records):
            count["focal.records"] += len(records)

        def corresponded(args, report):
            for leg in (report.hyperbolic, report.desitter):
                count["evolute.events"] += len(leg.events or ())

        def sampled(args, sample):
            count["duality.kept"] += 1

        after = {"focal.singular_locus_h": located, "focal.singular_locus_d": located,
                 "evolute.correspondence_check": corresponded,
                 "duality.pair_sample": sampled}
        homes = {m.__name__ for m in (focal, evolute, duality)}
        for mod in (focal, evolute, duality):
            for attr, value in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ not in homes):
                    continue
                name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                self.patch(mod, attr, name, after.get(name))

        for attr in ("load_spec", "run_pipeline", "export_obj", "export_loci_csv"):
            self.patch(pipeline, attr, f"pipeline.{attr}")
        self.patch(pipeline.RunReport, "write", "pipeline.RunReport.write")

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._restored.extend(self._patches)
        self._patches.clear()
        return False

    def not_restored(self):
        """Names of patched bindings that do not hold their original object."""
        return sorted(f"{getattr(owner, '__name__', owner)}.{attr}"
                      for owner, attr, original in self._restored
                      if inspect.getattr_static(owner, attr) is not original)

    # -- aggregation ----------------------------------------------------

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = Counter()
        incl = Counter()
        own = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            d = self.end[i] - self.start[i]
            calls[name] += 1
            incl[name] += d
            own[name] += d - child[i]
        return calls, incl, own

    def write_spans(self, path, spec):
        """Gzipped CSV of every span: spec, name, start, end, parent index."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("spec,name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{spec},{self.names[self.name_id[i]]},"
                         f"{self.start[i]!r},{self.end[i]!r},{self.parent[i]}\n")


def expression_counts(model):
    """(sum of tree sizes, structurally distinct nodes) of the model's
    Frenet expressions: the quartet, every cached FrenetExprs property and
    the model's derivative cache."""
    from hypframe.symexpr import Expr

    roots = []

    def collect(value):
        if isinstance(value, Expr):
            roots.append(value)
        elif isinstance(value, (list, tuple)):
            for v in value:
                collect(v)
        elif isinstance(value, dict):
            for v in value.values():
                collect(v)
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            for f in dataclasses.fields(value):
                collect(getattr(value, f.name))

    collect(tuple(model.quartet))
    collect(dict(vars(model.frenet)))
    collect(model.__dict__.get("_expr_cache", {}))

    size = {}      # id(node) -> tree size
    canon = {}     # id(node) -> structural class
    classes = {}   # structural key -> class number
    for root in roots:
        stack = [(root, False)]
        while stack:
            node, ready = stack.pop()
            key = id(node)
            if key in size:
                continue
            kids = [getattr(node, f.name) for f in dataclasses.fields(node)]
            sub = [k for k in kids if isinstance(k, Expr)]
            if not ready:
                stack.append((node, True))
                stack.extend((k, False) for k in sub if id(k) not in size)
                continue
            size[key] = 1 + sum(size[id(k)] for k in sub)
            shape = (type(node).__name__,) + tuple(
                ("e", canon[id(k)]) if isinstance(k, Expr) else ("v", k) for k in kids)
            canon[key] = classes.setdefault(shape, len(classes))
    return sum(size[id(r)] for r in roots), len(classes)
