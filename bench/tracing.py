"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps every public module-level function of the eqcartan
modules and re-binds the wrapper under every module attribute that holds the
original (re-exports such as ``eqcartan.cartan.cohomology_over_novikov_field``
and the package namespace included), so calls through any name are seen.
Scalar and operator methods (``NovikovElem``, ``USeries``, ``ScalarSetup``,
``OperatorMatrix.compose``, ``QuantumRing.star_useries``) are wrapped as
counters only: they run too often for a span each.  ``uninstall`` restores
the originals, so the untimed and measured runs carry no wrappers.

Spans are kept in memory as ``[name, start, end, parent]`` and written out
once at the end; ``self_times`` then derives each span's self time, its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import Counter

MODULES = ("novikov", "linalg", "complexes", "cartan", "quantum", "finite2",
           "morse", "schema", "cli")

# span names that differ from "<module>.<function>"
RENAMED = {"complexes.cohomology_over_novikov_field": "complexes.cohomology"}
for _name in ("setup_from", "complex_from", "differential_family_from",
              "cartan_from", "lambda_family_from", "quantum_from", "z2_from",
              "cone_from"):
    RENAMED[f"schema.{_name}"] = "schema.objects"


def _len2(matrix):
    return len(matrix) * (len(matrix[0]) if matrix else 0)


def _row_reduce_work(counts, args, out):
    counts["linalg.row_reduce.cells"] += _len2(args[0])
    counts["linalg.row_reduce.pivots"] += len(out.pivots)


def _dvr_work(counts, args, out):
    counts["complexes.dvr_diagonalize.cells"] += _len2(args[0])


def _invert_work(counts, args, out):
    counts["novikov.invert_truncated.out_terms"] += len(out.terms)


WORK = {"linalg.row_reduce": _row_reduce_work,
        "complexes.dvr_diagonalize": _dvr_work,
        "novikov.invert_truncated": _invert_work}


def _elem_mul_work(counts, args):
    counts["novikov.elem_mul.term_products"] += (len(args[0].terms)
                                                 * len(args[1].terms))


# (module, class, attribute, counter name, extra work counter)
METHODS = (
    ("novikov", "NovikovElem", "__add__", "novikov.elem_add", None),
    ("novikov", "NovikovElem", "__mul__", "novikov.elem_mul", _elem_mul_work),
    ("novikov", "NovikovElem", "build", "novikov.build", None),
    ("novikov", "USeries", "__mul__", "novikov.useries_mul", None),
    ("novikov", "ScalarSetup", "__eq__", "novikov.setup_eq", None),
    ("complexes", "OperatorMatrix", "compose", "complexes.compose", None),
    ("quantum", "QuantumRing", "star_useries", "quantum.star_useries", None),
)


class Tracer:
    """Spans and counters for calls into eqcartan, active only inside
    ``instance()`` so that input generation and checks are not recorded."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.active = False
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    @contextlib.contextmanager
    def instance(self):
        """The root span of one instance; calls inside it are recorded."""
        sid = self._open("instance")
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self._close(sid)

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def _count_undetermined(self, exc):
        # a nested wrapper sees the same exception again on its way out
        if not getattr(exc, "_bench_counted", False):
            exc._bench_counted = True
            self.counts["linalg.undetermined"] += 1

    def _span_wrapper(self, name, fn, undetermined):
        work = WORK.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.counts[name + ".calls"] += 1
            sid = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            except undetermined as exc:
                tracer._count_undetermined(exc)
                raise
            finally:
                tracer._close(sid)
            if work is not None:
                work(tracer.counts, args, out)
            return out
        return wrapper

    def _count_wrapper(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name + ".calls"] += 1
                if work is not None:
                    work(tracer.counts, args)
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"eqcartan.{m}") for m in MODULES}
        undetermined = mods["linalg"].UndeterminedError
        wrappers = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    name = RENAMED.get(f"{short}.{attr}", f"{short}.{attr}")
                    wrappers[fn] = self._span_wrapper(name, fn, undetermined)
        package = importlib.import_module("eqcartan")
        for mod in [package, *mods.values()]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        for short, cls_name, attr, name, work in METHODS:
            cls = getattr(mods[short], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(self._count_wrapper(name, raw.__func__,
                                                           work))
            else:
                wrapped = self._count_wrapper(name, raw, work)
            self._patch(cls, attr, wrapped)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------

    def dump(self, path, extra=None):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       **(extra or {})}, fh)


def self_times(spans):
    """Total self time per span name: duration minus the children's.

    ``spans`` is a list of [name, start, end, parent] with parent an index
    into the list or -1.  Children of one span never overlap (calls are
    nested in one thread), so subtracting their durations is exact.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = Counter()
    for i, (name, start, end, _parent) in enumerate(spans):
        out[name] += (end - start) - child_time[i]
    return out
