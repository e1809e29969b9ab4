"""Call tracing from outside the program.

The tracer wraps the package's public functions in every namespace that
binds them -- module globals, the package namespace and the verify suite
table -- so calls between layers are seen where the caller makes them (for
example ``index.stopping_value`` as called by ``break_even_value``).  Each
call records a span: name, start, end and parent span.  Spans are kept in
compact arrays in memory and written out once, when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from counts import stopping_states, two_armed_states

def _counter_for(qual: str, suites):
    """Closed-form work counted per call: lattice states of each solve and
    of each stopping pass, instances per suite, samples per simulation."""
    if qual in ("solver.value", "solver.value_exact"):
        return lambda a, kw, r: {qual + ".states": two_armed_states(a[0] if a else kw["state"])}
    if qual in ("solver.stopping_value", "solver.stopping_value_exact"):
        return lambda a, kw, r: {qual + ".states": stopping_states(a[0], a[2])}
    if qual == "verify.simulate_policy":
        return lambda a, kw, r: {qual + ".samples": a[1] if len(a) > 1 else kw["trials"]}
    if qual.startswith("verify.") and qual.split(".", 1)[1] in suites:
        return lambda a, kw, r: {qual + ".instances": r.trials}
    return None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self.current = -1
        self.active = False
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, qual: str, options_pos: int | None, suites=()):
        """``fn`` recording a span named ``qual`` per call while the tracer
        is active; ``options_pos`` locates its SolverOptions argument."""
        tracer = self
        exact_qual = qual + "_exact"
        count = _counter_for(qual, suites)
        count_exact = _counter_for(exact_qual, suites)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name, counter = qual, count
            if options_pos is not None:
                opts = args[options_pos] if len(args) > options_pos else kwargs.get("options")
                if opts is not None and opts.exact:
                    name, counter = exact_qual, count_exact
            sid = len(tracer.t0)
            tracer.name_id.append(tracer._nid(name))
            tracer.parent.append(tracer.current)
            tracer.t0.append(0.0)
            tracer.t1.append(0.0)
            parent, tracer.current = tracer.current, sid
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.t1[sid] = perf_counter()
                tracer.t0[sid] = t0
                tracer.current = parent
            if counter is not None:
                for k, v in counter(args, kwargs, result).items():
                    tracer.counters[k] += v
            return result

        return functools.update_wrapper(traced, fn)

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of every module of ``package``."""
        modules = _package_modules(package)
        verify = package.verify
        suite_of = {fn: name for name, fn in verify.SUITES.items()}
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    qual = f"verify.{suite_of[obj]}" if obj in suite_of else f"{short}.{name}"
                    # Solver calls in exact mode get their own span name, so
                    # exact solves are timed apart from float ones.
                    params = list(inspect.signature(obj).parameters)
                    pos = params.index("options") if short == "solver" and "options" in params else None
                    wrappers[obj] = self.wrap(obj, qual, pos, verify.SUITES)
        for ns_owner in modules + [package]:
            for name, obj in list(vars(ns_owner).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((ns_owner, name, obj))
                    setattr(ns_owner, name, wrappers[obj])
        for name, fn in list(verify.SUITES.items()):
            self._patched.append((verify.SUITES, name, fn))
            verify.SUITES[name] = wrappers[fn]

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._patched):
            if isinstance(owner, dict):
                owner[name] = fn
            else:
                setattr(owner, name, fn)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        t0 = np.frombuffer(self.t0, dtype=np.float64)
        t1 = np.frombuffer(self.t1, dtype=np.float64)
        return name_id, parent, t0, t1

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive seconds ``s`` (outermost
        spans of that name only, so recursion is not counted twice) and
        ``self_s`` (time not covered by child spans)."""
        name_id, parent, t0, t1 = self.arrays()
        dur = t1 - t0
        has_parent = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        parent_name = np.full_like(name_id, -1)
        parent_name[has_parent] = name_id[parent[has_parent]]
        outermost = parent_name != name_id
        n = len(self.names)
        calls = np.bincount(name_id, minlength=n)
        incl = np.bincount(name_id, weights=np.where(outermost, dur, 0.0), minlength=n)
        selfs = np.bincount(name_id, weights=self_t, minlength=n)
        return {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(selfs[i])}
            for i, name in enumerate(self.names)
        }

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is a
        ``parent_name`` span."""
        if parent_name not in self._name_ids or child_name not in self._name_ids:
            return 0
        name_id, parent, _, _ = self.arrays()
        pid, cid = self._name_ids[parent_name], self._name_ids[child_name]
        is_child = (name_id == cid) & (parent >= 0)
        return int(np.count_nonzero(name_id[parent[is_child]] == pid))

    def save(self, path) -> None:
        name_id, parent, t0, t1 = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent, t0=t0, t1=t1)


def _package_modules(package):
    prefix = package.__name__ + "."
    return [m for k, m in sorted(sys.modules.items()) if k.startswith(prefix) and m is not None]
