"""Outside-in tracer for the skewtorsion package.

The tracer wraps public functions of the package from the benchmark's own
code; nothing inside ``src/`` changes.  Modules copy names with
``from .connections import curvature``, so each wrapped function is
replaced in every namespace of the package that binds it, and methods are
replaced on their class (aliases such as ``__radd__ = __add__`` included).

Three kinds of probe exist:

* spans record calls, total and self time.  Self time is the span's
  duration minus the time of the spans it directly encloses on the same
  thread; each thread keeps its own span stack, because ``scan`` runs a
  thread pool.
* counters record calls only; they wrap the jet arithmetic, which runs far
  too often for a timed span.
* outermost spans record only the outermost call of a recursive function
  (the JSON emitters of the CLI).
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from contextlib import contextmanager

PACKAGE = "skewtorsion"

# span name -> the functions it wraps, as "module:attribute" or
# "module:Class.method" (module names relative to the package)
SPANS = {
    "charts.at": ["charts:InvariantChart.at"],
    "charts.H_at": ["charts:InvariantForm.at"],
    "charts.quadrature": ["charts:InvariantChart.quadrature"],
    "charts.bonneau_chart": ["charts:bonneau_chart"],
    "connections.levi_civita": ["connections:levi_civita"],
    "connections.with_skew_torsion": ["connections:with_skew_torsion"],
    "connections.curvature": ["connections:curvature"],
    "connections.curvature_via_eq1": ["connections:curvature_via_eq1"],
    "connections.exterior_ops": ["connections:exterior_ops"],
    "connections.identity_suite": ["connections:identity_suite"],
    "frame.operator_from_tensor": ["frame:operator_from_tensor"],
    "decomposition.decompose_point": ["decomposition:decompose_point"],
    "decomposition.einstein_tensor_point": ["decomposition:einstein_tensor_point"],
    "instanton.induced_lambda_plus": ["instanton:induced_lambda_plus"],
    "instanton.gauge_equivalence_probe": ["instanton:gauge_equivalence_probe"],
    # the probe's batched SVD; no other module of the package calls svd
    "instanton.svd": ["numpy.linalg:svd"],
    "topology.integrate_invariant": ["topology:integrate_invariant"],
    "topology.hitchin_thorpe_report": ["topology:hitchin_thorpe_report"],
    "weyl.weyl_connection": ["weyl:weyl_connection"],
    "weyl.torsion_weyl_roundtrip": ["weyl:torsion_weyl_roundtrip"],
    "moduli.r_coordinate": ["moduli:r_coordinate"],
    # scipy's quad as moduli binds it: one call per integration segment
    "moduli.quad": ["moduli:quad"],
    "moduli.nijenhuis_norm": ["moduli:nijenhuis_norm"],
    "cli.scan": ["cli:cmd_scan"],
    "cli.scan_row": ["cli:_scan_row"],
}

OUTERMOST = {
    "cli.emit": ["cli:_to_jsonable", "cli:_dump_json"],
}
# the emitter whose outermost result is the JSON text the CLI writes
EMITTER = "cli:_dump_json"

COUNTERS = {
    "jets.ops": [f"jets:Jet.{m}" for m in (
        "__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
        "__truediv__", "__rtruediv__", "__pow__")]
    + [f"jets:{f}" for f in (
        "sqrt", "exp", "log", "sin", "cos", "arctan", "arctan_minus_id", "where")],
}

# names whose calls and self time the traced run reports per operation
LAYER_NAMES = list(SPANS) + list(OUTERMOST)


def _resolve(spec: str):
    """(owner, attribute, function) for a "module:attr" specification."""
    mod_name, _, path = spec.partition(":")
    if not mod_name.startswith("numpy"):
        mod_name = f"{PACKAGE}.{mod_name}"
    owner = importlib.import_module(mod_name)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr, getattr(owner, attr)


def _bindings(owner, fn):
    """Every (namespace, name) of the package, and of ``owner``, bound to fn."""
    spaces = [owner] + [m for n, m in list(sys.modules.items())
                        if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    seen, out = set(), []
    for space in spaces:
        if id(space) in seen:
            continue
        seen.add(id(space))
        for name, value in list(vars(space).items()):
            if value is fn:
                out.append((space, name))
    return out


class _ThreadState:
    __slots__ = ("stack", "active", "spans", "counts", "nbytes")

    def __init__(self):
        self.stack = []      # child-time accumulators of the open spans
        self.active = set()  # outermost-only spans open on this thread
        self.spans = {}      # name -> [calls, total_s, self_s]
        self.counts = {}     # name -> calls
        self.nbytes = 0      # bytes returned by outermost JSON emission


class Tracer:
    """Patches the package, accumulates per-thread statistics, restores."""

    def __init__(self):
        self._specs = [(n, s, "span") for n, ss in SPANS.items() for s in ss]
        self._specs += [(n, s, "outer") for n, ss in OUTERMOST.items() for s in ss]
        self._specs += [(n, s, "count") for n, ss in COUNTERS.items() for s in ss]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._patched = []

    # -- per-thread state -----------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, outermost=False, count_bytes=False):
        state = self._state
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st = state()
            if outermost:
                if name in st.active:
                    return fn(*args, **kwargs)
                st.active.add(name)
            st.stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if count_bytes:
                    st.nbytes += len(result)
                return result
            finally:
                dt = clock() - t0
                child = st.stack.pop()
                if st.stack:
                    st.stack[-1] += dt
                if outermost:
                    st.active.discard(name)
                rec = st.spans.get(name)
                if rec is None:
                    rec = st.spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child

        return wrapper

    def _counter(self, name, fn):
        state = self._state

        def wrapper(*args, **kwargs):
            counts = state().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self):
        for name, spec, kind in self._specs:
            owner, _, fn = _resolve(spec)
            if kind == "count":
                wrapper = self._counter(name, fn)
            else:
                wrapper = self._span(name, fn, outermost=(kind == "outer"),
                                     count_bytes=(spec == EMITTER))
            wrapper.__wrapped__ = fn
            for space, attr in _bindings(owner, fn):
                setattr(space, attr, wrapper)
                self._patched.append((space, attr, fn))

    def uninstall(self):
        for space, attr, fn in reversed(self._patched):
            setattr(space, attr, fn)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results --------------------------------------------------------------

    def totals(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} summed over threads."""
        out = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (calls, total, self_s) in list(st.spans.items()):
                rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                rec["calls"] += calls
                rec["total_s"] += total
                rec["self_s"] += self_s
            for name, calls in list(st.counts.items()):
                rec = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                rec["calls"] += calls
        return out

    def emitted_bytes(self) -> int:
        with self._lock:
            return sum(st.nbytes for st in self._states)


@contextmanager
def observe(record: dict):
    """Record the chart batches and thread pools the package uses in the block.

    ``record["batches"]`` collects the batch size of every chart evaluation
    and ``record["workers"]`` the size of every scan thread pool.  Used
    around the untimed warm-up operations, to state the grids a command
    evaluates against the grid it was asked for.
    """
    batches = record.setdefault("batches", [])
    workers = record.setdefault("workers", [])
    chart_cls, _, at = _resolve("charts:InvariantChart.at")
    cli, _, pool = _resolve("cli:ThreadPoolExecutor")

    def observed_at(self, x):
        pt = at(self, x)
        batches.append(int(pt.npoints))
        return pt

    class ObservedPool(pool):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            workers.append(int(self._max_workers))

    chart_cls.at = observed_at
    cli.ThreadPoolExecutor = ObservedPool
    try:
        yield record
    finally:
        chart_cls.at = at
        cli.ThreadPoolExecutor = pool
