"""End-to-end benchmark of the skewtorsion engine, driven from outside.

Usage, from the root of a checkout (needs ``src/skewtorsion``)::

    python3 benchmarks/run.py --workload coarse --seed 1 --seconds 20 --trace 0

One closed-loop client runs the workload's operations (see
``workloads.py``) in this process through ``skewtorsion.cli.main(argv)``
and ``skewtorsion.moduli.asymptotic_check(k)`` for ``--seconds``, checks
every output outside the timed region, and prints two JSON lines: the
provenance and per-command detail of the run, then the result::

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  Times are
reported at nominal host speed: a fixed calibration kernel (benchmark code
that shares nothing with the package) runs between operations, and each
latency is multiplied by ``NOMINAL_CAL_S`` over the mean kernel time
measured just before and after it.  On shared hosts the raw speed drifts
by tens of percent over seconds; the ratio to the kernel drifts by a few
percent.  Raw medians are in the detail line.

With ``--trace 1`` the run first measures untraced, then replays the same
operations under the tracer (``tracer.py``), and the metrics are the
per-layer calls and self times per operation plus the tracing overhead.

The run sets ``OPENBLAS_NUM_THREADS=1`` and unsets ``SKEW_THREADS``, so the
scan thread pool is the only parallelism.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

SETUP_RUNS = 3            # fresh-process imports per run; setup_s is their median
NOMINAL_CAL_S = 0.010     # calibration kernel time that defines nominal speed
TRACE_UNTRACED_SHARE = 0.4
P90_MIN_SAMPLES = 100

# workloads whose operations spread threads over every CPU; the others run
# one thread, pinned to one CPU so that the kernel measures the CPU they use
POOLED = {"scan"}

# detail names of op1 and op2 per workload
COMMAND_OF_ROLE = {
    "coarse": ("verify", "probe"),
    "fine": ("verify", "probe"),
    "analysis": ("report", "radial"),
    "scan": ("scan9", "scan1"),
}


def _fail(msg: str) -> int:
    sys.stderr.write(f"error: {msg}\n")
    return 2


# ---------------------------------------------------------------------------
# calibration kernel
# ---------------------------------------------------------------------------


class Calibration:
    """Fixed mix of interpreter, small-array, large-array and formatting work.

    It mirrors the engine's own mix (jet arithmetic on grid arrays, einsum
    contractions, float formatting) and its time tracks the host's speed.
    On shared hosts each CPU has its own speed, so with ``cpus`` given the
    kernel runs pinned on each of them in turn and the speeds are averaged;
    that suits operations whose threads spread over every CPU.
    """

    def __init__(self, np, cpus=()):
        rng = np.random.default_rng(12345)
        self.np = np
        self.cpus = sorted(cpus)
        self.small = [rng.standard_normal(64) for _ in range(3)]
        self.big = rng.standard_normal((4, 4, 4, 1024))
        self.floats = rng.standard_normal(2000).tolist()
        self.samples = []

    def run(self) -> float:
        """Kernel time: the faster of two back-to-back runs, per CPU."""
        if not self.cpus:
            dt = min(self._once(), self._once())
        else:
            allowed = os.sched_getaffinity(0)
            try:
                per_cpu = []
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    per_cpu.append(min(self._once(), self._once()))
            finally:
                os.sched_setaffinity(0, allowed)
            dt = statistics.fmean(per_cpu)
        self.samples.append(dt)
        return dt

    def _once(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(20000):
            acc += i * 0.5
        x = tuple(self.small)
        for _ in range(300):
            x = tuple(p * q + p * 0.5 for p, q in zip(x, reversed(x)))
            x = tuple(v / (1.0 + np.abs(v)) for v in x)
        for _ in range(3):
            np.einsum("jlm...,imk...->ijkl...", self.big, self.big)
        ",".join(format(v, ".17g") for v in self.floats)
        return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


class Runner:
    """Runs operations, times them, checks them outside the timed region."""

    def __init__(self, cli, moduli, workloads, cal: Calibration):
        self.cli, self.moduli, self.wl, self.cal = cli, moduli, workloads, cal
        self.verdicts = {}
        self.attempted = 0
        self.failed = 0

    def execute(self, op):
        """(seconds, return code, output) of one operation; raises on error."""
        if op.command == "radial":
            t0 = time.perf_counter()
            out = self.moduli.asymptotic_check(op.k)
            return time.perf_counter() - t0, 0, out
        buf, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(op.argv)
            except SystemExit as exc:   # argparse rejects bad argv this way
                rc = exc.code
            out = buf.getvalue()
        return time.perf_counter() - t0, rc, out

    def run(self, op):
        """Seconds taken by ``op``, or None when it failed."""
        self.attempted += 1
        try:
            dt, rc, out = self.execute(op)
            self.wl.check(op, rc, out, self.verdicts)
        except Exception:   # noqa: BLE001 - any failure of one op is counted
            self.failed += 1
            sys.stderr.write(f"operation failed: {op}\n{traceback.format_exc()}")
            return None
        return dt


def _scaled(dt: float, cal_before: float, cal_after: float) -> float:
    """``dt`` at nominal host speed, from the kernel times around it."""
    return dt * NOMINAL_CAL_S / (0.5 * (cal_before + cal_after))


def loop(runner: Runner, ops, deadline: float, min_ops: int = 2):
    """Closed loop until ``deadline``: [(op, raw_s, scaled_s or None)].

    At least ``min_ops`` operations run, so each role has a sample.
    """
    done = []
    cal_prev = runner.cal.run()
    for op in ops:
        if len(done) >= min_ops and time.perf_counter() >= deadline:
            break
        dt = runner.run(op)
        cal_next = runner.cal.run()
        scaled = None if dt is None else _scaled(dt, cal_prev, cal_next)
        done.append((op, dt, scaled))
        cal_prev = cal_next
    return done


def measure_setup(cal: Calibration, env: dict) -> list:
    """Scaled wall times of fresh processes that import the package."""
    out = []
    for _ in range(SETUP_RUNS):
        c0 = cal.run()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import skewtorsion"], env=env, cwd=ROOT,
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        dt = time.perf_counter() - t0
        out.append(_scaled(dt, c0, cal.run()))
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median(v):
    return statistics.median(v) if v else float("nan")


def command_detail(done, commands) -> dict:
    """Per-command sample counts and raw and scaled medians (p90 if n >= 100)."""
    out = {}
    for role, name in enumerate(commands, start=1):
        raw = [d for op, d, _ in done if op.role == role and d is not None]
        scaled = [s for op, _, s in done if op.role == role and s is not None]
        rec = {"n": len(raw), "raw_s.p50": _median(raw), "s.p50": _median(scaled)}
        if len(raw) >= P90_MIN_SAMPLES:
            rec["raw_s.p90"] = statistics.quantiles(raw, n=10)[-1]
            rec["s.p90"] = statistics.quantiles(scaled, n=10)[-1]
        out[name] = rec
    return out


def end_to_end(setup, detail, commands) -> dict:
    m = {"setup_s": {"value": _median(setup), "unit": "s"}}
    for role, name in enumerate(commands, start=1):
        m[f"op{role}_s.p50"] = {"value": detail[name]["s.p50"], "unit": "s"}
    m["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"}
    return m


def per_layer(tracer_mod, totals: dict, nbytes: int, n_ops: int, workers: int,
              first_op_s: float, overhead_ms: float) -> dict:
    m = {}
    for name in tracer_mod.LAYER_NAMES:
        rec = totals.get(name, {"calls": 0, "self_s": 0.0})
        m[f"{name}.calls"] = {"value": rec["calls"] / n_ops, "unit": "count"}
        m[f"{name}.self_ms"] = {"value": 1e3 * rec["self_s"] / n_ops, "unit": "ms"}
    for name in tracer_mod.COUNTERS:
        m[f"{name}.calls"] = {"value": totals.get(name, {"calls": 0})["calls"] / n_ops,
                              "unit": "count"}
    m["cli.emit.bytes"] = {"value": nbytes / n_ops, "unit": "B"}
    scan_wall = totals.get("cli.scan", {"total_s": 0.0})["total_s"]
    busy = totals.get("cli.scan_row", {"total_s": 0.0})["total_s"]
    m["cli.scan.busy_ratio"] = {
        "value": busy / (scan_wall * workers) if scan_wall > 0 and workers else 0.0,
        "unit": "ratio"}
    m["cli.first_op_s"] = {"value": first_op_s, "unit": "s"}
    m["trace.overhead_ms"] = {"value": overhead_ms, "unit": "ms"}
    return m


def per_layer_names(tracer_mod) -> list:
    """Names of every per-layer metric a traced run prints, in order."""
    return list(per_layer(tracer_mod, {}, 0, 1, 0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(COMMAND_OF_ROLE))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "skewtorsion", "__init__.py")):
        return _fail(f"no skewtorsion package under {SRC}")

    # before numpy loads: one BLAS thread, default scan pool
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ.pop("SKEW_THREADS", None)
    env = dict(os.environ, PYTHONPATH=SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    cpus = sorted(os.sched_getaffinity(0))
    if args.workload not in POOLED:
        os.sched_setaffinity(0, {cpus[0]})

    import numpy as np
    cal = Calibration(np, cpus if args.workload in POOLED else ())
    cal.run()
    setup = measure_setup(cal, env)

    import scipy
    import skewtorsion
    from skewtorsion import cli, moduli
    if not os.path.abspath(skewtorsion.__file__).startswith(SRC + os.sep):
        return _fail(f"imported skewtorsion from {skewtorsion.__file__}, not {SRC}")
    import tracer as tracer_mod
    import workloads

    runner = Runner(cli, moduli, workloads, cal)
    ops = workloads.operations(args.workload, args.seed)
    commands = COMMAND_OF_ROLE[args.workload]

    # untimed warm-up: the first operation of each command, observing the
    # grids it evaluates and the pools it starts
    grids, first_op_s, roles = {}, None, set()
    while len(roles) < len(commands):
        op = next(ops)
        roles.add(op.role)
        if op.command in grids:
            continue
        seen = {}
        with tracer_mod.observe(seen):
            dt = runner.run(op)
        if first_op_s is None:
            first_op_s = dt if dt is not None else float("nan")
        grids[op.command] = {"requested": op.grid, "used": sorted(set(seen["batches"])),
                             "scan_workers": sorted(set(seen["workers"]))}
    scan_workers = max((w for g in grids.values() for w in g["scan_workers"]), default=0)

    t_start = time.perf_counter()
    if not args.trace:
        done = loop(runner, ops, t_start + args.seconds)
        detail = command_detail(done, commands)
        metrics = end_to_end(setup, detail, commands)
    else:
        untraced = loop(runner, ops, t_start + TRACE_UNTRACED_SHARE * args.seconds)
        tr = tracer_mod.Tracer()
        with tr.installed():
            traced = loop(runner, (op for op, _, _ in untraced), t_start + args.seconds)
        pairs = [(u[2], t[2]) for u, t in zip(untraced, traced)
                 if u[2] is not None and t[2] is not None]
        overhead_ms = (1e3 * sum(t - u for u, t in pairs) / len(pairs)) if pairs else 0.0
        detail = {"untraced": command_detail(untraced, commands),
                  "traced": command_detail(traced, commands)}
        metrics = per_layer(tracer_mod, tr.totals(), tr.emitted_bytes(),
                            max(len(traced), 1), scan_workers, first_op_s, overhead_ms)
        done = untraced + traced

    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "skewtorsion": skewtorsion.__version__,
        "platform": platform.platform(),
        "nproc": len(cpus), "cpu_count": os.cpu_count(),
        "pinned_cpu": None if args.workload in POOLED else cpus[0],
        "env": {"OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                "SKEW_THREADS": os.environ.get("SKEW_THREADS")},
        "scan_workers": scan_workers,
        "grids": grids,
        "first_op_s": first_op_s,
        "setup_s": setup,
        "calibration": {"nominal_s": NOMINAL_CAL_S, "n": len(cal.samples),
                        "raw_s.p50": _median(cal.samples)},
    }
    extra = {
        "commands": detail,
        "probe_verdicts": runner.verdicts,
        "fail_ratio": runner.failed / max(runner.attempted, 1),
    }
    scans = [d for op, d, _ in done if op.command == "scan" and d is not None]
    if scans:
        rows = sum(op.rows for op, d, _ in done if op.command == "scan" and d is not None)
        extra["scan_rows_per_s"] = rows / sum(scans)
    print(json.dumps({"provenance": provenance, "detail": extra}))
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
