"""Every name the benchmark tracer wraps exists in the package, and its
``observe`` block patches and restores the two bindings it replaces.

The tracer in ``benchmarks/tracer.py`` patches functions and methods by
name; a renamed or deleted one makes the traced benchmark fail.  The file
is read and executed here, nothing under ``benchmarks/`` is written.
"""

import pathlib
import types

TRACER = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def _tracer():
    mod = types.ModuleType("benchmark_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), mod.__dict__)
    return mod


def test_every_traced_name_resolves():
    tracer = _tracer()
    specs = [spec for table in (tracer.SPANS, tracer.OUTERMOST, tracer.COUNTERS)
             for group in table.values() for spec in group]
    assert len(specs) == 43
    for spec in specs:
        _, _, fn = tracer._resolve(spec)
        assert callable(fn), spec


def test_observe_patches_and_restores_both_bindings():
    # the benchmark wraps every warm-up operation in observe(), which
    # replaces these two bindings for the block; a missing one fails there
    from skewtorsion import cli
    from skewtorsion.charts import InvariantChart, round_s4_chart
    tracer = _tracer()
    at, pool = InvariantChart.at, cli.ThreadPoolExecutor
    with tracer.observe({}) as record:
        assert InvariantChart.at is not at and cli.ThreadPoolExecutor is not pool
        round_s4_chart().at([1.0, 2.0])
        cli.ThreadPoolExecutor(max_workers=1).shutdown()
    assert record == {"batches": [2], "workers": [1]}
    assert InvariantChart.at is at and cli.ThreadPoolExecutor is pool
