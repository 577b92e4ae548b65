"""Every name the benchmark tracer wraps exists in the package.

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
