"""The output-matrix tool that byte-identity comparisons between commits
rest on, and the matrix's recorded digests.

``tools/output_matrix.py`` is read and executed here, as a module loaded
by path; everything it writes goes to ``tmp_path``.
``output_matrix.sha256`` holds the SHA-256 of every file the tool writes,
in ``sha256sum`` format, after two header lines naming the numpy version
and the platform they were recorded on; README says how to record them.
"""

import hashlib
import json
import pathlib
import platform
import sys
import types

import numpy as np
import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "output_matrix.py"
DIGESTS = pathlib.Path(__file__).with_name("output_matrix.sha256")


@pytest.fixture
def tool(monkeypatch):
    # the tool puts the checkout's src on sys.path; give that back afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    mod = types.ModuleType("output_matrix")
    mod.__file__ = str(TOOL)
    exec(compile(TOOL.read_text(), str(TOOL), "exec"), mod.__dict__)
    return mod


def test_matrix_names_are_unique(tool):
    names = [name for name, _ in tool.matrix()]
    assert len(names) == len(set(names)) == 81
    assert all(argv[0] in ("verify", "probe", "report", "scan") for _, argv in tool.matrix())
    # and ten moduli entries, asymptotic_check and r_curve at five k
    names += [name for name, _ in tool.moduli_matrix()]
    assert len(names) == len(set(names)) == 91


def test_moduli_entries_write_full_precision_fields(tool):
    lines = tool.asymptotic_text(0.3).splitlines()
    res = tool.moduli.asymptotic_check(0.3)
    assert lines == [f"slope_at_k {res['slope_at_k']:.17g}",
                     f"slope_at_minus_infinity {res['slope_at_minus_infinity']:.17g}",
                     f"monotone {res['monotone']}"]
    rows = tool.r_curve_text(-1.0).splitlines()
    x, r = tool.moduli.r_curve(-1.0)
    assert rows[0] == "x,R" and len(rows) == len(x) + 1
    assert [tuple(map(float, row.split(","))) for row in rows[1:]] == list(zip(x, r))


HEAD = '{\n  "schema": 1,\n'
BLOCK = '  "grids": {\n    "check": 64,\n    "nested": {\n      "a": 1\n    }\n  }'


def test_drop_keys_removes_a_nested_block_and_nothing_else(tool):
    middle = HEAD + BLOCK + ',\n  "ok": true\n}\n'
    assert tool.drop_keys(middle, ["grids"]) == HEAD + '  "ok": true\n}\n'
    # the block was last: the comma it leaves on the line before goes too
    last = HEAD + '  "ok": true,\n' + BLOCK + "\n}\n"
    assert tool.drop_keys(last, ["grids"]) == HEAD + '  "ok": true\n}\n'
    # a scalar key, and a key that is not there
    assert tool.drop_keys(middle, ["schema", "absent"]) == "{\n" + BLOCK + ',\n  "ok": true\n}\n'


def test_drop_keys_on_a_cli_payload(tool):
    out = tool.run(["verify", "--chart", "flat", "--grid", "16"])[0]
    payload = json.loads(out)
    dropped = tool.drop_keys(out, ["residuals"])
    assert json.loads(dropped) == {k: v for k, v in payload.items() if k != "residuals"}
    kept = out.split("\n")
    start = next(i for i, line in enumerate(kept) if line.startswith('  "residuals": {'))
    end = next(i for i in range(start, len(kept)) if kept[i].startswith("  }"))
    assert dropped.split("\n") == kept[:start] + kept[end + 1:]


def test_a_run_writes_out_err_and_code_per_command(tool, tmp_path, monkeypatch):
    commands = [("verify_flat", ["verify", "--chart", "flat", "--grid", "16"]),
                ("bad_grid", ["verify", "--chart", "round", "--grid", "8"])]
    monkeypatch.setattr(tool, "matrix", lambda: commands)
    monkeypatch.setattr(tool, "moduli_matrix", lambda: [("moduli", lambda: "x,R\n")])
    assert tool.main([str(tmp_path / "out")]) == 0
    files = sorted(p.name for p in (tmp_path / "out").iterdir())
    assert files == sorted([f"{name}.{suffix}" for name, _ in commands
                            for suffix in ("out", "err", "code")] + ["moduli.out"])
    read = {p.name: p.read_text() for p in (tmp_path / "out").iterdir()}
    assert read["verify_flat.code"] == "0\n" and read["bad_grid.code"] == "2\n"
    assert read["verify_flat.err"] == "" and read["bad_grid.out"] == ""
    assert "grid" in read["bad_grid.err"]
    assert read["verify_flat.out"] == tool.run(commands[0][1])[0]
    assert read["moduli.out"] == "x,R\n"


def test_every_output_matrix_file_has_its_recorded_digest(tool, tmp_path):
    head, recorded = {}, {}
    for line in DIGESTS.read_text().splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(" ", 1)
            head[key] = value
        else:
            digest, name = line.split("  ", 1)
            recorded[name] = digest
    here = {"numpy": np.__version__, "platform": f"{sys.platform}-{platform.machine()}"}
    if head != here:
        pytest.skip(f"digests recorded on {head}, this is {here}")
    assert len(recorded) == 253
    tool.main([str(tmp_path)])
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert sorted(n for n in recorded.keys() | got.keys() if got.get(n) != recorded.get(n)) == []
