"""Run the CLI output matrix in-process and write every result to a directory.

Usage, from the root of a checkout::

    python tools/output_matrix.py OUTDIR [--drop KEY ...]

The matrix is 58 commands: ``verify`` and ``probe`` at grids 64, 256 and
4096 and ``report`` at the default grid and at 64, on bonneau k in
{0.3, -1, 0}, random seed 3, round, product (b0 1.3, L 2) and flat (L 2),
plus ``scan --format csv`` and ``scan --format json --grid 32``.  Each
command writes ``NAME.out`` (stdout), ``NAME.err`` (stderr) and
``NAME.code`` (exit code) into OUTDIR, so that one ``diff -r`` compares two
commits.  The package is imported from this checkout's ``src``.

``--drop KEY`` removes the top-level key KEY from every JSON payload before
it is written, so that outputs of a commit that adds a key can be compared
with those of its parent.  The payloads are pretty-printed with the
top-level keys at an indent of two spaces, and the removal works on that
text, so every other byte is left as the CLI wrote it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from skewtorsion import cli  # noqa: E402

CHARTS = {
    "bonneau_k0.3": ["--chart", "bonneau", "--k", "0.3"],
    "bonneau_k-1": ["--chart", "bonneau", "--k", "-1"],
    "bonneau_k0": ["--chart", "bonneau", "--k", "0"],
    "random_seed3": ["--chart", "random", "--seed", "3"],
    "round": ["--chart", "round"],
    "product": ["--chart", "product", "--b0", "1.3", "--L", "2"],
    "flat": ["--chart", "flat", "--L", "2"],
}


def matrix():
    """(name, argv) of every command of the matrix."""
    out = []
    for chart, opts in CHARTS.items():
        for command in ("verify", "probe"):
            for grid in (64, 256, 4096):
                out.append((f"{command}_{chart}_grid{grid}",
                            [command, *opts, "--grid", str(grid)]))
        out.append((f"report_{chart}", ["report", *opts]))
        out.append((f"report_{chart}_grid64", ["report", *opts, "--grid", "64"]))
    out.append(("scan_csv", ["scan", "--format", "csv"]))
    out.append(("scan_json_grid32", ["scan", "--format", "json", "--grid", "32"]))
    return out


def drop_keys(text: str, keys) -> str:
    """``text`` without the lines of the given top-level JSON keys."""
    heads = tuple(f'  "{k}": ' for k in keys)
    lines, skipping = [], False
    for line in text.split("\n"):
        if skipping:
            skipping = not line.startswith(("  }", "  ]"))
            continue
        if line.startswith(heads):
            value = line.split(": ", 1)[1].rstrip(",")
            skipping = value in ("{", "[")
            continue
        lines.append(line)
    # the key removed may have been the last one, leaving a trailing comma
    for i in range(1, len(lines)):
        if lines[i] == "}" and lines[i - 1].endswith(","):
            lines[i - 1] = lines[i - 1][:-1]
    return "\n".join(lines)


def run(argv):
    """(stdout, stderr, exit code) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("outdir")
    p.add_argument("--drop", action="append", default=[], metavar="KEY",
                   help="top-level JSON key to remove before writing (repeatable)")
    args = p.parse_args(argv)
    os.makedirs(args.outdir, exist_ok=True)
    for name, cmd in matrix():
        stdout, stderr, code = run(cmd)
        if args.drop:
            stdout = drop_keys(stdout, args.drop)
        for suffix, text in (("out", stdout), ("err", stderr), ("code", f"{code}\n")):
            with open(os.path.join(args.outdir, f"{name}.{suffix}"), "w") as fh:
                fh.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
