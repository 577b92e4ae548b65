"""Run the CLI output matrix in-process and write every result to a directory.

Usage, from the root of a checkout::

    python tools/output_matrix.py OUTDIR [--drop KEY ...]

The matrix is 81 commands: ``verify`` and ``probe`` at grids 64, 256,
1100 (tiles of 512, 512 and 76 points) and 4096 and ``report`` at the
default grid and at 64, on bonneau k in {0.3, -1, 0}, random seed 3,
round, product (b0 1.3, L 2) and flat (L 2), plus ``scan --format csv``,
``scan --format csv --grid 300`` (each row's 600 quadrature nodes span
two tiles), ``scan --format json --grid 32`` and a CSV scan of k = -1e5
(refused) and 0 (admissible), four that exit 2 on a geometry that
overflows: ``verify``, ``report`` and ``probe`` on product b0 1e-155, L 2
at grid 64, and ``report`` on product b0 1e150, and three whose grid is
one point past a whole number of tiles: ``probe --grid 1025`` on round
and on random seed 3 and ``report --grid 513`` (a rule and a p1 sample
of 513 nodes) on random seed 3.  Each command writes
``NAME.out`` (stdout), ``NAME.err`` (stderr) and ``NAME.code`` (exit
code) into OUTDIR.  Ten moduli entries follow, which
no command reaches: ``asymptotic_check(k)`` and ``r_curve(k)`` for k in
{-10, -1, 0, 0.3, 10}, each written to ``NAME.out`` with ``%.17g`` fields.
So one ``diff -r`` compares two commits.  The package is imported from
this checkout's ``src``.

``--drop KEY`` removes the top-level key KEY from every JSON payload before
it is written, so that outputs of a commit that adds a key can be compared
with those of its parent.  The payloads are pretty-printed with the
top-level keys at an indent of two spaces, and the removal works on that
text, so every other byte is left as the CLI wrote it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from skewtorsion import cli, moduli  # noqa: E402

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
            for grid in (64, 256, 1100, 4096):
                out.append((f"{command}_{chart}_grid{grid}",
                            [command, *opts, "--grid", str(grid)]))
        out.append((f"report_{chart}", ["report", *opts]))
        out.append((f"report_{chart}_grid64", ["report", *opts, "--grid", "64"]))
    out.append(("scan_csv", ["scan", "--format", "csv"]))
    out.append(("scan_csv_grid300", ["scan", "--format", "csv", "--grid", "300"]))
    out.append(("scan_json_grid32", ["scan", "--format", "json", "--grid", "32"]))
    out.append(("scan_csv_refused_row", ["scan", "--k-min=-100000", "--k-max=0",
                                         "--k-step=100000", "--format", "csv"]))
    tiny = ["--chart", "product", "--b0", "1e-155", "--L", "2", "--grid", "64"]
    for command in ("verify", "report", "probe"):
        out.append((f"{command}_product_b0_1e-155_grid64", [command, *tiny]))
    out.append(("report_product_b0_1e150", ["report", "--chart", "product", "--b0", "1e150"]))
    # one point past a whole number of tiles: the last two tiles share it
    for chart in ("round", "random_seed3"):
        out.append((f"probe_{chart}_grid1025", ["probe", *CHARTS[chart], "--grid", "1025"]))
    out.append(("report_random_seed3_grid513",
                ["report", *CHARTS["random_seed3"], "--grid", "513"]))
    return out


MODULI_K = (-10.0, -1.0, 0.0, 0.3, 10.0)


def asymptotic_text(k: float) -> str:
    """``asymptotic_check(k)``, one ``key value`` line per entry."""
    return "".join(f"{key} {value:.17g}\n" if isinstance(value, float) else f"{key} {value}\n"
                   for key, value in moduli.asymptotic_check(k).items())


def r_curve_text(k: float) -> str:
    """``r_curve(k)`` as ``x,R`` lines."""
    x, r = moduli.r_curve(k)
    return "x,R\n" + "".join(f"{xi:.17g},{ri:.17g}\n" for xi, ri in zip(x, r))


def moduli_matrix():
    """(name, text function) of every moduli entry of the matrix."""
    out = []
    for k in MODULI_K:
        out.append((f"asymptotic_check_k{k:g}", functools.partial(asymptotic_text, k)))
        out.append((f"r_curve_k{k:g}", functools.partial(r_curve_text, k)))
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
    for name, text in moduli_matrix():
        with open(os.path.join(args.outdir, f"{name}.out"), "w") as fh:
            fh.write(text())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
