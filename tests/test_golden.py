"""Golden reports: every verb at small pinned configs, compared field by field.

Each case runs the CLI in-process and compares its JSON report and CSV data
file with the copies under ``tests/golden/``: every numeric field to a
relative tolerance of 1e-12, every other field (verdicts, config hashes,
labels) exactly.  Refactors that keep behaviour keep these files; a change
that moves a reported number shows up here.

To re-record after an intended behaviour change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import os
import sys

import pytest

from milsde import cli

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
RTOL = 1e-12

_RATE = ["--n-list", "16,32,64,128", "--fine-factor", "8", "--seed", "1"]
_ERROR_LAW = ["--n", "16", "--fine-factor", "8", "--fine-count", "128",
              "--paths", "1000", "--draws", "1000", "--seed", "2"]
_LEMMA = ["--n", "16", "--fine-factor", "8", "--paths", "200", "--seed", "1"]

# (golden name, argv); the threaded rate run must match its serial golden
CASES = [
    ("rate-gbm-drift", ["rate", "--model", "gbm-drift", "--scheme", "milstein",
                        "--paths", "2000"] + _RATE),
    ("rate-gbm-drift", ["rate", "--model", "gbm-drift", "--scheme", "milstein",
                        "--paths", "2000", "--threads", "2"] + _RATE),
    ("rate-ou", ["rate", "--model", "ou", "--scheme", "milstein", "--paths", "300"] + _RATE),
    ("rate-gbm-drift-54", ["rate", "--model", "gbm-drift", "--scheme", "milstein54",
                           "--paths", "500"] + _RATE),
    ("rate-gbm-euler", ["rate", "--model", "gbm", "--scheme", "euler",
                        "--paths", "500"] + _RATE),
    ("rate-det-exp", ["rate", "--model", "det-exp", "--scheme", "milstein",
                      "--paths", "10"] + _RATE),
    ("error-law-gbm", ["error-law", "--model", "gbm"] + _ERROR_LAW),
    ("error-law-gbm-drift", ["error-law", "--model", "gbm-drift"] + _ERROR_LAW),
] + [
    (f"lemma-{case}", ["lemma-check", "--case", case] + _LEMMA)
    for case in ("7.2c", "7.3", "7.4", "7.6", "7.7-80", "null")
] + [
    ("limit-sim", ["limit-sim", "--model", "gbm-drift", "--draws", "200",
                   "--fine-count", "128", "--seed", "1"]),
    ("simulate", ["simulate", "--model", "gbm-drift", "--scheme", "milstein54",
                  "--n", "8", "--paths", "3", "--seed", "1"]),
]


def _run(argv, base) -> int:
    return cli.main(argv + ["--out", base])


def _as_float(text):
    try:
        return float(text)
    except ValueError:
        return None


def _same_number(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)


def _compare(got, want, where="report"):
    if isinstance(want, bool) or isinstance(want, str) or want is None:
        assert got == want, f"{where}: {got!r} != {want!r}"
    elif isinstance(want, (int, float)):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert _same_number(float(got), float(want)), f"{where}: {got!r} != {want!r}"
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]")
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _compare(got[key], want[key], f"{where}.{key}")
    else:
        raise TypeError(f"{where}: unexpected golden value {want!r}")


def _compare_csv(got_lines, want_lines, name):
    assert len(got_lines) == len(want_lines), f"{name}.csv: row count"
    for row, (g_line, w_line) in enumerate(zip(got_lines, want_lines)):
        g_cells, w_cells = g_line.split(","), w_line.split(",")
        assert len(g_cells) == len(w_cells), f"{name}.csv row {row}: cell count"
        for col, (g, w) in enumerate(zip(g_cells, w_cells)):
            gf, wf = _as_float(g), _as_float(w)
            if wf is None:
                assert g == w, f"{name}.csv row {row} col {col}: {g!r} != {w!r}"
            else:
                assert gf is not None and _same_number(gf, wf), \
                    f"{name}.csv row {row} col {col}: {g!r} != {w!r}"


@pytest.mark.parametrize("name,argv", CASES,
                         ids=[n + ("-t2" if "--threads" in a else "") for n, a in CASES])
def test_report_matches_golden(name, argv, tmp_path, capsys):
    base = str(tmp_path / name)
    code = _run(argv, base)
    capsys.readouterr()
    with open(os.path.join(GOLDEN_DIR, name + ".json")) as fh:
        want = json.load(fh)
    with open(base + ".json") as fh:
        got = json.load(fh)
    assert code == (0 if want["passed"] else 1)
    assert got["config_hash"] == want["config_hash"]
    assert got["passed"] == want["passed"]
    _compare(got, want)
    with open(os.path.join(GOLDEN_DIR, name + ".csv")) as fh:
        want_csv = fh.read().splitlines()
    with open(base + ".csv") as fh:
        got_csv = fh.read().splitlines()
    _compare_csv(got_csv, want_csv, name)


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for golden, args in CASES:
        if "--threads" in args:
            continue
        status = _run(args, os.path.join(GOLDEN_DIR, golden))
        if status not in (0, 1):
            sys.exit(f"{golden}: exit {status}")
