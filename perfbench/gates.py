"""Correctness gates applied to every benchmark call.

A call fails when its exit code disagrees with the golden report's verdict
(0 for PASS, 1 for FAIL), when any report field differs from the golden
report at the same seed (floats within RTOL relative, or ATOL absolute near
zero; everything else exactly, so ``config_hash`` and ``passed`` too), or
when a workload with a twin does not reproduce the twin's report and CSV
byte for byte.
"""

import json

RTOL = 1e-9
ATOL = 1e-12


def diff_reports(golden, report, where: str = "report") -> list:
    """Every field where ``report`` differs from ``golden``."""
    if isinstance(golden, dict):
        if not isinstance(report, dict) or set(golden) != set(report):
            return [f"{where}: fields differ from the golden report"]
        return [m for key in sorted(golden)
                for m in diff_reports(golden[key], report[key], f"{where}.{key}")]
    if isinstance(golden, list):
        if not isinstance(report, list) or len(golden) != len(report):
            return [f"{where}: length differs from the golden report"]
        return [m for i, (g, r) in enumerate(zip(golden, report))
                for m in diff_reports(g, r, f"{where}[{i}]")]
    if isinstance(golden, float) and isinstance(report, float):
        if abs(golden - report) <= RTOL * max(abs(golden), abs(report)) + ATOL:
            return []
    elif type(golden) is type(report) and golden == report:
        return []
    return [f"{where}: {report!r}, golden {golden!r}"]


def check_call(golden: dict, exit_code: int, report_bytes, csv_bytes,
               twin=None) -> list:
    """Problems with one call; an empty list means it passed every gate.

    ``twin`` is the (report, csv) bytes the call must reproduce, or None.
    """
    want_pass = golden["passed"]
    problems = []
    if exit_code != (0 if want_pass else 1):
        problems.append(f"exit code {exit_code}, golden verdict "
                        f"{'PASS' if want_pass else 'FAIL'}")
    if report_bytes is None:
        return problems + ["no report written"]
    problems += diff_reports(golden, json.loads(report_bytes))
    if twin is not None and twin != (report_bytes, csv_bytes):
        problems.append("report or CSV not byte-identical to the twin workload's")
    return problems
