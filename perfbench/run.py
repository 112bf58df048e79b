"""milsde benchmark: fresh CLI processes in a closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-goldens

One run calls the workload's verb back to back, each call a fresh
interpreter, until ``--seconds`` is used up (at least MIN_CALLS calls), and
checks every call against the gates in ``gates.py``.  With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json as medians over the calls;
with ``--trace 1`` every call is traced and it reports the per-layer metrics.
The last line of stdout is one JSON object; the exit code is 1 when a call
failed a gate.  ``--all`` runs every workload at the benchmark seeds SEEDS
for BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from gates import check_call
from workloads import SEED_POOL, WORKLOADS, cli_seed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, "_work")
GOLDENS = os.path.join(BENCH, "goldens")
CHILD = os.path.join(BENCH, "child.py")

SEEDS = range(1, 11)  # the benchmark seeds of --all
MIN_CALLS = 3  # timed calls per run, whatever --seconds says
MIN_SETUP = 7  # set-up samples per run; set-up-only processes make up the rest
CALL_TIMEOUT_S = 150
# the children use at most the threads the workload asks for
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
LIMITS = ("Only the benchmark's own processes are measured: no system-wide tracing, "
          "no cache dropping, no CPU pinning, no frequency control; other tenants of "
          "the machine are not controlled.")


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def golden_path(name: str, seed: int, tiny: bool) -> str:
    return os.path.join(GOLDENS, name, f"{'tiny-' if tiny else ''}seed-{seed}.json")


def load_golden(name: str, seed: int, tiny: bool) -> dict:
    with open(golden_path(name, seed, tiny)) as fh:
        return json.load(fh)


def spawn(cli_argv: list, trace: bool, tag: str) -> dict:
    """Run child.py once; return its measurements plus the call's outputs."""
    result_path = os.path.join(WORK, f"{tag}.result.json")
    out_base = os.path.join(WORK, tag)
    for path in (result_path, out_base + ".json", out_base + ".csv"):
        if os.path.exists(path):
            os.unlink(path)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **CHILD_ENV)
    out_args = ["--out", out_base] if cli_argv else []
    started = time.monotonic()
    argv = [sys.executable, CHILD, result_path, repr(started), "1" if trace else "0",
            *cli_argv, *out_args]
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=CALL_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"benchmark child failed ({proc.returncode}): "
                         f"{proc.stderr.decode(errors='replace')[-2000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    result["duration_s"] = time.monotonic() - started
    for key, suffix in (("report", ".json"), ("csv", ".csv")):
        result[key] = None
        if os.path.exists(out_base + suffix):
            with open(out_base + suffix, "rb") as fh:
                result[key] = fh.read()
    return result


class Run:
    """Calls of one workload at one seed, with their gate outcomes."""

    def __init__(self, workload, seed: int, tiny: bool, golden: dict = None):
        self.wl, self.tiny = workload, tiny
        self.seed = cli_seed(seed)
        # a twin reports the same numbers, so it shares the twin's golden
        self.golden = golden or load_golden(workload.twin or workload.name, self.seed, tiny)
        self.attempted = 0
        self.problems = []
        self.twin = None
        if workload.twin:
            ref = self.call(WORKLOADS[workload.twin], trace=False)
            self.twin = (ref["report"], ref["csv"])

    def call(self, workload=None, trace: bool = False) -> dict:
        wl = workload or self.wl
        res = spawn(wl.cli_argv(self.tiny, self.seed), trace, wl.name)
        twin = self.twin if wl is self.wl else None
        problems = check_call(self.golden, res["exit"], res["report"], res["csv"], twin)
        self.attempted += 1
        if problems:
            self.problems.append(f"{wl.name} CLI seed {self.seed}: " + "; ".join(problems))
        return res

    @property
    def failed(self) -> int:
        return len(self.problems)


def _loop(step, seconds: float, min_steps: int) -> list:
    """Call ``step`` back to back until another would overrun ``seconds``."""
    start, out, durations = time.monotonic(), [], []
    while True:
        t0 = time.monotonic()
        out.append(step())
        durations.append(time.monotonic() - t0)
        if len(out) >= min_steps and \
                time.monotonic() - start + statistics.median(durations) > seconds:
            return out


def measure(workload, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple:
    """One benchmark run; returns (metrics, Run)."""
    os.makedirs(WORK, exist_ok=True)
    spawn([], False, "warmup")  # byte-compile and page in before timing
    run = Run(workload, seed, tiny)
    med = statistics.median
    calls = _loop(lambda: run.call(trace=trace), seconds, 1 if tiny else MIN_CALLS)
    if not trace:
        setups = [c["setup_s"] for c in calls]
        while len(setups) < (1 if tiny else MIN_SETUP):
            setups.append(spawn([], False, "setup")["setup_s"])
        samples = workload.samples(tiny)
        return {"wall_s": med(c["wall_s"] for c in calls),
                "setup_s": med(setups),
                "cpu_s": med(c["cpu_s"] for c in calls),
                "peak_rss_mb": med(c["peak_rss_mb"] for c in calls),
                "samples_per_s": med(samples / c["wall_s"] for c in calls)}, run
    metrics = {key: med(c["layers"][key] for c in calls) for key in calls[0]["layers"]}
    metrics["trace.wall_s"] = med(c["wall_s"] for c in calls)
    metrics["fail_frac"] = run.failed / run.attempted
    return metrics, run


def result_line(spec: dict, metrics: dict, run: Run, trace: bool) -> dict:
    """The run's JSON result, with exactly the metrics BENCHMARK.json names."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


def bench_one(args, spec: dict) -> int:
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        raise BenchError(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    trace = bool(args.trace)
    metrics, run = measure(workload, args.seed, args.seconds, trace)
    line = result_line(spec, metrics, run, trace)
    for problem in run.problems:
        print(f"FAILED {problem}")
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 1 if run.failed else 0


def _bench_subprocess(name: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    try:
        line = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        line = None
    # exit code 1 with a result line means a call failed a gate
    if line is None or proc.returncode != (1 if line["failed"] else 0):
        raise BenchError(f"{name} seed {seed} trace {trace} exited {proc.returncode}: "
                         f"{proc.stderr[-2000:]}")
    return line


def provenance() -> dict:
    import platform
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit,
            "limits": LIMITS}


def bench_all(spec: dict) -> int:
    """Every workload at every seed untraced, plus one traced run each."""
    seeds, seconds = list(SEEDS), spec["run_seconds"]
    out = {"provenance": provenance(), "run_seconds": seconds, "seeds": seeds,
           "workloads": {}}
    ok = True
    for name in WORKLOADS:
        runs = [_bench_subprocess(name, seed, seconds, 0) for seed in seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
                else (median, median, median)
            entry["end_to_end"][m["name"]] = {
                "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": m["bound"], "values": values}
            print(f"{name:14s} {m['name']:14s} median {median:10.5g} {m['unit']:4s} "
                  f"q1 {q1:10.5g} q3 {q3:10.5g} spread {(q3 - q1) / median:6.3f} "
                  f"(bound {m['bound']})", flush=True)
        traced = _bench_subprocess(name, WORKLOADS[name].pinned_seed, seconds, 1)
        entry["correct"] = entry["correct"] and traced["correct"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        for key, value in entry["per_layer"].items():
            if value:
                print(f"{name:14s}   {key:40s} {value:12.6g}", flush=True)
        ok = ok and entry["correct"]
        out["workloads"][name] = entry
    path = os.path.join(BENCH, "results", "latest.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"{'all correct' if ok else 'FAILURES'}; results in {path}")
    return 0 if ok else 1


def write_goldens() -> int:
    """Record the reports of the seed pool, and the tiny one at the pinned seed."""
    os.makedirs(WORK, exist_ok=True)
    for wl in WORKLOADS.values():
        if wl.twin:  # shares the twin's goldens
            continue
        os.makedirs(os.path.join(GOLDENS, wl.name), exist_ok=True)
        jobs = [(seed, False) for seed in range(1, SEED_POOL + 1)] + [(wl.pinned_seed, True)]
        for seed, tiny in jobs:
            res = spawn(wl.cli_argv(tiny, seed), False, wl.name)
            report = json.loads(res["report"])
            if res["exit"] != (0 if report["passed"] else 1):
                raise BenchError(f"{wl.name}: exit {res['exit']} with passed={report['passed']}")
            path = golden_path(wl.name, seed, tiny)
            with open(path, "wb") as fh:
                fh.write(res["report"])
            print(f"{os.path.relpath(path, ROOT)}: passed={report['passed']}", flush=True)
    return 0


def selftest(spec: dict) -> int:
    """Tiny sizes: every workload prints every metric, and the gates can fail."""
    errors = []
    for wl in WORKLOADS.values():
        for trace in (False, True):
            metrics, run = measure(wl, wl.pinned_seed, 0, trace, tiny=True)
            line = result_line(spec, metrics, run, trace)
            if not line["correct"]:
                errors.append(f"{wl.name} trace={int(trace)}: {run.problems}")
            for name, m in line["metrics"].items():
                if not isinstance(m["value"], (int, float)) or not m["unit"]:
                    errors.append(f"{wl.name}: metric {name} has no value or unit")
            print(f"{wl.name} trace={int(trace)}: {len(line['metrics'])} metrics, "
                  f"correct={line['correct']}", flush=True)

    wl = WORKLOADS["lemma-7.3"]
    golden = load_golden(wl.name, wl.pinned_seed, tiny=True)
    bad_value = json.loads(json.dumps(golden))
    bad_value["rows"][0]["estimate"] *= 1 + 1e-6
    bad_verdict = dict(golden, passed=not golden["passed"])
    for label, bad in (("perturbed golden value", bad_value),
                       ("flipped golden verdict", bad_verdict)):
        run = Run(wl, wl.pinned_seed, tiny=True, golden=bad)
        run.call()
        if run.failed != 1:
            errors.append(f"{label} was not reported as a failure")
        print(f"{label}: {run.problems}")
    t2 = WORKLOADS["rate-drift-t2"]
    run = Run(t2, t2.pinned_seed, tiny=True)
    run.twin = (run.twin[0] + b" ", run.twin[1])
    run.call()
    if run.failed != 1:
        errors.append("a report differing from the twin's was not reported as a failure")
    print(f"twin mismatch: {run.problems}")

    for err in errors:
        print(f"SELFTEST ERROR {err}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, every seed")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-goldens", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "milsde", "cli.py")):
        print(f"no milsde source under {ROOT}/src; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    try:
        if args.all:
            return bench_all(spec)
        if args.selftest:
            return selftest(spec)
        if args.write_goldens:
            return write_goldens()
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        return bench_one(args, spec)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
