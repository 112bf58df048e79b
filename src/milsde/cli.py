"""Command-line front end.

The verbs (simulate, rate, error-law, lemma-check, limit-sim) and their
config keys are declared once, in the ``VERBS`` and ``_KEYS`` tables: the
parser, the validation, the report config and the hash all read them.
Every run needs an explicit --seed; there is no silent default because reports must be
reproducible from their config alone.  Each run writes a JSON report and a
CSV data file stamped with a hash of the scientific config fields, plus an
aligned table on stdout.

Exit codes: 0 all checks passed, 1 checks failed, 2 usage or config error,
3 runtime failure.  Every verb runs its chunks of path (or draw) indices on
--threads workers, with about one live chunk per worker in memory, and --out
places the files.  Both are excluded from the config hash and the report,
so reruns with different values produce byte-identical reports.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import limits, montecarlo, oracles, rng, schemes, stats
from .model import builtin_models, get_model
from .paths import (DEFAULT_CHUNK, MAX_FINE_COUNT, MAX_THREADS, make_grid, over_chunks,
                    simulate_bundle)

SCHEMA_VERSION = "v1"
OUT_DIR_ENV = "MILSDE_OUT_DIR"

# slope acceptance bands for the known model/scheme pairs
RATE_BANDS = {
    ("gbm", "milstein"): (-1.15, -0.85),
    ("gbm-drift", "milstein"): (-1.15, -0.85),
    ("gbm", "euler"): (-0.65, -0.35),
    ("gbm-drift", "euler"): (-0.65, -0.35),
    ("det-exp", "milstein"): (-2.05, -1.95),
}

# every config key: (type, default).  Each is a line of a --config file and
# a --flag of the verbs that list it in VERBS (seed, out, threads: of every
# verb); n_list reads comma-separated integers, and an empty string leaves a
# str key at its default.
_KEYS = {
    "seed": (int, None), "n": (int, 64), "paths": (int, 1000), "fine_factor": (int, 64),
    "draws": (int, 10000), "fine_count": (int, 4096), "threads": (int, 1),
    "ks_threshold": (float, 0.05), "slope_lo": (float, None), "slope_hi": (float, None),
    "model": (str, ""), "scheme": (str, "milstein"), "case": (str, ""), "out": (str, ""),
    "n_list": (tuple, (16, 32, 64, 128)),
}
_TYPE_NAMES = {int: "an integer", float: "a number", tuple: "comma-separated integers"}

# the options of every verb, with their help; out and threads are execution
# knobs, excluded from the config hash and the report
_COMMON = {"config": "flat key = value config file; flags override",
           "seed": "master seed (required)",
           "out": "output base path for .json/.csv",
           "threads": "worker threads (speed only)"}

# sample-size floors: error-law compares two samples, limit-sim and the
# lemma-check bands take moments (a 3-SE band on 10 paths is no check)
_LEAST = {("error-law", "paths"): montecarlo.LAW_MIN_SAMPLES,
          ("error-law", "draws"): montecarlo.LAW_MIN_SAMPLES,
          ("limit-sim", "draws"): montecarlo.MOMENT_MIN_SAMPLES,
          ("lemma-check", "paths"): montecarlo.MOMENT_MIN_SAMPLES}


class ExperimentConfig(SimpleNamespace):
    """A validated run: its verb and a value for every key of ``_KEYS``.

    The report and the hash see only the seed and the verb's own keys, so
    reruns that differ in ``out`` or ``threads`` report the same bytes.
    """

    @property
    def slope_band(self):
        return None if self.slope_lo is None else (self.slope_lo, self.slope_hi)

    def science_dict(self) -> dict:
        d = {"verb": self.verb, "seed": self.seed}
        for key in VERBS[self.verb].keys:
            value = getattr(self, key)
            if key not in ("slope_lo", "slope_hi"):
                d[key] = list(value) if isinstance(value, tuple) else value
        if self.slope_band:
            d["slope_band"] = list(self.slope_band)
        return d

    def config_hash(self) -> str:
        blob = "\n".join(f"{k}={self.science_dict()[k]}"
                         for k in sorted(self.science_dict()))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def to_config_text(self) -> str:
        """Serialize to the flat key = value file format (lossless: parsing
        the text back under the same verb reproduces this config)."""
        lines = []
        for key in sorted(("seed",) + VERBS[self.verb].keys):
            value = getattr(self, key)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            if value is not None:
                lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"


class ConfigError(Exception):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _read_config_file(path: str) -> tuple:
    """(values, errors) of a flat key = value file; bad lines do not void good ones."""
    values, errors = {}, []
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    errors.append(f"{path}:{lineno}: expected 'key = value'")
                    continue
                key, _, value = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in _KEYS:
                    errors.append(f"{path}:{lineno}: unknown key '{key}'")
                    continue
                values[key] = value.strip()
    except OSError as exc:
        errors.append(f"cannot read config file: {exc}")
    return values, errors


def _typed(key: str, value):
    """``value`` as the type of ``key``; raises TypeError or ValueError."""
    typ, default = _KEYS[key]
    if typ is str:
        return value or default
    if typ is tuple and isinstance(value, str):
        return tuple(int(v) for v in value.replace(",", " ").split())
    return typ(value)


def parse_config(verb: str, flag_values: dict, config_file: str = None) -> ExperimentConfig:
    """Merge file values and flags (flags win) into a validated config.

    Raises ConfigError carrying the full list of validation problems.
    """
    errors, given = [], {}
    if config_file:
        given, errors = _read_config_file(config_file)
    given.update({k: v for k, v in flag_values.items() if v is not None})
    keys = VERBS[verb].keys if verb in VERBS else ()
    if verb not in VERBS:
        errors.append(f"unknown verb '{verb}'")
    if given.get("seed") is None:
        errors.append("--seed is required (reproducibility needs an explicit seed)")

    values = {}
    for key, (typ, default) in _KEYS.items():
        value = given.get(key, default)
        try:
            values[key] = None if value is None else _typed(key, value)
        except (TypeError, ValueError):
            errors.append(f"{key} must be {_TYPE_NAMES[typ]}, got {value!r}")
            values[key] = None
        if typ is int and values[key] is not None:
            least = _LEAST.get((verb, key), 0 if key == "seed" else 1)
            if values[key] < least:
                errors.append(f"{key} must be >= {least}")
            elif key in ("paths", "draws") and values[key] >= rng.INDEX_LIMIT:
                errors.append(f"{key} must be < 2^32: path indices are 32-bit keys")
            elif key == "threads" and values[key] > MAX_THREADS:
                errors.append(f"threads must be <= {MAX_THREADS}, got {values[key]}")

    model, scheme, case = values["model"], values["scheme"], values["case"]
    if "model" in keys:
        if not model:
            errors.append("--model is required")
        elif model not in builtin_models():
            errors.append(f"unknown model '{model}'; available: {sorted(builtin_models())}")

    if "scheme" in keys:
        if scheme not in montecarlo.scheme_names():
            errors.append(f"unknown scheme '{scheme}'; available: "
                          f"{list(montecarlo.scheme_names())}")
        elif scheme == "milstein54" and model in builtin_models() and \
                not schemes.has_ito_embedding(get_model(model)):
            errors.append(f"scheme 'milstein54' needs the (W, t) embedding with "
                          f"f = (a(x), b(x)); model '{model}' is not of that form")

    if verb == "error-law" and model in builtin_models() and get_model(model).zero_limit:
        errors.append(f"model '{model}' has a limit error U that is identically 0: its error "
                      f"law tends to the point mass at 0, which a law comparison cannot check")

    if verb in ("rate", "error-law") and model in builtin_models() and \
            values["fine_factor"] == 1 and get_model(model).closed_form is None:
        errors.append(f"model '{model}' has no closed form, so its reference is Milstein on the "
                      f"fine grid: it needs fine_factor >= 2 to be finer than the scheme")

    floor = None
    if "case" in keys:
        if not case:
            errors.append("--case is required")
        elif case not in oracles.CASES:
            errors.append(f"unknown case '{case}'; available: {list(oracles.case_ids())}")
        else:
            floor = oracles.CASES[case].floor
            if floor and values[floor.key] is not None and values[floor.key] < floor.least:
                errors.append(f"case '{case}' needs {floor.key} >= {floor.least}: {floor.why}")

    # the fine grids the run builds, each held to the allocation guard of
    # paths.Grid here rather than when the run starts
    n_list, fine_factor = values["n_list"], values["fine_factor"] or 1
    grids = {}
    if "n" in keys and values["n"] is not None and floor is not oracles.QUADRATURE:
        grids["n x fine_factor"] = values["n"] * fine_factor
    if "fine_count" in keys and values["fine_count"] is not None:
        grids["fine_count"] = values["fine_count"]
    if "n_list" in keys and n_list is not None:
        if n_list and min(n_list) < 1:
            errors.append("n_list entries must be >= 1")
        else:
            fine = grids["max(n_list) x fine_factor"] = max(n_list, default=0) * fine_factor
            for n in n_list:
                if fine % n:
                    errors.append(f"n={n} does not divide the fine grid of {fine} "
                                  f"(= max(n_list) x fine_factor)")
            sizes = len(set(n_list))
            if sizes < len(n_list):
                errors.append("n_list entries must be distinct")
            if sizes < montecarlo.RATE_MIN_SIZES:
                errors.append(f"rate fits need at least {montecarlo.RATE_MIN_SIZES} "
                              f"grid sizes, got {sizes}")
            elif max(n_list) < montecarlo.RATE_MIN_SPAN * min(n_list):
                errors.append(f"rate fits need an {montecarlo.RATE_MIN_SPAN}x span of "
                              f"grid sizes, got {max(n_list)}/{min(n_list)}")

    band = None
    if "slope_lo" in keys:
        if given.get("slope_lo") is None and given.get("slope_hi") is None:
            band = RATE_BANDS.get((model, scheme))
        elif values["slope_lo"] is None or values["slope_hi"] is None:
            errors.append("slope_lo and slope_hi must both be given as numbers")
        else:
            band = (values["slope_lo"], values["slope_hi"])
            if not (math.isfinite(band[0]) and math.isfinite(band[1]) and band[0] < band[1]):
                errors.append(f"the slope band must be finite with slope_lo < slope_hi, "
                              f"got [{band[0]}, {band[1]}]")
    values["slope_lo"], values["slope_hi"] = band or (None, None)

    # a KS distance lies in [0, 1]: a threshold outside (0, 1) passes every
    # run or none
    ks = values["ks_threshold"]
    if "ks_threshold" in keys and ks is not None and not 0.0 < ks < 1.0:
        errors.append(f"ks_threshold must lie strictly between 0 and 1, got {ks}")

    for name, cells in grids.items():
        if cells > MAX_FINE_COUNT:
            errors.append(f"a grid of {cells} fine cells ({name}) is too large: "
                          f"at most {MAX_FINE_COUNT}")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(verb=verb, **values)


def _out_base(config: ExperimentConfig) -> str:
    if config.out:
        base = config.out
        for suffix in (".json", ".csv"):
            if base.endswith(suffix):
                base = base[:-len(suffix)]
        return base
    out_dir = os.environ.get(OUT_DIR_ENV, ".")
    return os.path.join(out_dir, f"milsde-{config.verb}-{config.config_hash()}")


def _write_outputs(config: ExperimentConfig, report: dict, csv_lines) -> tuple:
    """Write {base}.json and {base}.csv; remove partial files on failure."""
    base = _out_base(config)
    json_path, csv_path = base + ".json", base + ".csv"
    written = []
    try:
        os.makedirs(os.path.dirname(os.path.abspath(json_path)), exist_ok=True)
        with open(json_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(json_path)
        with open(csv_path, "w") as fh:
            fh.write(f"# schema=milsde.{config.verb}.{SCHEMA_VERSION}\n")
            fh.write(f"# config_hash={config.config_hash()}\n")
            for line in csv_lines:
                fh.write(line + "\n")
        written.append(csv_path)
    except BaseException:
        for path in written:
            try:
                os.unlink(path)
            except OSError:
                pass
        raise
    return json_path, csv_path


def _report_skeleton(config: ExperimentConfig) -> dict:
    return {"schema": f"milsde.{config.verb}.{SCHEMA_VERSION}",
            "config": config.science_dict(),
            "config_hash": config.config_hash()}


def _run_simulate(config: ExperimentConfig) -> tuple:
    problem = get_model(config.model)
    grid = make_grid(config.n, config.fine_factor)
    runner = montecarlo._SCHEMES[config.scheme]
    q = problem.field.dim_q

    def chunk_fn(idx):
        out = runner(problem, simulate_bundle(problem.driver, grid, config.seed, idx),
                     config.n)
        return out.values, out.diverged

    values, flags = over_chunks(config.paths, DEFAULT_CHUNK, chunk_fn, config.threads)
    diverged = int(flags.sum())
    times = np.arange(values.shape[1]) / (values.shape[1] - 1)
    lines = ["path_index,t," + ",".join(f"x_{i+1}" for i in range(q))]
    for pidx, path in enumerate(values):
        for t, point in zip(times, path):
            vals = ",".join(repr(float(v)) for v in point)
            lines.append(f"{pidx},{float(t)!r},{vals}")
    report = _report_skeleton(config)
    report.update(diverged_paths=diverged, passed=diverged == 0)
    table = [f"simulate: model={config.model} scheme={config.scheme} n={config.n} "
             f"paths={config.paths} diverged={diverged}"]
    return report, lines, table, diverged == 0


def _run_rate(config: ExperimentConfig) -> tuple:
    problem = get_model(config.model)
    rep = montecarlo.run_rate_experiment(problem, config.scheme, config.n_list,
                                         config.paths, config.fine_factor,
                                         config.seed, threads=config.threads)
    passed = True
    band_note = "no slope band configured"
    if config.slope_band:
        lo, hi = config.slope_band
        passed = lo <= rep.rate_fit.slope <= hi
        band_note = f"slope band [{lo}, {hi}]"
    report = _report_skeleton(config)
    report.update(rep.to_dict(), passed=passed, band_note=band_note)
    lines = ["n,rms,rms_se,sup_rms,mean_abs"]
    table = [f"{'n':>6s} {'rms':>12s} {'se':>10s} {'sup rms':>12s}"]
    for p in rep.points:
        lines.append(f"{p.n},{p.rms!r},{p.rms_se!r},{p.sup_rms!r},{p.mean_abs!r}")
        table.append(f"{p.n:6d} {p.rms:12.6g} {p.rms_se:10.3g} {p.sup_rms:12.6g}")
    table.append(f"slope {rep.rate_fit.slope:+.4f}  r^2 {rep.rate_fit.r_squared:.5f}  "
                 f"{band_note}  excluded {rep.excluded_paths}  "
                 f"-> {'PASS' if passed else 'FAIL'}")
    return report, lines, table, passed


def _run_error_law(config: ExperimentConfig) -> tuple:
    problem = get_model(config.model)
    rep = montecarlo.run_error_law(problem, config.n, config.paths, config.draws,
                                   config.fine_factor, config.seed,
                                   fine_count=config.fine_count,
                                   threads=config.threads,
                                   ks_threshold=config.ks_threshold)
    report = _report_skeleton(config)
    report.update(rep.to_dict(), passed=rep.passed)
    lines = ["sample,n_obs,mean,mean_se,variance,variance_se"]
    table = [f"{'sample':>8s} {'mean':>10s} {'variance':>10s} {'var se':>10s}"]
    for name, mom in rep.moments.items():
        lines.append(f"{name},{mom.n},{mom.mean!r},{mom.mean_se!r},"
                     f"{mom.variance!r},{mom.variance_se!r}")
        table.append(f"{name:>8s} {mom.mean:10.5f} {mom.variance:10.5f} "
                     f"{mom.variance_se:10.5f}")
    table.append(f"KS {max(rep.distance.ks):.4f} (threshold {config.ks_threshold}, "
                 f"same-law 95% {rep.distance.same_law_95:.4f})  "
                 f"-> {'PASS' if rep.passed else 'FAIL'}")
    return report, lines, table, rep.passed


def _run_lemma_check(config: ExperimentConfig) -> tuple:
    rows = oracles.run_case(config.case, n=config.n, paths=config.paths,
                            fine_factor=config.fine_factor, seed=config.seed,
                            threads=config.threads)
    passed = all(r.passed for r in rows)
    report = _report_skeleton(config)
    report.update(rows=[vars(r) for r in rows], passed=passed)
    lines = ["case,subcase,n,estimate,target,se,tolerance,pass"]
    table = [f"{'case':>8s} {'estimate':>12s} {'target':>10s} {'se':>10s} "
             f"{'tol':>9s} pass"]
    for r in rows:
        lines.append(f"{r.case},{r.subcase},{r.n},{r.estimate!r},{r.target!r},"
                     f"{r.se!r},{r.tolerance!r},{r.passed}")
        table.append(f"{r.case:>8s} {r.estimate:12.6f} {r.target:10.6f} "
                     f"{r.se:10.2g} {r.tolerance:9.2g} {'PASS' if r.passed else 'FAIL'}"
                     f"  {r.subcase}")
    return report, lines, table, passed


def _run_limit_sim(config: ExperimentConfig) -> tuple:
    problem = get_model(config.model)
    q = problem.field.dim_q

    u_all, fps = limits.limit_samples(problem, config.seed, config.draws, config.fine_count,
                                      config.threads, fingerprints=True)
    lines = ["draw," + ",".join([f"u_{i+1}" for i in range(q)]
                                + [f"qv_{name}" for name in stats.FINGERPRINTS])]
    for draw, (u, fp) in enumerate(zip(u_all, fps)):
        uvals = ",".join(repr(float(v)) for v in u)
        fvals = ",".join(repr(float(v)) for v in fp)
        lines.append(f"{draw},{uvals},{fvals}")
    mom = montecarlo.estimate_moments(u_all[:, 0])
    report = _report_skeleton(config)
    report.update(passed=True,
                  moments={"limit": vars(mom)},
                  fingerprint_means=dict(zip(stats.FINGERPRINTS,
                                             (fps.sum(axis=0) / config.draws).tolist())))
    table = [f"limit-sim: draws={config.draws} U1 mean {mom.mean:+.5f} "
             f"variance {mom.variance:.5f} (se {mom.variance_se:.5f})"]
    return report, lines, table, True


@dataclass(frozen=True)
class Verb:
    help: str
    keys: tuple  # its own config keys in flag order; with the seed, its report keys
    run: Callable  # ExperimentConfig -> (report, csv lines, table lines, passed)


VERBS = {
    "simulate": Verb("run a scheme and dump paths",
                     ("model", "scheme", "n", "fine_factor", "paths"), _run_simulate),
    "rate": Verb("strong-error rate fit over coupled paths",
                 ("model", "scheme", "n_list", "fine_factor", "paths", "slope_lo",
                  "slope_hi"), _run_rate),
    "error-law": Verb("compare n U^n with the simulated limit law",
                      ("model", "n", "paths", "draws", "fine_factor", "fine_count",
                       "ks_threshold"), _run_error_law),
    "lemma-check": Verb("closed-form constant checks",
                        ("case", "n", "paths", "fine_factor"), _run_lemma_check),
    "limit-sim": Verb("sample the limit error law",
                      ("model", "draws", "fine_count"), _run_limit_sim),
}


def run(config: ExperimentConfig) -> int:
    """Execute a validated config; write outputs; return the exit code."""
    try:
        report, csv_lines, table, passed = VERBS[config.verb].run(config)
        json_path, csv_path = _write_outputs(config, report, csv_lines)
    except (ArithmeticError, FloatingPointError, KeyError, OSError, ValueError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    try:
        for line in table:
            print(line)
        print(f"report: {json_path}")
        print(f"data:   {csv_path}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (milsde ... | head) after the files were
        # written, so the verdict stands; stdout is pointed at devnull so that
        # the flush at exit does not fail again (the SIGPIPE note of the
        # Python signal docs)
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="milsde",
                                     description="SDE scheme error experiments")
    sub = parser.add_subparsers(dest="verb")
    for name, verb in VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        for key in verb.keys + tuple(_COMMON):
            typ = _KEYS.get(key, (str,))[0]
            p.add_argument("--" + key.replace("_", "-"), help=_COMMON.get(key),
                           type=typ if typ in (int, float) else str)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if not args.verb:
        parser.print_usage(sys.stderr)
        return 2
    flag_values = {k: v for k, v in vars(args).items() if k not in ("verb", "config")}
    try:
        config = parse_config(args.verb, flag_values, config_file=args.config)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2
    return run(config)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
