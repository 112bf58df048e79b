"""Outside-in span tracer for the milsde layers.

Every traced function is replaced in each namespace that looks it up (for
example ``simulate_bundle`` is imported by name into ``montecarlo``,
``limits``, ``oracles`` and ``cli``), so no file of the package changes.
Spans nest per thread; a span's self time is its duration minus the spans it
directly encloses on the same thread, wrappers included.  Work a thread pool
does for a span is recorded under the worker threads' own spans, and the
waiting shows as the parent's self time.  The wrappers time their own
bookkeeping, so the tracer's cost is measured directly, not as the difference
of two noisy wall times.
"""

import functools
import os
import threading
import time
from collections import defaultdict

MB = float(1 << 20)

# span name -> every place the name is looked up: (module, attribute) or
# (module, dict attribute, key)
SITES = {
    "rng.normal_matrix": [("rng", "normal_matrix")],
    "paths.simulate_bundle": [("paths", "simulate_bundle"), ("montecarlo", "simulate_bundle"),
                              ("limits", "simulate_bundle"), ("oracles", "simulate_bundle"),
                              ("cli", "simulate_bundle")],
    "paths.build_driver": [("paths", "build_driver")],
    "schemes.iterated_integrals": [("schemes", "iterated_integrals")],
    "schemes.milstein": [("schemes", "milstein"), ("montecarlo", "_SCHEMES", "milstein")],
    "schemes.reference": [("schemes", "reference"), ("limits", "reference")],
    "model.correction_pairing": [("schemes", "correction_pairing")],
    "limits.sample_aux": [("limits", "sample_aux")],
    "limits.simulate_mn": [("limits", "simulate_mn")],
    "limits.simulate_u": [("limits", "simulate_u")],
    "oracles.quartic_time_average": [("oracles", "quartic_time_average")],
    "oracles.run_case": [("oracles", "run_case")],
    "montecarlo.scheme_error_samples": [("montecarlo", "scheme_error_samples")],
    "montecarlo.estimate_moments": [("montecarlo", "estimate_moments")],
    "montecarlo.compare_distributions": [("montecarlo", "compare_distributions")],
    "montecarlo.fit_rate": [("montecarlo", "fit_rate")],
    "cli._write_outputs": [("cli", "_write_outputs")],
}

# spans whose self time and call count are reported as per-layer metrics
SELF_TIMED = ("rng.normal_matrix", "paths.simulate_bundle", "paths.build_driver",
              "schemes.iterated_integrals", "schemes.milstein", "schemes.reference",
              "model.correction_pairing", "limits.sample_aux", "limits.simulate_mn",
              "limits.simulate_u", "oracles.quartic_time_average", "oracles.run_case",
              "montecarlo.scheme_error_samples")
REDUCTIONS = ("montecarlo.estimate_moments", "montecarlo.compare_distributions",
              "montecarlo.fit_rate")


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.peaks = defaultdict(float)
        self.overhead_s = 0.0

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name, fn, args=(), kwargs=None, observe=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``observe(args, out)`` records counts after the call.  The time the
        span spends outside ``fn`` (its bookkeeping and ``observe``) is the
        tracer's own cost: it counts towards no self time, only ``overhead_s``.
        """
        entered = time.perf_counter()
        stack = self._stack()
        children = [0.0]
        stack.append(children)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **(kwargs or {}))
        finally:
            duration = time.perf_counter() - t0
            stack.pop()
        if observe is not None:
            observe(args, out)
        with self._lock:
            self.total_s[name] += duration
            self.self_s[name] += duration - children[0]
            self.calls[name] += 1
            spent = time.perf_counter() - entered
            self.overhead_s += spent - duration
        if stack:
            stack[-1][0] += spent
        return out

    def count(self, name, amount) -> None:
        with self._lock:
            self.counts[name] += amount

    def peak(self, name, value) -> None:
        with self._lock:
            self.peaks[name] = max(self.peaks[name], value)

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observe)
        return traced

    def install(self, package) -> None:
        """Wrap every site in SITES; ``package`` is the imported milsde."""
        observers = {
            "rng.normal_matrix": lambda a, out: (self.count("rng.normals", out.size),
                                                 self.count("rng.streams", 1)),
            "paths.simulate_bundle": lambda a, out: self.peak(
                "paths.bundle_mb", (out.w.nbytes + out.y.nbytes + out.a_int.nbytes) / MB),
            "schemes.iterated_integrals": lambda a, out: self.count(
                "schemes.k_fine_cells", a[0].n_paths * a[0].grid.fine_count),
            "schemes.milstein": lambda a, out: self.count(
                "schemes.steps", out.n_paths * out.coarse_n),
            "limits.simulate_mn": lambda a, out: self.peak(
                "limits.mn_mb", (out[0].nbytes + out[1].nbytes) / MB),
            "montecarlo.scheme_error_samples": lambda a, out: self.count(
                "montecarlo.excluded_paths", int((~out["kept"]).sum())),
            "cli._write_outputs": lambda a, out: self.count(
                "cli.report_bytes", sum(os.path.getsize(p) for p in out)),
        }
        for name, sites in SITES.items():
            wrapped = None
            for module_name, attr, *key in sites:
                owner = vars(getattr(package, module_name))
                if key:
                    owner, attr = owner[attr], key[0]
                original = owner[attr]
                if wrapped is None:
                    wrapped = self.wrap(name, original, observers.get(name))
                elif original is not wrapped.__wrapped__:
                    raise RuntimeError(f"{module_name} {attr} is not the function "
                                       f"traced as {name}")
                owner[attr] = wrapped

    def layer_metrics(self, top: str) -> dict:
        """Per-layer metrics; ``top`` is the span around the whole verb."""
        out = {}
        for name in SELF_TIMED:
            out[f"{name}.self_s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
        for name in ("rng.normals", "rng.streams", "schemes.k_fine_cells",
                     "schemes.steps", "montecarlo.excluded_paths", "cli.report_bytes"):
            out[name] = self.counts[name]
        for name in ("paths.bundle_mb", "limits.mn_mb"):
            out[name] = self.peaks[name]
        normals = self.counts["rng.normals"]
        out["rng.ns_per_normal"] = (1e9 * self.self_s["rng.normal_matrix"] / normals
                                    if normals else 0.0)
        out["montecarlo.reductions_s"] = sum(self.total_s[n] for n in REDUCTIONS)
        out["cli.write_s"] = self.total_s["cli._write_outputs"]
        out["cli.unattributed_s"] = self.self_s[top]
        out["trace.overhead_s"] = self.overhead_s
        return out
