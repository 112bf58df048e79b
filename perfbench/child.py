"""One milsde CLI call, timed inside a fresh interpreter.

    python3 perfbench/child.py RESULT SPAWN_T TRACE [CLI ARGS...]

RESULT is the JSON file the measurements go to, SPAWN_T the parent's
``time.monotonic()`` just before it started this process, TRACE 0 or 1.
Without CLI arguments only the set-up (interpreter start, ``milsde.cli``
import, parser build) is timed.  ``src`` of the checkout must be on
PYTHONPATH.
"""

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    result_path, spawn_t, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    cli_argv = sys.argv[4:]
    import milsde
    from milsde import cli
    cli.build_parser()
    setup_s = time.monotonic() - spawn_t

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if os.path.dirname(os.path.dirname(os.path.abspath(milsde.__file__))) != src:
        print(f"milsde imported from {milsde.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if cli_argv:
        tracer = None
        if trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(milsde)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        if tracer is None:
            code = cli.main(cli_argv)
        else:
            code = tracer.call("cli.main", cli.main, (cli_argv,))
        wall_s = time.perf_counter() - t0
        result.update(exit=code, wall_s=wall_s, cpu_s=_cpu_s() - cpu0,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result["layers"] = tracer.layer_metrics("cli.main")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
