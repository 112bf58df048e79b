"""The benchmark's workloads: one milsde CLI verb each, at a fixed size.

``argv`` is the measured size; ``tiny`` a small size of the same verb for the
self-test.  ``--seed`` is added per call.

The benchmark seed picks the CLI seed from the pool 1..SEED_POOL, and every
pool seed has a golden report in ``goldens/``, so every call is compared
field by field.  The verdicts are statistical: at some pool seeds a check
fails (for example the rate slope band at seed 13 of ``rate-drift``), and
there the golden pins the FAIL verdict and exit code 1.  The pinned seed is
the verb's acceptance seed, the one the self-test uses.
"""

from dataclasses import dataclass

SEED_POOL = 16

RATE = ("rate", "--model", "gbm-drift", "--scheme", "milstein",
        "--n-list", "16,32,64,128", "--fine-factor", "8")
ERROR_LAW = ("error-law", "--model", "gbm", "--n", "128", "--fine-factor", "64")
LEMMA = ("lemma-check", "--case", "7.3", "--n", "64", "--fine-factor", "64")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    tiny: tuple
    pinned_seed: int
    # workload whose report and CSV this one must reproduce byte for byte; it
    # shares that workload's goldens
    twin: str = ""

    def cli_argv(self, tiny: bool, cli_seed: int) -> list:
        return [*(self.tiny if tiny else self.argv), "--seed", str(cli_seed)]

    def samples(self, tiny: bool) -> int:
        """Monte Carlo samples per call: scheme paths plus limit draws."""
        argv = self.tiny if tiny else self.argv
        return sum(int(argv[i + 1]) for i, flag in enumerate(argv)
                   if flag in ("--paths", "--draws"))


WORKLOADS = {w.name: w for w in (
    Workload("rate-drift", RATE + ("--paths", "4000"), RATE + ("--paths", "2000"),
             pinned_seed=1),
    # the tiny size still splits into two chunks of 1000 paths, so the
    # self-test runs the threaded path too
    Workload("rate-drift-t2", RATE + ("--paths", "4000", "--threads", "2"),
             RATE + ("--paths", "2000", "--threads", "2"),
             pinned_seed=1, twin="rate-drift"),
    Workload("error-law", ERROR_LAW + ("--paths", "2000", "--draws", "2000"),
             ("error-law", "--model", "gbm", "--n", "16", "--fine-factor", "8",
              "--fine-count", "128", "--paths", "1000", "--draws", "1000"),
             pinned_seed=2),
    Workload("lemma-7.3", LEMMA + ("--paths", "2000"),
             ("lemma-check", "--case", "7.3", "--n", "16", "--fine-factor", "8",
              "--paths", "200"),
             pinned_seed=1),
)}


def cli_seed(seed: int) -> int:
    """The CLI seed a benchmark seed selects from the golden pool."""
    return 1 + (seed - 1) % SEED_POOL
