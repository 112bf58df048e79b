"""Milstein-type schemes for semimartingale-driven SDEs and the
Monte Carlo machinery to verify their convergence rates and asymptotic
error laws."""

from .model import (CoefficientField, SdeProblem, builtin_models,
                    correction_pairing, get_model, ito_problem)
from .montecarlo import (ExperimentReport, RateFit, compare_distributions,
                         estimate_moments, fit_rate, ks_statistic, null_tolerance,
                         run_error_law, run_rate_experiment)
from .paths import (DriverSpec, Grid, PathBundle, brownian_motion_driver,
                    build_driver, ito_embedding_driver,
                    make_grid, simulate_bundle, time_driver)
from .schemes import (SchemeOutput, euler, fold_iterated_integrals, has_ito_embedding,
                      iterated_integrals, milstein, milstein_ito54, reference)
from .stats import FINGERPRINTS, covariation, dc, dm, dn, dz, fingerprints, k_fine

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
