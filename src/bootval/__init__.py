"""bootval: bootstrap internal validation for binary-outcome prediction
models.

Fits logistic models (ML, ridge, lasso), computes optimism-corrected
accuracy measures (Harrell, 0.632, 0.632+), and builds optimism-aware
bootstrap confidence intervals (location-shifted and two-stage), plus a
simulation harness for coverage studies.
"""

__version__ = "0.1.0"

from .data import DataError, Dataset, class_counts, load_csv
from .intervals import (IntervalEstimate, Validation, apparent_bootstrap_ci,
                        delong_interval, location_shifted_ci, parse_method,
                        two_stage_ci, validate)
from .metrics import (C_STATISTIC, CALIBRATION_SLOPE, c_statistic_value,
                      calibration_slope, delong_variance, no_information)
from .models import (FitRecipe, FittedModel, RiskScores, fit, fit_ml,
                     fit_penalized, predict)
from .optimism import (HARRELL, P632, P632PLUS, OptimismResult, ReplicateSet,
                       correct, evaluate_replicates)
from .resampling import ResamplePlan, draw, percentile_interval, stream
from .simulation import (CovariateGenerator, CoverageResult,
                         GeneratorConfig, ScenarioSpec, TrueModel,
                         calibrate_intercept, derive_n, estimate_true_auc,
                         generate_cohort, run_scenario)

__all__ = [name for name in dir() if not name.startswith("_")]
