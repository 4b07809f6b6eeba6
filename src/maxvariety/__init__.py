"""Robust covariance cleaning and maximum-variety portfolio construction.

The package estimates a heavy-tail-proof scatter matrix, rectifies it
toward its Toeplitz noise structure, whitens, selects the number of common
factors against a Tracy-Widom threshold just above the random-matrix bulk
edge, clips the noise eigenvalues, and allocates long-only weights that
maximize the portfolio variety ratio.
A rolling backtest engine and a CLI wrap the pipeline end to end.
"""

from .allocation import (CovarianceInput, OptimizationResult, OptimizerConfig,
                         WeightVector, maximize_variety,
                         min_variance_variety_weights, optimize_variety,
                         variety_ratio)
from .backtest import (BacktestConfig, BacktestResult, PerfStats, perf_stats,
                       rolling_schedule, run_backtest, turnover)
from .denoise import (CleanConfig, CleaningReport, EigenSpectrum,
                      clean_covariance, clip_spectrum, eigen_spectrum,
                      mp_upper_bound, order_threshold,
                      save_eigenvalue_histogram, select_order)
from .errors import (ConvergenceError, DegenerateDataError,
                     DegenerateSpectrumError, EigenvalueFloorWarning,
                     IngestionError, InsufficientSamplesError,
                     MaxVarietyError, NumericalError, ParameterError,
                     SingularMatrixError, UsageError)
from .market_model import (FactorModelSpec, SyntheticPanel, gen_panel,
                           gen_sphere_vector, gen_texture,
                           gen_toeplitz_scatter)
from .panels import (PricePanel, ReturnsPanel, load_prices, load_returns_csv,
                     save_returns_csv, to_returns)
from .robust import (ScatterMatrix, TylerConfig, demean_rows,
                     fixed_point_residual, inv_sqrt, scm, toeplitzify, tyler)

__version__ = "0.1.0"
