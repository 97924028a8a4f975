"""Stochastic SEIR simulation and closed-form likelihood inference.

One Wiener process perturbs the natural mortality rate of a five
compartment SEIR system; this package simulates the resulting paths,
rebuilds latent compartments from observed symptomatic incidence, and
estimates the transmission rates, symptomatic split and noise intensity
in closed form, with residual diagnostics and a deterministic Bayesian
baseline alongside.
"""

from .bayes import (McmcConfig, McmcResult, PriorSpec, cumulative_incidence,
                    metropolis, ode_rk4, poisson_loglik)
from .diagnostics import (ConsistencyRow, NormalityVerdict, ResidualSeries,
                          consistency_study, normality_test, qq_points,
                          residual_increments)
from .errors import (ConfigError, DegenerateDenominatorError,
                     DegenerateSampleError, DomainError, EmptySeriesError,
                     LengthMismatchError, MissingIncrementsError,
                     NegativeCountError, ParseError, PositivityError,
                     ReplicateError, SeirSdeError, SimplexError,
                     SingularSystemError, TooFewPointsError,
                     WindowViolatedError, ZeroSigmaError)
from .estimate import (BetaEstimate, EstimateReport, JFunctionals, PEstimate,
                       SigmaEstimate, estimate_betas, estimate_p,
                       estimate_path, estimate_sigma, girsanov_loglik,
                       replicate_estimates)
from .model import (BASELINE_INIT, BASELINE_PARAMS, MEXICO_CITY_POPULATION,
                    HypothesisWindow, ModelParams, Path, StateVec,
                    hypothesis_window, r0)
from .reconstruct import (IncidenceSeries, ReconstructConfig, normalize,
                          replicate_reconstructions)
from .simulate import (SCHEME_EULER, SCHEME_MILSTEIN, SimConfig,
                       draw_increments, path_from_csv, path_to_csv,
                       replicate_seed, simulate_path)

__version__ = "0.1.0"
