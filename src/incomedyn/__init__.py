"""Income-distribution dynamics for a developing economy.

A multiplicative-noise income process, its closed-form inverse-gamma steady
state, a conservative Fokker-Planck evolver, parameter estimation from
banded survey data, and poverty indices including a consumption-deprivation
index that needs no poverty line.
"""

__version__ = "0.1.0"

from .distlib import (
    Moment,
    SteadyStateIPDF,
    ipdf_cdf,
    ipdf_density,
    ipdf_mean,
    ipdf_moment,
    ipdf_sample,
    reg_upper_incomplete_gamma,
)
from .errors import (
    DataError,
    DomainError,
    IncomedynError,
    NumericalError,
    TimeStepError,
)
from .estimate import FitResult, MonodFit, PiecewiseLinear, fit_ipdf, fit_monod, labour_rate_series
from .fpsolve import (
    EigenMode,
    GridDensity,
    eigenmode_eval,
    eigenmode_operator_residual,
    eigenmode_params,
    evolve,
    kummer_m,
    log_grid,
    steady_state_mode,
    steady_state_residual,
)
from .poverty import (
    FGTIndices,
    IndexSeries,
    Reduce,
    Transfer,
    cd_index_banded,
    cd_index_direct,
    cd_index_model,
    fgt_indices,
    index_series,
    sen_axiom_check,
    sen_axiom_suite,
)
from .simulate import (
    AgentPopulation,
    LangevinParams,
    hill_tail_exponent,
    init_population,
    ks_distance,
    run,
)
from .survey import (
    Band,
    BandedDistribution,
    DeflatorTable,
    collapse_rescale,
    deflate,
    empirical_cdf,
    empirical_ipdf,
    load_deflators,
    load_rounds,
    save_rounds,
    synth_round,
)
