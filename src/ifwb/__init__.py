"""Integer-forcing MIMO receiver workbench."""

from .errors import (
    DegenerateBasis,
    DimensionTooLarge,
    IfwbError,
    InfeasiblePermutation,
    NotPositiveDefinite,
    NotSymmetric,
    SingularA,
    WrongDimension,
)
from .lattice import (
    ReductionReport,
    brute_force_min_max,
    int_det,
    is_kz_reduced,
    is_unimodular,
    kz_approx_successive_lll,
    kz_reduce,
    lll_reduce,
    shortest_vector,
)
from .linalg import cholesky_lower, complex_to_real
from .rates import (
    AllocationPlan,
    ChannelInstance,
    EffectiveNoiseModel,
    GdfeFilters,
    IfRates,
    SicPlan,
    SuccessiveIfRates,
    allocate_rates,
    feasible_allocations,
    gdfe_filters,
    if_effective_model,
    if_rates,
    mmse_sic_plan,
    optimal_a,
    pseudo_triangularize,
    successive_if_rates,
    waterfilling_capacity,
    white_input_capacity,
)

__version__ = "0.1.0"
