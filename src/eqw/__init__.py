"""Exact entanglement-structure analysis of equally weighted oracle states."""

from .errors import ResourceCapError, TargetEntanglementError
from .states import (
    BooleanFunction,
    LinearForm,
    StateVector,
    apply_local_x,
    bv_function,
    complement,
    is_balanced,
    make_function,
    parse_function,
    state_from_function,
    tensor,
    tensor_all,
    uniform_state,
    weight,
)
from .oracles import (
    MeasurementOutcome,
    SimonInstance,
    dj_oracle_pipeline,
    make_simon_instance,
    prepare_dj_state,
    simon_canonical_state,
    simon_global_state,
    simon_measure,
)
from .separability import (
    Bipartition,
    Factorization,
    SeparabilityReport,
    classify,
    finest_factorization,
    full_separability_fast,
    schmidt_rank,
    try_factor,
    wht,
)
from .census import (
    CensusReport,
    CensusRow,
    DjFractions,
    GroverCounts,
    binom,
    count_balanced,
    count_balanced_fully_separable,
    count_bisep_fixed_partition,
    count_dj_bisep_upper,
    count_grover,
    count_pairblock_factorizations,
    count_simon,
    dj_fractions,
    enumerate_dj,
    enumerate_grover,
    enumerate_simon,
    grover_bisep_fraction_log2,
)
from .verify import lemma_check

__version__ = "0.1.0"
