"""Learning directed acyclic graphs from partial orderings.

The package implements a screen-then-search estimator (PODAG) for DAG
structure when a layering of the variables is known, together with the
PC and PC+ baselines, a linear Gaussian SEM simulator, and evaluation
tooling.
"""

from .baselines import BaselineResult, estimate_h0, estimate_h_minus_j, pc, pc_plus
from .errors import (
    CycleError,
    DegenerateDataError,
    InconsistencyError,
    InsufficientDataError,
    LabelMismatchError,
    PodagError,
    SelectionError,
    SingularityError,
)
from .evaluation import (
    BenchmarkSpec,
    EdgeMetrics,
    collect_test_tuples,
    edge_metrics,
    faithfulness_report,
    rho_min_star,
    run_benchmark,
)
from .graph import (
    Dag,
    PartialOrdering,
    Pdag,
    SepsetMap,
    apply_meek_rules,
    read_edgelist,
    read_layering,
    write_edgelist,
    write_layering,
)
from .screening import (
    LassoFit,
    ScreenEntry,
    ScreenSets,
    default_lambda_grid,
    lasso_fit,
    lasso_lambda_max,
    screen_all,
    screen_lasso,
    screen_pcor,
    screen_sis,
    select_lambda_aic,
)
from .search import (
    Diagnostics,
    PodagConfig,
    PodagResult,
    learn,
    podag_multi_layer,
)
from .sem import (
    GenConfig,
    Sem,
    generate_layered_dag,
    population_covariance,
    random_weights,
    rng_from_seed,
    sample,
    spawn_rngs,
    toy_two_layer_sem,
)
from .stats import (
    CiEngine,
    CiVerdict,
    CovMatrix,
    Dataset,
    GaussianEngine,
    OracleEngine,
    RecordingEngine,
    fisher_z_test,
    partial_correlation,
    sample_covariance,
)

__version__ = "0.1.0"
