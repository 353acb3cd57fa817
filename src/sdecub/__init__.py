"""Deterministic cubature estimation and training for SDE path functionals.

The pipeline: construct a degree-m cubature formula on the unit interval,
scale and concatenate its paths over a power-schedule time partition,
compress the resulting tree by localized measure recombination, solve one
controlled ODE per surviving leaf, and weight the functional values.  A
seeded Euler-Maruyama Monte Carlo estimator serves as the baseline, and a
toy variational training loop compares gradient descent under both
estimators.
"""

from .errors import (
    ConfigError,
    DimensionMismatch,
    DivergenceDetected,
    IndexOutOfRange,
    InvalidParameter,
    LevelTooLarge,
    ManifestMismatch,
    MatchFailure,
    NoNullVector,
    NonFiniteGradient,
    NonFiniteState,
    NumericalError,
    OracleUnavailable,
    SdeCubError,
    SingularDiffusion,
    TreeTooLarge,
    UnsupportedDimension,
)
from .estimator import (
    BenchConfig,
    EstimateReport,
    PathFunctional,
    convergence_experiment,
    cubature_estimate,
    mc_estimate,
    sine_tracking_functional,
    terminal_functional,
)
from .fields import FieldSpec, make_field
from .formulas import (
    CubatureFormula,
    PiecewisePath,
    VerificationReport,
    degree3_formula,
    degree5_formula,
    expected_signature,
    iterated_integral,
    moment_words,
    verify_cubature,
    word_degree,
)
from .nets import NetworkFields
from .ode import VectorFieldSet, ito_to_stratonovich
from .partition import (
    TimePartition,
    enumerate_leaves,
    leaf_derivatives,
    make_partition,
)
from .recombination import (
    DiscreteMeasure,
    Localization,
    TestBasis,
    WeightTable,
    klv_step,
    localize,
    preprocess,
    recombine,
    rmp,
    singleton_localization,
)
from .training import (
    TrainConfig,
    TrainingLog,
    VariationalLossSpec,
    loss_and_gradient_cubature,
    loss_and_gradient_mc,
    make_training_data,
    train,
    variational_loss_terms,
)

__version__ = "0.1.0"
