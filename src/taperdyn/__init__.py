"""taperdyn: taper-weighted ergodic averages and weighted data-driven methods
for dynamical systems (linear propagator fits, dictionary Koopman fits,
sparse model identification, spectral-measure estimation, and nonparametric
diffusion forecasting), with built-in trajectory generators and a desk-scale
benchmark harness comparing weighted against unweighted convergence.

Importing the package loads numpy alone: each scipy routine is imported
inside the one function that calls it.
"""

from .averages import SweepRow, birkhoff_average, convergence_sweep
from .dmd import (
    DmdResult,
    ProjectionBasis,
    SnapshotPair,
    dmd,
    dmd_error_sweep,
    project,
    random_projection,
    snapshot_pair,
    spectrum_distance,
)
from .edmd import (
    Dictionary,
    DictionaryMatrices,
    KoopmanMatrix,
    MpedmdResult,
    build_dictionary_matrices,
    edmd,
    evaluate_transitions,
    fourier_dictionary,
    identity_dictionary,
    monomial_dictionary,
    mpedmd,
)
from .errors import (
    ConditioningError,
    ConfigError,
    DegenerateWeightError,
    DomainError,
    IngestError,
    NumericalError,
    ShapeError,
    SizeError,
    TaperdynError,
)
from .forecast import (
    DelayEmbedding,
    DiffusionBasis,
    ForecastResult,
    ShiftMatrix,
    delay_embed,
    diffusion_basis,
    forecast,
    nino34_compare,
    shift_matrix,
    skill,
)
from .linalg import LstsqSolution, eig, pinv_lstsq
from .sindy import (
    SindyModel,
    harmonic_oscillator_exact,
    sindy_error_sweep,
    stlsq,
)
from .specmeas import (
    AutocorrelationSet,
    SpectralDensity,
    autocorrelations,
    cosine_filter,
    density,
    peak_report,
    smoothstep_filter,
)
from .systems import (
    HarmonicSeries,
    RngStream,
    Trajectory,
    driven_logistic,
    harmonic_series,
    ou_sample,
    quasiperiodic_field,
    standard_map,
)
from .weights import (
    WeightVector,
    eval_bump,
    make_weight_vector,
    uniform_taper,
)

__version__ = "0.1.0"
