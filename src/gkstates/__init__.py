"""Gazeau-Klauder coherent states for position-dependent-mass oscillators.

Construction of |J, gamma> states from a discrete spectrum alone, their
photon-statistics (weighting distribution, Mandel Q), temporal dynamics
(autocorrelation, classical/revival timescales, fractional revivals) and
position-space eigenfunctions of the quasi-harmonic oscillator family.
"""

__version__ = "0.1.0"

from .coherent import (
    CoherentState,
    build_state,
    continuity_gap,
    log_normalization_sq,
    log_rho_closed,
    log_rho_sequence,
    overlap,
)
from .dynamics import (
    RevivalEvent,
    Timescales,
    TimeSeries,
    autocorrelation,
    default_time_grid,
    detect_revivals,
    distinct_fractions,
    timescales,
)
from .errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    DomainError,
    GKStatesError,
    GridError,
    ModelMismatchError,
    ResolutionError,
    SpectrumRangeError,
    TruncatedSpectrumError,
)
from .specfun import (
    log_bessel_k,
    log_hyp0f1,
)
from .spectrum import (
    MathewsLakshmanan,
    Morse,
    QuasiHarmonic,
    SpectrumModel,
)
from .stats import (
    MeasureMoment,
    WeightingDistribution,
    distribution,
    mandel_q,
    mandel_q_closed_form,
    mean_closed_form,
    moment_sweep,
    solve_j,
    variance_closed_form,
    verify_measure_moments,
)
from .wavefunctions import (
    GridSpec,
    coherent_density,
    default_grid,
    eigenfunction,
    hamiltonian_residual,
    residual_grid,
    weight_deformation,
)
