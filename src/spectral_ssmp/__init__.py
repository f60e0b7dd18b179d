"""Numerical spectral theory of self-similar Markov semigroups.

Subpackages follow the pipeline: Bernstein functions and Bernstein-gamma
evaluation (bernstein), Levy-Khintchine exponents and Wiener-Hopf pairs
(exponents), the shifted Fourier transform and multiplier operators
(transform), spectrum classification (spectrum), eigenfunctions
(eigenfunctions), semigroup evolution and generators (semigroup), and a
Lamperti-transform Monte Carlo oracle (lamperti).
"""

from . import errors
from .bernstein import (
    AtomMeasure,
    BernsteinFunction,
    BernsteinGammaEvaluator,
    ClosedFormMeasure,
    DensityMeasure,
    eval_phi,
    phi_derivative,
    theta_integral,
    theta_limits,
)
from .exponents import (
    Exponent,
    LevyQuadruplet,
    SignedMeasure,
    WienerHopfPair,
    conjugate,
    eval_psi,
    weak_nonlattice_check,
)
from .transform import (
    GridFunction,
    GridSpec,
    MultiplierLine,
    SpectrumLine,
    apply_multiplier,
    domain_check,
    gaussian_fixture,
    h_fixture,
    inner_e,
    inverse_shifted_fft,
    multiplier_h,
    multiplier_lambda,
    shifted_fft,
)
from .spectrum import (
    SpectrumReport,
    classify,
    spectrum_values,
    table_rule,
)
from .eigenfunctions import (
    approx_eigenfunction,
    eigenfunction_fft,
    eigenfunction_series,
    standard_bump,
    wright,
    wright_eigenfunction,
)
from .semigroup import (
    EvolutionPlan,
    TensorPlan,
    evolve,
    evolve_tensor,
    generator_ido,
    generator_pdo,
    mult_semigroup,
    ws_residual,
)
from .lamperti import MCEstimate, SimConfig, mc_expectation
from .families import (
    bernstein_from_json,
    exponent_from_json,
    make_bernstein,
    stable_density_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
