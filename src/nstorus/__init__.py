"""Spectral solver for the 3D Navier-Stokes system on the torus.

Small initial data is advanced one unit time interval per step. Each step
splits the solution into a heat-decayed part, a Gaussian-decaying correction
family, and a slowly decaying remainder solved from a contraction fixed
point; numerically fitted constants certify that the decay bounds propagate
from step to step. A direct Picard solver on the same lattice and quadrature
grid serves as an independent oracle.
"""

from .certificates import (
    CertificateRecord,
    check_gaussian_envelope,
    contraction_coefficients,
    fit_gaussian_bound,
    fit_remainder_bound,
)
from .checkpoint import load_field, save_field
from .config import RunConfig, generate_ic, parse_config, serialize_config
from .errors import CheckpointError, ConfigError, ConvergenceError
from .fields import SpectralField, TimeSlicedField, fmc_norm, phi_norm
from .induction import (
    DecompositionState,
    assemble_forcing,
    assemble_gaussian_part,
    assemble_heat_part,
    assemble_remainder_part,
    compute_gaussian_correction,
    induction_steps,
    solve_interval,
    solve_remainder,
)
from .lattice import Lattice, LatticeSpec, TruncationRule, get_lattice
from .operators import (
    bilinear,
    duhamel_integrate,
    identity_split,
    leray_project,
    star_product,
    unit_times,
)
from .params import SolverParams
from .picard import PicardTrajectory, picard_solve

__version__ = "0.1.0"
