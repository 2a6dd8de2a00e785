"""Floquet spectra, stability charts, and evolution loops for driven systems."""

__version__ = "0.1.0"

from .profiles import (
    DriveProfile,
    ProfileError,
    beta_period_integral,
    eval_beta,
    profile_from_json,
    profile_to_json,
    with_amplitude,
)
from .propagator import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    QuasiSpectrum,
    StepPattern,
    Unitary,
    as_hermitian,
    default_steps,
    epicycle,
    evolve,
    expm_hermitian,
    floquet_hamiltonian,
    quasienergies,
    reduce_to_zone,
    step_evolve,
    step_propagator,
    unitarity_defect,
)
from .hill import (
    FloquetResult,
    NoRootError,
    SweepPoint,
    classical_trajectory,
    constant_family,
    find_loop_beta,
    floquet_result,
    loop_deviation,
    monodromy,
    omega_F_scan,
    oscillator_quasienergies,
    rectangular_family,
    sinusoid_family,
)
from .planar_charge import (
    PhysicalParams,
    beta_from_physical,
    planar_loop_check,
    planar_monodromy,
    planar_trajectory,
    polish_loop_beta1,
    reconstruct_planar,
    rotating_frame_reduction,
    stability_family,
    stability_threshold,
    symplectic_defect,
)
from .spin_resonance import (
    SpinParams,
    spin_floquet_generator,
    spin_instantaneous,
    spin_quasienergy_spacing,
    spin_spacing_from_propagator,
    verify_factorization,
)
from .fields import (
    TrapField,
    magnetic_field_fd,
    nodal_approx_error,
    rotating_nodal_field,
    standing_nodal_field,
    uniform_field_potential,
    vector_potential_rotating,
    vector_potential_standing,
)
