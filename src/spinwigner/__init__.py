"""Continuous Wigner-like quasi-probability functions for spin ensembles.

The pipeline: build collective spin operators and the labelled (k, l, m)
eigenbasis (``spin_core``), embed the spin space into a truncated two-mode
Fock space (``omega_map``), evaluate the four-dimensional Wigner function
through oscillator Moyal functions (``moyal``), reduce it to three
variables through the Hopf contraction (``reduced_space``), and integrate
radially onto the sphere (``sphere``). ``states`` builds the standard
state families and ``cli`` exposes grid evaluation as a command line tool.
"""

__version__ = "0.9.0"

from .errors import CapacityError, NumericError, SpinWignerError, ValidationError
from .spin_core import (
    AngularBasis,
    SpinMixture,
    SpinState,
    build_collective_spin,
    decompose_angular_basis,
    ladder,
    shell_multiplicity,
    total_spin_squared,
)
from .omega_map import (
    OmegaMap,
    OscillatorDensity,
    construct_omega,
    fock_states,
    intertwining_residual,
    jordan_schwinger,
    jordan_schwinger_squared,
    push_density,
    push_operator,
)
from .moyal import laguerre, moyal_1d, wigner_4d_many, wigner_complex_many
from .reduced_space import (
    check_fiber_invariance,
    hopf_forward_arrays,
    hopf_section_arrays,
    reduced_wigner_many,
)
from .sphere import (
    LmDensity,
    radial_integral_I,
    sphere_normalization,
    ws_analytic,
    ws_numeric_many,
)
from .states import (
    StateSpec,
    cat_state,
    fock_state,
    mixture,
    realize_operator,
    realize_state,
    spin_coherent,
    squeezed_state,
)

__all__ = [
    "AngularBasis",
    "CapacityError",
    "LmDensity",
    "NumericError",
    "OmegaMap",
    "OscillatorDensity",
    "SpinMixture",
    "SpinState",
    "SpinWignerError",
    "StateSpec",
    "ValidationError",
    "build_collective_spin",
    "cat_state",
    "check_fiber_invariance",
    "construct_omega",
    "decompose_angular_basis",
    "fock_state",
    "fock_states",
    "hopf_forward_arrays",
    "hopf_section_arrays",
    "intertwining_residual",
    "jordan_schwinger",
    "jordan_schwinger_squared",
    "ladder",
    "laguerre",
    "mixture",
    "moyal_1d",
    "push_density",
    "push_operator",
    "radial_integral_I",
    "realize_operator",
    "realize_state",
    "reduced_wigner_many",
    "shell_multiplicity",
    "sphere_normalization",
    "spin_coherent",
    "squeezed_state",
    "total_spin_squared",
    "wigner_4d_many",
    "wigner_complex_many",
    "ws_analytic",
    "ws_numeric_many",
]
