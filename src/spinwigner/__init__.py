"""Continuous Wigner-like quasi-probability functions for spin ensembles.

The pipeline: build the represented tower of each angular-momentum shell
with collective spin operators applied by bit flips (``spin_core``), embed
the spin space into a truncated two-mode Fock space (``omega_map``),
evaluate the four-dimensional Wigner function as a sum of oscillator Moyal
functions (``moyal``), reduce it to three variables through the Hopf
contraction (``reduced_space``), and integrate radially onto the sphere
(``sphere``); ``moyal`` holds the one kernel of both Moyal sums.
``states`` builds the standard state families and ``cli`` exposes grid
evaluation as a command line tool.
"""

__version__ = "0.19.0"

from .errors import CapacityError, NumericError, SpinWignerError, ValidationError
from .spin_core import (
    AngularBasis,
    SpinMixture,
    SpinState,
    decompose_angular_basis,
)
from .omega_map import (
    OmegaMap,
    OscillatorDensity,
    construct_omega,
    fock_states,
    intertwining_residual,
    push_density,
    push_operator,
)
from .moyal import wigner_complex_many
from .reduced_space import (
    check_fiber_invariance,
    fiber_average,
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
    "cat_state",
    "check_fiber_invariance",
    "construct_omega",
    "decompose_angular_basis",
    "fiber_average",
    "fock_state",
    "fock_states",
    "intertwining_residual",
    "mixture",
    "push_density",
    "push_operator",
    "radial_integral_I",
    "realize_operator",
    "realize_state",
    "reduced_wigner_many",
    "sphere_normalization",
    "spin_coherent",
    "squeezed_state",
    "wigner_complex_many",
    "ws_analytic",
    "ws_numeric_many",
]
