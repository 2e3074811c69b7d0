"""gp2d: a numerical laboratory for the dilute two-dimensional Bose gas.

The package chains a compactly supported radial pair potential through
its scattering length, the Neumann correlation profile on a disk, the
torus correlation kernel and renormalized potential, and finally the
truncated excitation Fock space, where operator identities and
inequalities are certified as explicit matrix statements.
"""

__version__ = "0.1.0"

from .potentials import (RadialPotential, step, gaussian_bump, free,
                         tabulated, fourier_transform_radial)
from .scattering import (scattering_length, neumann_ground_state,
                         trial_wavenumber, validate_neumann_asymptotics)
from .lattice import build_lattice
from .kernels import (GPParameters, eta_coefficients,
                      renormalized_potential, scattering_residual,
                      omega_lattice_sum, chi_hat)
from .fock import (build_basis, shell_modes, ladder, hamiltonian_pieces,
                   generators, conjugate, effective_hamiltonians)
from .audits import (min_constant, localization_check,
                     condensation_lower_bound, unitary_excitation_map)
from .energy import vacuum_upper_bound, ground_state, sweep

__all__ = [name for name in dir() if not name.startswith("_")]
