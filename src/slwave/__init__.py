"""Numerical wave-functional model of a Sturm-Liouville operator.

From a potential q on [0, l] the package builds the Dirichlet spectrum,
boundary-controlled waves, a gauge on the half interval, the 2x2 matrix
model operator, and the recovery of q (up to reflection) from the model
coefficients.  The verify module turns the construction's identities into
executable checks.  It and the atom eikonal it reads (geometry) load
only when imported, so a `model` or `recover` run never loads them.
"""

from .errors import (AdmissibilityError, ConfigurationError, ContractError,
                     InternalError, NumericalError, SlwaveError,
                     VerificationFailure)
from .grid import build_grid
from .model import default_gauge
from .operator import assemble_coefficients, recover_potential
from .sturm import dirichlet_eigensystem, kernel_basis, potential

__version__ = "0.1.0"
