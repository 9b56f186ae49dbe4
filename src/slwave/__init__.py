"""Numerical wave-functional model of a Sturm-Liouville operator.

From a potential q on [0, l] the package builds the Dirichlet spectrum,
boundary-controlled waves, the symmetric-set geometry with its eikonal
metric, a gauge on the half interval, the 2x2 matrix model operator, and
the recovery of q (up to reflection) from the model coefficients.  The
verify module turns the construction's identities into executable checks.
"""

from .analytic import (ClosedForm, Const, Poly, PiecewisePoly, Trig, bump,
                       parse_expression, ramp)
from .control import (ControlSignal, KernelControl, SourceTerm, SpanEstimate,
                      SupportReport, WaveField, control_to_kernel,
                      fdtd_oracle, gamma1, gamma2, reachable_span_estimate,
                      smooth_wave, source_wave, support_report,
                      wavefield_write_csv)
from .errors import (AdmissibilityError, ConfigurationError, ContractError,
                     InternalError, NumericalError, SlwaveError,
                     VerificationFailure)
from .geometry import (Atom, SymmetricSet, atom_snapshot, boundary_atom,
                       complement, distance_profile, eikonal_apply,
                       eikonal_metric, isotony_apply, neighborhood,
                       project_onto, set_mass, symmetric_set)
from .grid import (Grid, GridFunction, build_grid, central_diff, diff_samples,
                   inner, interp_cubic, quad, read_csv, sample, simpson_sum,
                   write_csv)
from .model import (FormLimitReport, GaugeData, HatField, KernelElement,
                    ModelInnerReport, SmoothFunction, boundary_form,
                    default_gauge, form_limit_check, hat_consistency_residual,
                    hat_value, model_inner, model_inner_report,
                    parseval_residual, smooth_from_closed_form)
from .operator import (ModelCoefficients, RecoveryResult, apply_model,
                       assemble_coefficients, graph_sample,
                       intertwine_residual, recover_potential,
                       smooth_from_samples)
from .sturm import (EigenSystem, KernelBasis, OdeSolution, Potential,
                    check_lower_bound, dirichlet_eigensystem, kernel_basis,
                    modal_coefficients, potential, solve_ivp,
                    wave_propagator_apply)
from .verify import (CHECK_NAMES, CheckResult, VerificationReport, Workspace,
                     run_all)

__version__ = "0.1.0"
