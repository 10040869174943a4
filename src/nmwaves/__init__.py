"""Wavefront analysis for the diffusive Nicholson blowflies equation.

Library plus CLI covering: the exponential-series expansion of the
heteroclinic connection of the delay equation, characteristic-root and
wave-speed analysis, the verdict for non-monotone non-oscillating
wavefronts, parameter-region boundary curves with certified sweeps, and
delayed reaction-diffusion simulations with front-speed and shape
diagnostics.
"""

from .model import ModelParams, birth, feedback_holds, gsc_holds, schwarz
from .numerics import Bracket, NoSignChange, PowerSeries, QuadratureError
from .charroots import (BracketingError, CharKind, RootReport, TailClass,
                        char_value, classify_tail, linear_spreading_speed,
                        minimal_speed, mu_root, negative_roots_at_kappa)
from .dirichlet import (CoefficientOverflow, DirichletExpansion, build,
                        coefficients, horizon, qbar2_closed_form,
                        qbar3_closed_form, zeta, zeta_by_quadrature)
from .heteroclinic import (BlowUpError, CrossingReport, InconclusiveTail,
                           NmVerdict, Trajectory, TrajectoryTail, crossings,
                           first_maximum, integrate, nm_verdict, p_window)
from .atlas import (MembershipInconsistency, NecessaryConditions, Phi,
                    RegionReport, SpeedFrame, SweepReport, membership,
                    nm_necessary, region_grid, region_report, T_of_c,
                    T_star, tau_hat, tau_of_c, tau_star, verify_inclusion)
from .pde import (DirichletBC, ExpTail, Heaviside, Scheme, SimConfig,
                  SmoothStep, SpacetimeRecord, preset, simulate)
from .diagnostics import (FrontDiagnostics, ProfileShape, SpeedEstimate,
                          classify_profile, diagnose, estimate_speed,
                          front_position)

__version__ = "0.1.0"
