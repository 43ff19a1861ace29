"""hypframe: framed curves in hyperbolic 3-space.

Integrates curvature-defined moving frames on H3, evaluates focal
surfaces, evolutes, and dual surfaces of evolutes, locates and
classifies their wavefront singularities, and numerically certifies the
Legendrian-duality and singular-correspondence claims relating them.
"""

__version__ = "0.1.0"

from .minkowski import MinkVec, Quadric, membership_residual, mink_dot, wedge3
from .symexpr import (Expr, ExprDomainError, ExprSyntaxError, diff_expr,
                      eval_expr, parse_expr, to_source)
from .framedcurve import (CurvatureQuartet, FramedCurveModel, integrate_frame,
                          propagation_backend, scalar_invariants)
from .focal import (SingularityType, SingularPointRecord, SurfaceParam,
                    classify_d, classify_h, focal_d_point, focal_h_point,
                    lambda_d, lambda_h, singular_locus_d, singular_locus_h,
                    surface_grid)
from .evolute import (CorrespondenceReport, EvolutePointType, EvoluteSample,
                      classify_dual_d, classify_dual_h, correspondence_check,
                      dual_of_evolute_d, dual_of_evolute_h, evolute_d,
                      evolute_h, lambda_dual_d, lambda_dual_h)
from .duality import (DualPairSample, Fibration, FrontVerdict, front_verdict,
                      isotropy_residuals, pair_sample)
from .pipeline import (CurveSpec, RunReport, export_loci_csv, export_obj,
                       load_spec, project_hollow_ball, project_poincare,
                       run_pipeline)
from .tolerances import Tolerances
