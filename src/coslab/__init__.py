"""coslab: analytic families of spherical transforms and star-body classes.

Three mutually cross-validating engines for the generalized cosine
transform and its relatives (sine-type transform, Funk-Radon transform,
Radon transforms over lines and planes, and the dual transforms):

* closed-form multipliers on spherical harmonics for any dimension
  (:mod:`coslab.multipliers`),
* zonal spectral/direct evaluation for any dimension (:mod:`coslab.zonal`),
* full harmonic analysis and geometric operators on the 2-sphere
  (:mod:`coslab.sphere`),

plus a star-body toolkit (:mod:`coslab.starbody`) that builds intersection
bodies and classifies origin-symmetric star bodies by the positivity
criterion.  The ``coslab`` command line exposes multiplier tables,
identity-verification suites, file-based transforms, and body
construction/classification.
"""

from .errors import (
    BadShapeParamsError,
    CoslabError,
    ExcludedParameterError,
    GammaPoleError,
    GridTooCoarseError,
    InsufficientRuleError,
    NonPositiveBodyError,
    OddInputError,
    QuadratureWindowError,
    RepresentationError,
    UnknownConstantError,
)
from .io import load_object, save_object
from .multipliers import (
    EPS_POLE,
    Family,
    a_mult,
    check_identities,
    constant,
    excluded,
    funk_mult,
    m_mult,
    poisson_mult,
    q_mult,
    qpm_mult,
    sigma,
)
from .reports import IdentityReport, RunReport
from .sphere import (
    GrassmannFunctionS2,
    GridFunction,
    HarmonicCoeffs,
    S2Grid,
    analyze,
    apply_spectral,
    cosine_direct,
    dual_radon,
    funk_at,
    funk_direct,
    kernel_at,
    radon_r1,
    radon_transform,
    ri_alpha_direct,
    sine_direct,
    synthesize,
    synthesize_at,
    verify_s2_suite,
)
from .starbody import (
    ClassVerdict,
    StarBody,
    ball_class_sign,
    classify_K_alpha,
    embeds_in_Lp,
    i_intersection_pair_check,
    intersection_body,
    istar_chain_check,
    make_body,
    verify_starbody_suite,
)
from .zonal import (
    JacobiRule,
    ZonalFunction,
    gauss_jacobi_rule,
    verify_zonal_suite,
    zonal_analyze,
    zonal_apply,
    zonal_basis,
    zonal_cosine_direct,
    zonal_poisson_direct,
    zonal_synth,
)

__version__ = "0.1.0"
