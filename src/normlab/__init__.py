"""normlab: p->q operator norms, norm attainment, and convexity moduli on
finite-dimensional l_p spaces, with a certified construction gallery."""

from .spaces import (
    INF,
    SequenceSpace,
    UnitVector,
    dual_exponent,
    pnorm,
    sphere_point_2d,
    sphere_sample,
    unit,
)
from .operators import (
    GALLERY_TAGS,
    BlockSpace,
    GalleryId,
    HypothesisError,
    OperatorPQ,
    adjoint,
    apply,
    from_gallery,
    make_auerbach_yy,
    make_biorth_inf,
    make_block,
    make_compose,
    make_diag_beta,
    make_lplq_fail,
    make_proj_then,
    make_rot_l1,
    make_rot_lq,
    make_shrinking_blocks,
)
from .normcomp import (
    NormResult,
    UncertifiedNormError,
    objective_grad,
    opnorm,
    opnorm_oracle,
)
from .attainment import (
    AttainmentSet,
    SbpbProfile,
    default_epsilons,
    dist_to_set,
    na_set,
    sbpb_profile,
    sbpb_witness,
)
from .convexity import (
    AuerbachSystem,
    ConvexityModulus,
    KimLeeReport,
    Norm2D,
    auerbach_2d,
    delta_closed_form_hanner,
    delta_closed_form_high_p,
    delta_numeric,
    kim_lee_check,
)
from .repro import (
    GALLERY_INFO,
    ReproReport,
    gallery_default_cases,
    monotonicity_certificate,
    positive_side_batch,
    reproduce,
    run_all,
)

__version__ = "0.1.0"
