"""cactuskit: cactus and affine cactus groups and their CAT(0) Cayley complexes.

Normal forms and the word problem, Cayley-ball construction, mechanical
verification of the median/cube-closure conditions, and the degree-3 affine
group's {4,6} embedding into the hyperbolic plane.
"""

__version__ = "0.1.0"

from .cayley import (
    BallDistance,
    CayleyBall,
    Square,
    ball,
    export,
    export_obj,
    import_ball,
    sphere_sizes,
    squares,
)
from .core import (
    BudgetExceeded,
    CactusError,
    ClosureViolation,
    CyclicInterval,
    Family,
    Generator,
    GroupSpec,
    IndexOutOfRange,
    InvalidPair,
    MalformedInput,
    NotAJ3,
    NotNested,
    OutOfInterval,
    PreconditionViolated,
    RelationKind,
    SpecMismatch,
    TooSmall,
    VertexNotInBall,
    WrongFamily,
    affine,
    cactus,
    classify,
    conjugate_nested,
    generators,
    interval_of,
    make_generator,
    parse_generator,
    s_reflect,
)
from .hyperbolic import (
    Embedding,
    FourPointDelta,
    HPoint,
    QIFit,
    embed_ball,
    four_point_delta,
    hyperbolic_distance,
    qi_fit,
    render_svg,
    tiling_edge_length,
)
from .rewriting import (
    NormalForm,
    Word,
    equal,
    free_reduce,
    identity,
    is_normal,
    normalize,
    oracle_closure,
    parse_word,
    random_word,
)
from .verify import (
    VerificationReport,
    check_cube_spans,
    check_median,
    check_no_shared_consecutive_edges,
    check_square_normal_forms,
    check_squares_embedded,
    phi_map,
    phi_pair,
    psi_map,
    psi_pair,
    verify_claim_phi,
    verify_claim_psi,
    verify_phi_psi_roundtrip,
)

__all__ = [name for name in dir() if not name.startswith("_")]
