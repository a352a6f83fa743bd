"""cactuskit: cactus and affine cactus groups and their CAT(0) Cayley complexes.

Normal forms and the word problem, Cayley-ball construction, mechanical
verification of the median/cube-closure conditions, and the degree-3 affine
group's {4,6} embedding into the hyperbolic plane.

Importing the package loads `core` and `rewriting`, all that the word
problem needs.  The names of `cayley`, `hyperbolic` and `verify`, and those
modules themselves, are imported on first access (a module `__getattr__`).
"""

__version__ = "0.1.0"

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

# the rest of the API, imported on first access: each name (and each module
# itself) to its module
_HOME = {name: module for module, names in {
    "cayley": (
        "BallDistance", "CayleyBall", "Square", "ball", "export", "export_obj",
        "import_ball", "sphere_sizes", "squares",
    ),
    "hyperbolic": (
        "Embedding", "FourPointDelta", "HPoint", "QIFit", "embed_ball",
        "four_point_delta", "hyperbolic_distance", "qi_fit", "render_svg",
        "tiling_edge_length",
    ),
    "verify": (
        "VerificationReport", "check_cube_spans", "check_median",
        "check_no_shared_consecutive_edges", "check_square_normal_forms",
        "check_squares_embedded", "phi_map", "phi_pair", "psi_map", "psi_pair",
        "verify_claim_phi", "verify_claim_psi", "verify_phi_psi_roundtrip",
    ),
}.items() for name in (module, *names)}

__all__ = sorted({*(name for name in globals() if not name.startswith("_")), *_HOME})


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME} - {"_HOME", "__dir__", "__getattr__"})
