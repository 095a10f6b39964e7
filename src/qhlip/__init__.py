"""Exact Lipschitz classification of polynomial functions.

Decides Lipschitz equivalence of univariate real polynomial functions and
R-semialgebraic Lipschitz equivalence of quasihomogeneous polynomials in two
variables, with certificates and executable bi-Lipschitz witness maps.
"""

from .lipclass import (
    CritData,
    CSet,
    Orientation,
    Pairing1D,
    Reason1D,
    Verdict1D,
    classify_pair,
    critical_data,
    similar,
)
from .polyalg import BiPoly, UniPoly, is_cxd, resultant, x_multiplicity, y_divides
from .qhdecide import (
    BetaInference,
    Certificate,
    HeightPair,
    PairingOption,
    QHPoly,
    TheoremTag,
    Verdict2D,
    VerdictKind,
    decide,
    heights,
    infer_beta,
    pairing_search,
    validate_qh,
)
from .realalg import RealAlg, compare, eval_alg, isolate_real_roots, nth_root_pos, sign_at
from .witness import (
    InverseBetaTransform,
    VerificationReport,
    verify,
    verify_asymptotic,
    verify_conjugacy,
    verify_lipschitz,
)
from .zygothety import (
    Affine,
    BranchMap,
    Compose,
    Neg,
    NegConj,
    PLMap,
    Zygothety,
    compose,
    identity,
    inverse,
    is_beta_regular,
    make_regular,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
