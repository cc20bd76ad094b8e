"""ddlab: a finite verification laboratory for subset surjections over
GF(2) and general pregeometries, the pregeometry axioms, and
quantifier-free definability of relations on symmetric ground sets.

Every construction is paired with small-scale exhaustive or seeded
randomized checks; see tests/test_acceptance.py for the full suite.
"""

from ._kernels import BACKEND as KERNEL_BACKEND
from .definability import (
    Relation,
    minimal_support,
    nonunion_witness,
    partition_dichotomy,
    recursive_support,
    recursive_support_trace,
    signature_classes,
    synthesize_formula,
)
from .dualdd import (
    GeneralSurjection,
    LinearSurjection,
    collision_pairs,
    minimal_nondegenerate_set,
    preimage_general_trace,
    preimage_linear_trace,
    surject_general,
    surject_linear,
)
from .formulas import Formula, canonicalize, evaluate, parse_formula, print_formula
from .gf2core import (
    LinearMap,
    Subspace,
    enumerate_subspaces,
    extend_independent,
    fixing_linear_map,
    gaussian_binomial,
    span,
)
from .permlab import (
    check_dichotomy,
    check_dichotomy_mask,
    check_equivariance,
    stabilizer_orbits,
)
from .pregeometry import (
    ClosureOperator,
    affine_operator,
    check_closure_axioms,
    check_exchange,
    check_local_homogeneity,
    degenerate_operator,
    identity_operator,
    is_independent,
    linear_operator,
    verify_closure_cardinality,
)

__version__ = "0.1.0"
