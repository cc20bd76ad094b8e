"""Two explicit non-injective self-surjections on finite subsets: the
GF(2)-linear one and its pregeometry generalization, with constructive
preimages and collision witnesses.

Everything here computes on finite subsets only.  On ground structures
where every subset is finite or cofinite, powerset-level statements
reduce to pairs (finite subset, complement flag), so nothing is lost by
staying at the finite-subset level.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, islice, permutations
from typing import Callable, Iterable, Iterator

from . import _kernels
from .errors import (
    BudgetExceeded,
    DegenerateGeometry,
    DimensionExhausted,
    GroundExhausted,
    IntermediateAssertFailed,
)
from .gf2core import (
    all_invertible,
    bits_list,
    check_dim,
    check_vectors,
    enumerate_subspaces,
    extend_independent,
    random_invertible,
)
from .pregeometry import ClosureOperator, is_independent


def surject_linear(subset: Iterable[int], dim: int) -> frozenset[int]:
    """The subset-level surjection over GF(2)^dim.

    When 0 is inside, strips the union of all maximum-cardinality
    subspaces contained in the set; otherwise adjoins 0.
    """
    check_dim(dim)
    s = frozenset(check_vectors(subset, dim))
    if 0 not in s:
        return s | {0}
    _, union = _kernels.union_of_max_subspaces(sorted(s))
    return s - set(union)


@dataclass(frozen=True)
class LinearPreimage:
    """Trace of one linear preimage construction."""

    target: frozenset[int]
    source: frozenset[int]
    image: frozenset[int]
    picked: tuple[int, ...]
    spanned: tuple[int, ...]
    cardinality_identity: bool


def preimage_linear_trace(target: Iterable[int], dim: int) -> LinearPreimage:
    """Build S with surject_linear(S) == target, keeping the construction."""
    check_dim(dim)
    t = frozenset(check_vectors(target, dim))
    if 0 in t:
        source = t - {0}
        image = surject_linear(source, dim)
        if image != t:
            raise IntermediateAssertFailed("preimage verification failed")
        return LinearPreimage(t, source, image, (), (), True)
    n = len(t)
    picked = tuple(extend_independent(sorted(t), n + 1, dim))
    spanned = _kernels.span_members(picked)
    # |T u {0}| = n+1 < 2^(n+1) = |U| is what forces the case split to
    # strip exactly U
    identity_ok = (n + 1 < (1 << (n + 1)) and len(spanned) == 1 << (n + 1))
    if not identity_ok:
        raise IntermediateAssertFailed("cardinality identity failed")
    source = t | set(spanned)
    image = surject_linear(source, dim)
    if image != t:
        raise IntermediateAssertFailed("preimage verification failed")
    return LinearPreimage(t, source, image, picked, spanned, identity_ok)


class LinearSurjection:
    """The linear surjection on subsets of GF(2)^dim as a construction
    object; `GeneralSurjection` has the same interface and the same maps.

    `points` are the points a verification sweep draws targets from, and
    `skip` is the error that marks a target the finite model cannot reach
    (a documented verdict, not a violation).  The methods call the module
    functions by name, so a wrapper bound over those names (as ddbench's
    tracer does) sees every call.
    """

    skip = DimensionExhausted

    def __init__(self, dim: int):
        check_dim(dim)
        self.dim = dim
        self.points = range(1, 1 << dim)
        self.params = {"construction": "linear", "dim": dim}
        self.sweep_params = self.params
        self.equivariance_params = {"dim": dim}

    def surject(self, subset: Iterable[int]) -> frozenset[int]:
        return surject_linear(subset, self.dim)

    def preimage_trace(self, target: Iterable[int]) -> LinearPreimage:
        return preimage_linear_trace(target, self.dim)

    def report(self, trace: LinearPreimage) -> dict:
        """The record fields of one preimage construction."""
        return {"picked": bits_list(trace.picked, self.dim),
                "f_of_S": bits_list(trace.image, self.dim),
                "cardinality_identity": trace.cardinality_identity}

    def collision_pool(self) -> Iterator[frozenset[int]]:
        """Sets known to collide, all mapping to the empty set: the zero
        subspace (v = 0), then the line {0, v} for each v ascending."""
        return (frozenset([0, v]) for v in range(1 << self.dim))

    def sample_map(self, rng: random.Random) -> Callable[[int], int]:
        """A ground permutation for `permlab.check_equivariance`: one
        `random_invertible` map (a `LinearMap` is callable on points)."""
        return random_invertible(self.dim, rng)

    def all_maps(self) -> list[Callable[[int], int]]:
        """Every invertible linear map as a ground permutation, in
        `all_invertible` order; exhaustive, so dim <= 4."""
        return all_invertible(self.dim)


SPOT_CHECKS = 5  # independent sets of the witness size checked too


def minimal_nondegenerate_set(op: ClosureOperator) -> frozenset[int]:
    """Smallest (then lexicographically least) E whose closure exceeds the
    union of its pointwise closures; raises DegenerateGeometry if none."""
    labels = sorted(op.ground)
    for size in range(2, len(labels) + 1):
        for combo in combinations(labels, size):
            e = frozenset(combo)
            pointwise = frozenset().union(*(op.cl({a}) for a in combo))
            if op.cl(e) != pointwise:
                if not is_independent(op, e):
                    raise IntermediateAssertFailed(
                        f"minimal witness {sorted(e)} is not independent")
                _spot_check_same_size(op, e)
                return e
    raise DegenerateGeometry(
        "closure of every set equals the union of its pointwise closures")


def _spot_check_same_size(op: ClosureOperator,
                          witness: frozenset[int]) -> None:
    """Every independent set of the witness size must be non-degenerate
    too; verify the first few."""
    seen = 0
    for combo in combinations(sorted(op.ground), len(witness)):
        x = frozenset(combo)
        if not is_independent(op, x):
            continue
        pointwise = frozenset().union(*(op.cl({a}) for a in combo))
        if op.cl(x) == pointwise:
            raise IntermediateAssertFailed(
                f"independent set {sorted(x)} of witness size is degenerate")
        seen += 1
        if seen >= SPOT_CHECKS:
            return


# The largest general ground, checked before any closure work.  `build`
# closes every pair of points (8,262 closures for affine d=7, 32,902 at
# d=8), and GF(2)^8 has 417,199 subspaces, past the enumeration budget.  At
# d=7 on a 2-core x86-64 machine, whole process: `verify --max-t 2` 0.5-0.7
# CPU-s at 25-29 MB, `equivariance` (100 trials) 0.2-0.3 at 21-25 MB, and
# `collisions` 0.4-0.6 at 33-36 MB (--count 3000), 1.3-2.1 at 49-52 (16000).
GENERAL_MAX_GROUND = 128


class GeneralSurjection:
    """The pregeometry surjection instance: a non-degeneracy witness E,
    the anchor D = E minus its two largest points, and cl(D).  Same
    interface as `LinearSurjection`, with the ground labels encoded as
    dim-bit vectors.

    The operator must be linear or affine and cl(D) must be {0}, as for
    every `build` result (witness {1, 2} and D empty, or witness
    {0, 1, 2} and D = {0}).  The closed sets over D are then exactly the
    linear subspaces, and the construction is the linear one with the
    point 0 toggled; only `build` and `__init__` call `op.cl`."""

    skip = GroundExhausted

    def __init__(self, op: ClosureOperator, witness: frozenset[int],
                 anchor: frozenset[int]):
        if op.kind not in ("linear", "affine"):
            raise ValueError(f"the general construction needs a linear or "
                             f"affine operator, not {op.kind!r}")
        self.anchor_closure = op.cl(anchor)
        if self.anchor_closure != {0}:
            raise ValueError(f"the general construction needs an anchor "
                             f"whose closure is {{0}}, got "
                             f"{sorted(self.anchor_closure)}")
        self.op = op
        self.witness = witness
        self.anchor = anchor
        self.dim = max(op.ground).bit_length()
        self.points = sorted(op.ground)
        self.params = {"construction": "general", "geometry": op.kind,
                       "dim": self.dim}
        self.equivariance_params = {"kind": op.kind, "dim": self.dim}

    @classmethod
    def build(cls, op: ClosureOperator) -> "GeneralSurjection":
        if len(op.ground) > GENERAL_MAX_GROUND:
            raise ValueError(
                f"general construction limited to grounds of at most "
                f"{GENERAL_MAX_GROUND} points (d <= 7), got {len(op.ground)}")
        witness = minimal_nondegenerate_set(op)  # raises DegenerateGeometry
        anchor = frozenset(sorted(witness)[:-2])
        return cls(op, witness, anchor)

    @property
    def sweep_params(self) -> dict:
        return {**self.params,
                "instance": {"witness": bits_list(self.witness, self.dim),
                             "anchor": bits_list(self.anchor, self.dim)}}

    def surject(self, subset: Iterable[int]) -> frozenset[int]:
        return surject_general(self, subset)

    def preimage_trace(self, target: Iterable[int]) -> "GeneralPreimage":
        return preimage_general_trace(self, target)

    def report(self, trace: "GeneralPreimage") -> dict:
        """The record fields of one preimage construction."""
        return {"picked": bits_list(trace.picked, self.dim),
                "intersection_ok": trace.intersection_ok,
                "unique_max_ok": trace.unique_max_ok}

    def collision_pool(self) -> Iterator[frozenset[int]]:
        """The nonempty sets W - cl(anchor), for W closed over the anchor,
        that is every subspace but {0}, read lazily in the enumeration's
        order less 0, by (size, sorted points): all map to empty."""
        subspaces = islice(enumerate_subspaces(self.dim), 1, None)
        return (w.members - self.anchor_closure for w in subspaces)

    # the closure-preserving maps fixing the anchor pointwise: GL(dim, 2),
    # which fixes cl(anchor) = {0} and so the whole anchor
    sample_map = LinearSurjection.sample_map
    all_maps = LinearSurjection.all_maps

    def __repr__(self):
        return (f"GeneralSurjection(kind={self.op.kind!r}, witness="
                f"{sorted(self.witness)}, anchor={sorted(self.anchor)})")


def surject_general(inst: GeneralSurjection, subset: Iterable[int]
                    ) -> frozenset[int]:
    """The generalized surjection: strip the union of maximal qualifying
    closed sets when the input avoids cl(anchor); identity otherwise.
    Those sets are the largest subspaces inside s u {0}, so this is the
    linear surjection of s with 0 toggled."""
    s = frozenset(subset)
    if not s <= inst.op.ground:
        raise ValueError("subset not contained in the ground set")
    return surject_linear(s ^ inst.anchor_closure, inst.dim)


@dataclass(frozen=True)
class GeneralPreimage:
    """Trace of one generalized preimage construction."""

    target: frozenset[int]
    source: frozenset[int]
    image: frozenset[int]
    picked: tuple[int, ...]
    closure_u: frozenset[int]
    intersection_ok: bool
    unique_max_ok: bool


def preimage_general_trace(inst: GeneralSurjection, target: Iterable[int]
                           ) -> GeneralPreimage:
    """Build S with surject_general(S) == target, checking the
    intermediate identity and the uniqueness of the maximal witness.  The
    picks and closure are the linear construction's, and S its source
    less 0: each pick is the least point outside cl(anchor u T u picks) =
    span(T u picks), and cl(anchor u picks) = span(picks)."""
    t = frozenset(target)
    if not t <= inst.op.ground:
        raise ValueError("target not contained in the ground set")
    if t & inst.anchor_closure:
        image = surject_general(inst, t)
        if image != t:
            raise IntermediateAssertFailed("identity branch failed")
        return GeneralPreimage(t, t, image, (), frozenset(), True, True)
    rank = _kernels.gf2_rank(t)
    try:
        linear = preimage_linear_trace(t, inst.dim)
    except DimensionExhausted:
        raise GroundExhausted(
            f"no point independent over the anchor, target, and "
            f"{inst.dim - rank} picks") from None
    closure_u = frozenset(linear.spanned)
    # one rank equation: the picks are independent over cl(anchor u T) =
    # span(T), which meets cl(anchor u picks) = span(picks) in {0} only
    intersection_ok = (_kernels.gf2_rank(linear.source)
                       == rank + len(linear.picked))
    if not intersection_ok:
        raise IntermediateAssertFailed(
            "picked points are not independent over the anchor and target")
    source = linear.source - inst.anchor_closure
    # two distinct largest subspaces would have a union larger than either
    card, union = _kernels.union_of_max_subspaces(sorted(source | {0}))
    unique_max_ok = card == len(union) and closure_u == frozenset(union)
    if not unique_max_ok:
        raise IntermediateAssertFailed(
            "the maximal qualifying closed set is not unique")
    # surject_general(source) is surject_linear(source ^ {0}), that is of
    # linear.source, which the linear trace evaluated and checked against T
    image = linear.image
    if image != t:
        raise IntermediateAssertFailed("preimage verification failed")
    return GeneralPreimage(t, source, image, linear.picked, closure_u,
                           intersection_ok, unique_max_ok)


def collision_pairs(construction, count: int):
    """Ordered pairs (S1, S2) of distinct sets with equal image under a
    `LinearSurjection` or `GeneralSurjection`, each verified by
    re-evaluating the surjection."""
    if count < 1:
        raise ValueError("count must be at least 1")
    # the first `count` pairs of any pool use at most its first count + 1
    pool = list(islice(construction.collision_pool(), count + 1))
    pairs = list(islice(permutations(pool, 2), count))
    for first, second in pairs:
        if construction.surject(first) != construction.surject(second):
            raise IntermediateAssertFailed(
                "collision pool entries disagree under the surjection")
    if len(pairs) < count:
        raise BudgetExceeded(
            f"only {len(pairs)} collision pairs available, {count} requested")
    return pairs
