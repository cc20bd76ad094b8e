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
from itertools import combinations
from typing import Callable, Iterable

from . import _kernels
from .errors import (
    BudgetExceeded,
    CacheIncomplete,
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
    object; `GeneralSurjection` has the same interface.

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

    def collision_pool(self) -> list[frozenset[int]]:
        """Sets known to collide: the zero subspace and every line, all
        mapping to the empty set."""
        return [frozenset([0])] + [frozenset([0, v]) for v in self.points]

    def sample_map(self, rng: random.Random) -> Callable[[int], int]:
        """A ground permutation for `permlab.check_equivariance`: one
        `random_invertible` map (a `LinearMap` is callable on points)."""
        return random_invertible(self.dim, rng)

    def all_maps(self) -> list[Callable[[int], int]]:
        """Every invertible linear map as a ground permutation, in
        `all_invertible` order; exhaustive, so dim <= 4."""
        return all_invertible(self.dim)


def minimal_nondegenerate_set(op: ClosureOperator,
                              spot_checks: int = 5) -> frozenset[int]:
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
                _spot_check_same_size(op, e, spot_checks)
                return e
    raise DegenerateGeometry(
        "closure of every set equals the union of its pointwise closures")


def _spot_check_same_size(op: ClosureOperator, witness: frozenset[int],
                          spot_checks: int) -> None:
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
        if seen >= spot_checks:
            return


class GeneralSurjection:
    """The pregeometry surjection instance: a non-degeneracy witness E,
    the anchor D = E minus its two largest points, and the cache of
    closed sets containing cl(D).  Same interface as `LinearSurjection`,
    with the ground labels encoded as dim-bit vectors."""

    skip = GroundExhausted

    def __init__(self, op: ClosureOperator, witness: frozenset[int],
                 anchor: frozenset[int], max_card: int):
        self.op = op
        self.witness = witness
        self.anchor = anchor
        self.anchor_closure = op.cl(anchor)
        self.max_card = max_card
        if len(self.anchor_closure) > max_card:
            raise CacheIncomplete(
                "cache bound is below the anchor closure size")
        # exactly the W with cl(anchor u W) == W and |W| <= max_card
        self.closed_family = op.closed_sets_upto(max_card, anchor)
        self.dim = max(op.ground).bit_length()
        self.points = sorted(op.ground)
        self.params = {"construction": "general", "geometry": op.kind,
                       "dim": self.dim}
        self.equivariance_params = {"kind": op.kind, "dim": self.dim}

    @classmethod
    def build(cls, op: ClosureOperator,
              max_card: int | None = None) -> "GeneralSurjection":
        witness = minimal_nondegenerate_set(op)  # raises DegenerateGeometry
        anchor = frozenset(sorted(witness)[:-2])
        if max_card is None:
            max_card = len(op.ground)
        return cls(op, witness, anchor, max_card)

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

    def collision_pool(self) -> list[frozenset[int]]:
        """Nonempty sets of the form W - cl(anchor): all map to empty."""
        seen = set()
        for w in self.closed_family:
            diff = w - self.anchor_closure
            if diff:
                seen.add(diff)
        return sorted(seen, key=lambda s: (len(s), sorted(s)))

    def sample_map(self, rng: random.Random) -> Callable[[int], int]:
        """A closure-preserving ground permutation fixing the anchor
        pointwise: random invertible maps, each followed for the affine
        geometry by the translation that returns the least anchor point,
        drawn until one fixes the whole anchor."""
        kind = self.op.kind
        if kind not in ("linear", "affine"):
            raise ValueError("sampling needs a linear or affine instance")
        anchor = sorted(self.anchor)
        while True:
            m = random_invertible(self.dim, rng)
            shift = 0
            if kind == "affine" and anchor:
                shift = anchor[0] ^ m.apply(anchor[0])
            if all(m.apply(x) ^ shift == x for x in anchor):
                return lambda v: m.apply(v) ^ shift

    def __repr__(self):
        return (f"GeneralSurjection(kind={self.op.kind!r}, "
                f"witness={sorted(self.witness)}, anchor={sorted(self.anchor)}, "
                f"cached={len(self.closed_family)})")


def _qualifying_max(inst: GeneralSurjection, s: frozenset[int]
                    ) -> tuple[int, list[frozenset[int]]]:
    """Maximum cardinality and the maximizing cached sets W with
    W - cl(anchor) inside s; never empty (cl(anchor) itself qualifies)."""
    if len(inst.anchor_closure) + len(s) > inst.max_card:
        raise CacheIncomplete(
            f"a qualifying set could have up to "
            f"{len(inst.anchor_closure) + len(s)} members; cache stops at "
            f"{inst.max_card}")
    best = 0
    winners: list[frozenset[int]] = []
    for w in inst.closed_family:
        if w - inst.anchor_closure <= s:
            if len(w) > best:
                best = len(w)
                winners = [w]
            elif len(w) == best:
                winners.append(w)
    return best, winners


def surject_general(inst: GeneralSurjection, subset: Iterable[int]
                    ) -> frozenset[int]:
    """The generalized surjection: strip the union of maximal qualifying
    closed sets when the input avoids cl(anchor); identity otherwise."""
    s = frozenset(subset)
    if not s <= inst.op.ground:
        raise ValueError("subset not contained in the ground set")
    if s & inst.anchor_closure:
        return s
    _, winners = _qualifying_max(inst, s)
    union = frozenset().union(*winners)
    return s - union


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
    intermediate identity and the uniqueness of the maximal witness."""
    op = inst.op
    t = frozenset(target)
    if not t <= op.ground:
        raise ValueError("target not contained in the ground set")
    if t & inst.anchor_closure:
        image = surject_general(inst, t)
        if image != t:
            raise IntermediateAssertFailed("identity branch failed")
        return GeneralPreimage(t, t, image, (), frozenset(), True, True)
    picked: list[int] = []
    base = inst.anchor | t
    for _ in range(len(t) + 1):
        reachable = op.cl(base | frozenset(picked))
        candidate = next(
            (x for x in sorted(op.ground) if x not in reachable), None)
        if candidate is None:
            raise GroundExhausted(
                f"no point independent over the anchor, target, and "
                f"{len(picked)} picks")
        picked.append(candidate)
    if not is_independent(op, picked, over=base):
        raise IntermediateAssertFailed("picked points are not independent")
    closure_u = op.cl(inst.anchor | frozenset(picked))
    source = t | (closure_u - inst.anchor_closure)
    intersection_ok = (op.cl(base) & closure_u == inst.anchor_closure)
    if not intersection_ok:
        raise IntermediateAssertFailed(
            "cl(anchor u target) meets the constructed closure outside "
            "cl(anchor)")
    _, winners = _qualifying_max(inst, source)
    unique_max_ok = winners == [closure_u]
    if not unique_max_ok:
        raise IntermediateAssertFailed(
            "the maximal qualifying closed set is not unique")
    image = surject_general(inst, source)
    if image != t:
        raise IntermediateAssertFailed("preimage verification failed")
    return GeneralPreimage(t, source, image, tuple(picked), closure_u,
                           intersection_ok, unique_max_ok)


def collision_pairs(construction, count: int):
    """Ordered pairs (S1, S2) of distinct sets with equal image under a
    `LinearSurjection` or `GeneralSurjection`, each verified by
    re-evaluating the surjection."""
    if count < 1:
        raise ValueError("count must be at least 1")
    pool = construction.collision_pool()
    pairs = []
    for i in range(len(pool)):
        for j in range(len(pool)):
            if i == j:
                continue
            first, second = pool[i], pool[j]
            if construction.surject(first) != construction.surject(second):
                raise IntermediateAssertFailed(
                    "collision pool entries disagree under the surjection")
            pairs.append((first, second))
            if len(pairs) == count:
                return pairs
    raise BudgetExceeded(
        f"only {len(pairs)} collision pairs available, {count} requested")
