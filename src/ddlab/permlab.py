"""Group-action laboratory: orbits of pointwise stabilizers in GL(d, 2),
the invariant-set dichotomy, and equivariance harnesses for the subset
surjections and for formula synthesis.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from .dualdd import GeneralSurjection, surject_general, surject_linear
from .errors import IntermediateAssertFailed
from .gf2core import LinearMap, check_dim, check_vectors, fixing_linear_map, span


class _ImageTable(dict):
    """x -> pi(x) for a linear map pi, each image computed on first lookup,
    so a table costs only the vectors its sets actually contain."""

    __slots__ = ("pi",)

    def __init__(self, pi: LinearMap):
        super().__init__()
        self.pi = pi

    def __missing__(self, x: int) -> int:
        y = self[x] = self.pi.apply(x)
        return y


class OrbitPartition:
    """Orbits of the pointwise stabilizer of span(fixed) in GL(d, 2):
    each span vector is a singleton, everything else is one block, with
    constructive moving-map witnesses."""

    def __init__(self, dim: int, fixed: Iterable[int]):
        check_dim(dim)
        self.dim = dim
        self.fixed = frozenset(check_vectors(fixed, dim))
        self.fixed_span = span(self.fixed, dim).members
        self.complement = frozenset(range(1 << dim)) - self.fixed_span
        blocks = [frozenset([v]) for v in sorted(self.fixed_span)]
        if self.complement:
            blocks.append(self.complement)
        self.blocks = tuple(sorted(blocks, key=min))
        # bit v of a 2^dim-bit mask stands for the vector v
        self.complement_mask = sum(1 << v for v in self.complement)
        self._maps: dict[tuple[int, int], LinearMap] = {}
        self._moves: dict[tuple[int, int],
                          tuple[DichotomyResult, _ImageTable]] = {}
        ordered = sorted(self.complement)
        self.witnesses = tuple(self.moving_map(u, v)
                               for u, v in zip(ordered, ordered[1:]))

    def moving_map(self, u: int, v: int) -> LinearMap:
        """A stabilizer element sending u to v (both outside the span)."""
        key = (u, v)
        hit = self._maps.get(key)
        if hit is None:
            hit = fixing_linear_map(self.fixed, u, v, self.dim)
            self._maps[key] = hit
        return hit

    def moving_result(self, u: int, v: int
                      ) -> tuple[DichotomyResult, _ImageTable]:
        """The not-invariant result moving u to v and its witness's image
        table, built on first use and shared by every set moved through
        the same pair."""
        key = (u, v)
        hit = self._moves.get(key)
        if hit is None:
            pi = self.moving_map(u, v)
            hit = (DichotomyResult("not-invariant", pi, key), _ImageTable(pi))
            self._moves[key] = hit
        return hit

    def is_orbit_union(self, subset: frozenset[int]) -> bool:
        inter = subset & self.complement
        return not inter or inter == self.complement


@dataclass(frozen=True)
class DichotomyResult:
    """Classification of one subset against a stabilizer orbit structure."""

    classification: str  # subset-of-span | complement-subset-of-span | not-invariant
    witness: LinearMap | None = None
    moved: tuple[int, int] | None = None

    @property
    def invariant(self) -> bool:
        return self.classification != "not-invariant"


def stabilizer_orbits(fixed: Iterable[int], dim: int) -> OrbitPartition:
    """Orbit partition of GF(2)^dim under maps fixing span(fixed)
    pointwise, witnessed constructively."""
    return OrbitPartition(dim, fixed)


_SUBSET_OF_SPAN = DichotomyResult("subset-of-span")
_COMPLEMENT_SUBSET_OF_SPAN = DichotomyResult("complement-subset-of-span")


def check_dichotomy(subset: Iterable[int], fixed: Iterable[int], dim: int,
                    orbits: OrbitPartition | None = None) -> DichotomyResult:
    """Invariant sets split cleanly: inside the span, or containing its
    whole complement.  Non-invariant sets get a verified moving map.

    The subset is classified as a 2^dim-bit mask, and the moving map is
    re-checked on every set through its witness's image table."""
    if orbits is None:
        orbits = stabilizer_orbits(fixed, dim)
    vectors = tuple(subset)
    size = 1 << dim
    mask = 0
    for x in vectors:
        if not 0 <= x < size:
            raise ValueError(f"vector {x} out of range for dim {dim}")
        mask |= 1 << x
    complement = orbits.complement_mask
    inter = mask & complement
    if not inter:
        return _SUBSET_OF_SPAN
    if inter == complement:
        return _COMPLEMENT_SUBSET_OF_SPAN
    outside = complement & ~mask
    # lowest set bits: the least moved member and the least free target
    u = (inter & -inter).bit_length() - 1
    v = (outside & -outside).bit_length() - 1
    result, images = orbits.moving_result(u, v)
    image = 0
    for x in vectors:
        image |= 1 << images[x]
    if image == mask:
        raise IntermediateAssertFailed("moving map failed to move the set")
    return result


def random_invertible(dim: int, rng: random.Random) -> LinearMap:
    """Rejection-sample an invertible map from random bit matrices."""
    while True:
        cols = tuple(rng.getrandbits(dim) for _ in range(dim))
        candidate = LinearMap(dim, cols)
        if candidate.invertible:
            return candidate


def all_invertible(dim: int) -> list[LinearMap]:
    """Every invertible map on GF(2)^dim; exhaustive, so dim <= 4."""
    if dim > 4:
        raise ValueError("exhaustive GL enumeration limited to dim <= 4")
    out = []
    size = 1 << dim
    def fill(cols):
        if len(cols) == dim:
            out.append(LinearMap(dim, tuple(cols)))
            return
        for v in range(size):
            candidate = LinearMap(dim, tuple(cols + [v] +
                                             [0] * (dim - len(cols) - 1)))
            if candidate.rank == len(cols) + 1:
                fill(cols + [v])
    fill([])
    return out


def _trial_rng(seed: int, index: int) -> random.Random:
    # seed-split protocol: each trial is determined by (seed, index)
    return random.Random(seed * 1_000_003 + index)


def _random_subset(rng: random.Random, universe: int) -> frozenset[int]:
    mask = rng.getrandbits(universe)
    return frozenset(v for v in range(universe) if mask >> v & 1)


@dataclass(frozen=True)
class EquivarianceReport:
    """Outcome of an equivariance run."""

    check: str
    params: dict
    trials: int
    failures: int
    witnesses: tuple = ()

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict:
        return {"check": self.check, "params": self.params,
                "trials": self.trials, "failures": self.failures,
                "witnesses": [dict(w) for w in self.witnesses]}


def check_equivariance_linear(dim: int, trials: int = 0, seed: int = 0,
                              exhaustive_max_size: int | None = None
                              ) -> EquivarianceReport:
    """Check map(f(S)) == f(map(S)) for the linear surjection, either on
    seeded random (map, S) pairs or exhaustively over all invertible maps
    and all S up to a size bound."""
    check_dim(dim)
    if dim > 10:
        raise ValueError("equivariance checks limited to dim <= 10")
    failures = []
    ran = 0
    if exhaustive_max_size is not None:
        from itertools import combinations

        maps = all_invertible(dim)
        universe = range(1 << dim)
        for size in range(exhaustive_max_size + 1):
            for combo in combinations(universe, size):
                s = frozenset(combo)
                for pi in maps:
                    ran += 1
                    if (surject_linear(pi.apply_set(s), dim)
                            != pi.apply_set(surject_linear(s, dim))):
                        failures.append({"set": sorted(s), "map": pi.cols})
        params = {"dim": dim, "exhaustive_max_size": exhaustive_max_size}
    else:
        for index in range(trials):
            rng = _trial_rng(seed, index)
            pi = random_invertible(dim, rng)
            s = _random_subset(rng, 1 << dim)
            ran += 1
            if (surject_linear(pi.apply_set(s), dim)
                    != pi.apply_set(surject_linear(s, dim))):
                failures.append({"trial": index, "set": sorted(s),
                                 "map": pi.cols})
        params = {"dim": dim, "seed": seed}
    return EquivarianceReport("equivariance-linear", params, ran,
                              len(failures), tuple(failures[:20]))


def _sample_closure_map(inst: GeneralSurjection, dim: int,
                        rng: random.Random) -> dict[int, int]:
    """A closure-preserving ground permutation fixing the anchor
    pointwise: a random invertible map, with a translation correction
    for the affine geometry."""
    kind = inst.op.kind
    if kind not in ("linear", "affine"):
        raise ValueError("sampling needs a linear or affine instance")
    while True:
        m = random_invertible(dim, rng)
        if kind == "linear":
            if all(m.apply(x) == x for x in inst.anchor):
                return {v: m.apply(v) for v in range(1 << dim)}
        else:
            shift = 0
            anchor = sorted(inst.anchor)
            if anchor:
                shift = anchor[0] ^ m.apply(anchor[0])
            mapping = {v: m.apply(v) ^ shift for v in range(1 << dim)}
            if all(mapping[x] == x for x in inst.anchor):
                return mapping


def check_equivariance_general(inst: GeneralSurjection, trials: int,
                               seed: int = 0) -> EquivarianceReport:
    """Empirical equivariance of the generalized surjection under sampled
    closure-preserving permutations fixing the anchor.  Measured only;
    not asserted as an invariant."""
    ground = sorted(inst.op.ground)
    dim = (len(ground) - 1).bit_length()
    if len(ground) != 1 << dim:
        raise ValueError("instance ground is not a full GF(2)^d")
    failures = []
    for index in range(trials):
        rng = _trial_rng(seed, index)
        mapping = _sample_closure_map(inst, dim, rng)
        s = _random_subset(rng, len(ground))
        left = frozenset(mapping[x] for x in surject_general(inst, s))
        right = surject_general(inst, frozenset(mapping[x] for x in s))
        if left != right:
            failures.append({"trial": index, "set": sorted(s)})
    return EquivarianceReport(
        "equivariance-general",
        {"kind": inst.op.kind, "dim": dim, "seed": seed},
        trials, len(failures), tuple(failures[:20]))
