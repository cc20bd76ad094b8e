"""Group-action laboratory: orbits of pointwise stabilizers in GL(d, 2),
the invariant-set dichotomy, and one equivariance checker for the subset
surjections.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .errors import IntermediateAssertFailed
from .gf2core import (
    SPAN_BUDGET,
    LinearMap,
    check_dim,
    check_vectors,
    fixing_linear_map,
    span,
)

EQUIVARIANCE_MAX_DIM = 10


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
    each span vector is a singleton, everything else is one block.  A
    moving-map witness is built only when `moving_map` is asked for it."""

    def __init__(self, dim: int, fixed: Iterable[int]):
        check_dim(dim)
        if 1 << dim > SPAN_BUDGET:
            raise ValueError(f"orbit partitions limited to dim <= "
                             f"{SPAN_BUDGET.bit_length() - 1}, got {dim}")
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
        self._moves: dict[tuple[int, int],
                          tuple[DichotomyResult, _ImageTable]] = {}

    def moving_map(self, u: int, v: int) -> LinearMap:
        """A stabilizer element sending u to v (both outside the span)."""
        return fixing_linear_map(self.fixed, u, v, self.dim)

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
    pointwise, with moving maps built on demand."""
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


def validate_equivariance(dim: int, trials: int,
                          exhaustive_max_size: int | None) -> None:
    """Raise ValueError for a run `check_equivariance` refuses, before
    any construction is built."""
    if dim > EQUIVARIANCE_MAX_DIM:
        raise ValueError(f"equivariance checks limited to dim <= "
                         f"{EQUIVARIANCE_MAX_DIM}")
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    if exhaustive_max_size is not None and exhaustive_max_size < 0:
        raise ValueError(f"exhaustive max size must be at least 0, "
                         f"got {exhaustive_max_size}")


def check_equivariance(construction, trials: int = 0, seed: int = 0,
                       exhaustive_max_size: int | None = None
                       ) -> EquivarianceReport:
    """Check surject(pi(S)) == pi(surject(S)) for a `LinearSurjection` or
    `GeneralSurjection` and ground permutations pi it supplies, each a
    callable on points.

    Random mode (`exhaustive_max_size` None): trial i draws, from a
    generator seeded by (seed, i), first pi with
    `construction.sample_map`, then S.  Exhaustive mode: every pi of
    `construction.all_maps()`, which only the linear construction has,
    against every S of at most `exhaustive_max_size` points.  Each failure
    is {"trial": index of the (pi, S) case, "set": sorted S, "map": the
    images of the points 0 .. 2^dim - 1}; the first 20 are kept.
    """
    dim = construction.dim
    validate_equivariance(dim, trials, exhaustive_max_size)
    if exhaustive_max_size is None:
        cases = _sampled_cases(construction, trials, seed)
        params = {**construction.equivariance_params, "seed": seed}
    else:
        if not hasattr(construction, "all_maps"):
            raise ValueError(
                f"exhaustive equivariance needs the linear construction, "
                f"not {construction.params['construction']}")
        maps = construction.all_maps()
        cases = ((pi, frozenset(combo))
                 for size in range(exhaustive_max_size + 1)
                 for combo in combinations(range(1 << dim), size)
                 for pi in maps)
        params = {**construction.equivariance_params,
                  "exhaustive_max_size": exhaustive_max_size}
    failures = ran = 0
    kept = []
    for pi, s in cases:
        left = construction.surject(frozenset(map(pi, s)))
        right = frozenset(map(pi, construction.surject(s)))
        if left != right:
            failures += 1
            if len(kept) < 20:
                kept.append({"trial": ran, "set": sorted(s),
                             "map": [pi(v) for v in range(1 << dim)]})
        ran += 1
    return EquivarianceReport(
        "equivariance-" + construction.params["construction"], params, ran,
        failures, tuple(kept))


def _sampled_cases(construction, trials: int, seed: int):
    """Trial i: a map, then a subset of the 2^dim points, both drawn from
    one generator seeded by (seed, i) alone."""
    points = 1 << construction.dim
    for index in range(trials):
        rng = random.Random(seed * 1_000_003 + index)
        pi = construction.sample_map(rng)
        mask = rng.getrandbits(points)
        yield pi, frozenset(v for v in range(points) if mask >> v & 1)
