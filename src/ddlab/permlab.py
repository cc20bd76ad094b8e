"""Group-action laboratory: orbits of pointwise stabilizers in GL(d, 2),
the invariant-set dichotomy, and one equivariance checker for the subset
surjections.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass
from functools import reduce
from itertools import combinations
from math import comb, prod
from operator import or_
from typing import Iterable

from .errors import IntermediateAssertFailed
from .gf2core import (
    SPAN_BUDGET,
    LinearMap,
    Memo,
    check_dim,
    check_vectors,
    fixing_linear_map,
    span,
)

EQUIVARIANCE_MAX_DIM = 10
# The most sets an exhaustive run checks: 679,121 (d=6) take 9.8 CPU-s.
EQUIVARIANCE_MAX_SETS = 1 << 20


# The most mask bits an orbit partition's bit table holds, counting each
# entry as the 2^dim bits of a mask: its `Memo` is capped at
# MAX_TABLE_BITS >> dim entries, 2^20 at dim 4 and 256 at dim 16.  The
# moves table has the same cap.
MAX_TABLE_BITS = 1 << 24


class OrbitPartition:
    """Orbits of the pointwise stabilizer of span(fixed) in GL(d, 2):
    each span vector is a singleton, everything else is one block, the
    set bits of `complement_mask`.

    `bits` (x -> 1 << x) and `moves` ((u, v) -> the not-invariant result
    whose witness moves u to v, shared by every set moved through that
    pair) are `Memo`s of at most MAX_TABLE_BITS >> dim entries each,
    filled on first use; no moving map is built before it is looked up."""

    def __init__(self, dim: int, fixed: Iterable[int]):
        check_dim(dim)
        if 1 << dim > SPAN_BUDGET:
            raise ValueError(f"orbit partitions limited to dim <= "
                             f"{SPAN_BUDGET.bit_length() - 1}, got {dim}")
        self.dim = dim
        self.fixed = frozenset(check_vectors(fixed, dim))
        self.fixed_span = span(self.fixed, dim).members
        # bit v of a 2^dim-bit mask stands for the vector v
        marks = bytearray(((1 << dim) + 7) >> 3)
        for w in self.fixed_span:
            marks[w >> 3] |= 1 << (w & 7)
        self.complement_mask = (((1 << (1 << dim)) - 1)
                                ^ int.from_bytes(marks, "little"))

        def bit(x: int) -> int:
            if not 0 <= x < 1 << dim:
                raise ValueError(f"vector {x} out of range for dim {dim}")
            return 1 << x

        fixed = self.fixed

        def move(pair: tuple[int, int]) -> DichotomyResult:
            u, v = pair
            pi = fixing_linear_map(fixed, u, v, dim)
            # u is in the set and v is not, so pi(u) = v puts v in pi(S)
            # but not in S: pi moves every set it is looked up for
            if pi.apply(u) != v:
                raise IntermediateAssertFailed(
                    "moving map failed to move the set")
            return DichotomyResult("not-invariant", pi, pair)

        self.bits = Memo(bit, MAX_TABLE_BITS >> dim)
        self.moves = Memo(move, MAX_TABLE_BITS >> dim)


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

    The subset is converted once to its 2^dim-bit mask and classified by
    `check_dichotomy_mask`."""
    if orbits is None:
        orbits = stabilizer_orbits(fixed, dim)
    bit = orbits.bits.__getitem__
    if isinstance(subset, (set, frozenset)):
        mask = sum(map(bit, subset))
    else:  # members may repeat
        mask = reduce(or_, map(bit, subset), 0)
    return check_dichotomy_mask(mask, orbits)


def check_dichotomy_mask(mask: int, orbits: OrbitPartition
                         ) -> DichotomyResult:
    """`check_dichotomy` for the subset whose members are the set bits of
    `mask` (bit v for the vector v).  A moved set's witness sends its
    least moved member to the least point of the complement outside it,
    which proves it moves the set; no image of the set is computed."""
    if mask < 0 or mask >> (1 << orbits.dim):
        raise ValueError(f"mask out of range for dim {orbits.dim}: "
                         f"need 0 <= mask < 2**{1 << orbits.dim}")
    complement = orbits.complement_mask
    inter = mask & complement
    if not inter:
        return _SUBSET_OF_SPAN
    if inter == complement:
        return _COMPLEMENT_SUBSET_OF_SPAN
    outside = complement ^ inter
    # lowest set bits: the least moved member and the least free target
    u = (inter & -inter).bit_length() - 1
    v = (outside & -outside).bit_length() - 1
    return orbits.moves[u, v]


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
        return asdict(self)


def validate_equivariance(dim: int, trials: int,
                          exhaustive_max_size: int | None) -> int:
    """Raise ValueError for a run `check_equivariance` refuses, before
    any construction is built; else return the (pi, S) cases it covers."""
    if not 1 <= dim <= EQUIVARIANCE_MAX_DIM:
        raise ValueError(f"equivariance checks limited to dim in "
                         f"1..{EQUIVARIANCE_MAX_DIM}, got {dim}")
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    if exhaustive_max_size is None:
        return trials
    if exhaustive_max_size < 0:
        raise ValueError(f"exhaustive max size must be at least 0, "
                         f"got {exhaustive_max_size}")
    points = 1 << dim
    family = sum(comb(points, k)
                 for k in range(min(exhaustive_max_size, points) + 1))
    if family > EQUIVARIANCE_MAX_SETS:
        raise ValueError(f"exhaustive equivariance limited to "
                         f"{EQUIVARIANCE_MAX_SETS} sets, got {family}")
    return family * prod(points - (1 << i) for i in range(dim))  # |GL(d, 2)|


def check_equivariance(construction, trials: int = 0, seed: int = 0,
                       exhaustive_max_size: int | None = None
                       ) -> EquivarianceReport:
    """Check surject(pi(S)) == pi(surject(S)) for a `LinearSurjection` or
    `GeneralSurjection` and ground permutations pi it supplies, each a
    callable on points.

    Random mode (`exhaustive_max_size` None): trial i draws pi with
    `construction.sample_map`, then S, from a generator seeded by (seed,
    i).  Exhaustive mode: every S of at most `exhaustive_max_size` points
    against each pi of `construction.generators()`.  As the maps commuting
    on this family form a subgroup, `trials` reports all |GL(dim, 2)| x
    |family| cases the generators cover; `failures` counts failing ones run.
    Each failure is {"trial": index of the (pi, S) case, "set": sorted S,
    "map": the images of the points 0 .. 2^dim - 1}; the first 20 are
    kept.
    """
    dim = construction.dim
    covered = validate_equivariance(dim, trials, exhaustive_max_size)
    if exhaustive_max_size is None:
        cases = _sampled_cases(construction, trials, seed)
        params = {**construction.equivariance_params, "seed": seed}
    else:
        generators = construction.generators()
        cases = ((frozenset(combo), generators)
                 for size in range(exhaustive_max_size + 1)
                 for combo in combinations(range(1 << dim), size))
        params = {**construction.equivariance_params,
                  "exhaustive_max_size": exhaustive_max_size}
    failures = ran = 0
    kept = []
    for s, maps in cases:
        image = construction.surject(s)
        for pi in maps:
            if (construction.surject(frozenset(map(pi, s)))
                    != frozenset(map(pi, image))):
                failures += 1
                if len(kept) < 20:
                    kept.append({"trial": ran, "set": sorted(s),
                                 "map": [pi(v) for v in range(1 << dim)]})
            ran += 1
    return EquivarianceReport(
        "equivariance-" + construction.params["construction"], params,
        covered, failures, tuple(kept))


def _sampled_cases(construction, trials: int, seed: int):
    """Trial i: a map, then a set, from a generator seeded by (seed, i)."""
    points = 1 << construction.dim
    for index in range(trials):
        rng = random.Random(seed * 1_000_003 + index)
        pi = construction.sample_map(rng)
        mask = rng.getrandbits(points)
        yield frozenset(v for v in range(points) if mask >> v & 1), (pi,)
