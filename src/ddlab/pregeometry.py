"""Closure operators on finite ground sets: concrete geometries, the three
pregeometry axiom checkers, independence, and closure-cardinality checks.

Ground elements are int labels. For the linear and affine instances over
GF(2)^d the labels are the d-bit vectors themselves.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, Iterable, Iterator

from . import _kernels
from .errors import (
    BudgetExceeded,
    IntermediateAssertFailed,
    NoIndependentSet,
    SearchBudgetExceeded,
)
from .gf2core import Memo

PERM_BUDGET = math.factorial(8)  # the most maps one search may face
# The operator makers refuse larger grounds before building them.  The
# least work of any axiom run is quadratic in the ground (exchange over the
# pairs outside cl(empty)): at 2^14 points that run took 18.5 CPU-s and
# 50 MB on a 2-core x86-64 machine, and each doubling quadruples the time.
MAX_GROUND = 1 << 14
# The most closed sets a `closed_sets_upto` call finds, which bounds the
# local-homogeneity check, its one caller: 16x the largest family of the
# tests, golden cases and benchmark (1,023).  `axioms --geometry identity
# --ground 128 --bound 0` stops here in 5.6 CPU-s at 233 MB.
MAX_CLOSED_SETS = 1 << 14
# The most closures an operator memoizes, the cap of its `Memo`.  On a
# 2-core x86-64 machine, the local-homogeneity check of the affine d=5
# geometry at (4, 8) peaks at 40,209 entries, and the default `axioms
# --geometry linear --dim 7` fills and empties the memo 3 times: it peaks
# at 353 MB in 33-41 CPU-s (758 MB unbounded).
MAX_MEMO = 1 << 18


class ClosureOperator:
    """A total map cl: fin(ground) -> fin(ground), its values kept in a
    `Memo` capped at MAX_MEMO.

    The axioms themselves are not assumed; the checkers below verify them.
    """

    def __init__(self, ground: Iterable[int], kind: str,
                 cl_func: Callable[[frozenset[int]], frozenset[int]]):
        self.ground = ground = frozenset(ground)
        self.kind = kind

        def close(key: frozenset[int]) -> frozenset[int]:
            # holds the ground and cl_func, never the operator itself
            if not key <= ground:
                raise ValueError("subset not contained in the ground set")
            return cl_func(key)

        self._cache = Memo(close, MAX_MEMO)

    @property
    def size(self) -> int:
        return len(self.ground)

    def cl(self, subset: Iterable[int]) -> frozenset[int]:
        return self._cache[frozenset(subset)]

    def closed_sets_upto(self, max_size: int) -> Iterator[frozenset[int]]:
        """Yield the closed sets of size <= max_size, by (size, points).

        Found sets wait in one bucket per size.  The smallest bucket is
        yielded sorted, and only then are its sets extended: the closure
        of each one-point extension is kept if it is larger and at most
        max_size.  For a monotone, extensive operator this reaches each
        such set, because the chain to it stays inside it.  Raises
        BudgetExceeded past MAX_CLOSED_SETS sets found."""
        start = self.cl(frozenset())
        if len(start) > max_size:
            return
        buckets = {len(start): {start}}
        found = 1
        while buckets:
            size = min(buckets)
            level = sorted(buckets.pop(size), key=sorted)
            yield from level
            if size == max_size:
                continue
            for current in level:
                for x in self.ground - current:
                    bigger = self.cl(current | {x})
                    grown = len(bigger)
                    if (not size < grown <= max_size
                            or bigger in buckets.get(grown, ())):
                        continue
                    if found == MAX_CLOSED_SETS:
                        raise BudgetExceeded(
                            f"more than {MAX_CLOSED_SETS} closed sets "
                            f"of at most {max_size} points")
                    found += 1
                    buckets.setdefault(grown, set()).add(bigger)

    def __repr__(self):
        return f"ClosureOperator(kind={self.kind!r}, size={self.size})"


def _check_ground(points: int) -> None:
    if points > MAX_GROUND:
        raise ValueError(f"a ground of {points} points is above the cap "
                         f"of {MAX_GROUND}")


def _vectors(dim: int) -> range:
    """The labels of GF(2)^dim, after checking dim against the cap."""
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    if dim >= MAX_GROUND.bit_length():
        raise ValueError(f"a ground of 2^{dim} points is above the cap "
                         f"of {MAX_GROUND}")
    return range(1 << dim)


def linear_operator(dim: int) -> ClosureOperator:
    """cl = linear span on GF(2)^dim; non-degenerate pregeometry."""

    def close(subset: frozenset[int]) -> frozenset[int]:
        return frozenset(_kernels.span_members(sorted(subset)))

    return ClosureOperator(_vectors(dim), "linear", close)


def affine_operator(dim: int) -> ClosureOperator:
    """cl = affine hull on GF(2)^dim: a0 ^ span{a ^ a0 : a in S} with
    a0 = min(S), and empty for S empty; non-degenerate geometry."""

    def close(subset: frozenset[int]) -> frozenset[int]:
        if not subset:
            return frozenset()
        a0 = min(subset)
        shifted = sorted(a ^ a0 for a in subset)
        return frozenset(a0 ^ m for m in _kernels.span_members(shifted))

    return ClosureOperator(_vectors(dim), "affine", close)


def degenerate_operator(blocks: Iterable[Iterable[int]]) -> ClosureOperator:
    """cl(S) = union of the partition blocks meeting S; cl(empty) = empty."""
    block_list = [frozenset(b) for b in blocks]
    _check_ground(sum(map(len, block_list)))
    ground: set[int] = set()
    block_of: dict[int, frozenset[int]] = {}
    for block in block_list:
        if not block:
            raise ValueError("empty partition block")
        for x in block:
            if x in block_of:
                raise ValueError(f"label {x} appears in two blocks")
            block_of[x] = block
        ground |= block
    if ground != set(range(len(ground))):
        raise ValueError("partition labels must be 0..N-1")

    def close(subset: frozenset[int]) -> frozenset[int]:
        out: set[int] = set()
        for x in subset:
            out |= block_of[x]
        return frozenset(out)

    return ClosureOperator(ground, "degenerate", close)


def identity_operator(n: int) -> ClosureOperator:
    """cl(S) = S; the degenerate baseline geometry."""
    if n < 0:
        raise ValueError(f"ground size must be at least 0, got {n}")
    _check_ground(n)
    return ClosureOperator(range(n), "identity", lambda s: s)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one axiom checker run."""

    axiom: str
    bound: dict
    status: str  # PASS | BOUNDED-PASS | FAIL
    counterexamples: tuple = ()
    checked: int = 0

    @property
    def ok(self) -> bool:
        return self.status in ("PASS", "BOUNDED-PASS")

    def to_json(self) -> dict:
        return {
            "axiom": self.axiom,
            "bound": self.bound,
            "status": self.status,
            "counterexamples": [dict(c) for c in self.counterexamples],
            "checked": self.checked,
        }


def _subsets_upto(ground: frozenset[int], max_size: int):
    """Subsets in (size, lexicographic) order for reproducible reports."""
    labels = sorted(ground)
    for size in range(min(max_size, len(labels)) + 1):
        for combo in combinations(labels, size):
            yield frozenset(combo), combo


def check_closure_axioms(op: ClosureOperator, max_subset: int) -> AxiomReport:
    """Verify extensivity, idempotence, and monotonicity on all subsets
    of size <= max_subset."""
    if not 0 <= max_subset <= op.size:
        raise ValueError("need 0 <= max_subset <= ground size")
    bad = []
    checked = 0
    subsets = list(_subsets_upto(op.ground, max_subset))
    for subset, combo in subsets:
        closure = op.cl(subset)
        checked += 1
        if not subset <= closure:
            bad.append({"clause": "extensivity", "set": list(combo)})
        if op.cl(closure) != closure:
            bad.append({"clause": "idempotence", "set": list(combo)})
    for big, big_combo in subsets:
        for size in range(len(big_combo)):
            for small in combinations(big_combo, size):
                checked += 1
                if not op.cl(frozenset(small)) <= op.cl(big):
                    bad.append({"clause": "monotonicity",
                                "set": list(small), "superset": list(big_combo)})
    status = "PASS" if not bad else "FAIL"
    return AxiomReport("closure", {"max_subset": max_subset}, status,
                       tuple(bad[:50]), checked)


def check_exchange(op: ClosureOperator, max_subset: int) -> AxiomReport:
    """Verify the exchange biconditional for all S with |S| <= max_subset
    and all a, b outside cl(S)."""
    if not 0 <= max_subset <= op.size:
        raise ValueError("need 0 <= max_subset <= ground size")
    bad = []
    checked = 0
    for subset, combo in _subsets_upto(op.ground, max_subset):
        outside = sorted(op.ground - op.cl(subset))
        grown = {x: op.cl(subset | {x}) for x in outside}
        for i, a in enumerate(outside):
            for b in outside[i + 1:]:
                checked += 1
                left = a in grown[b]
                right = b in grown[a]
                if left != right:
                    bad.append({"set": list(combo), "a": a, "b": b,
                                "a_in_cl_Sb": left, "b_in_cl_Sa": right})
    status = "PASS" if not bad else "FAIL"
    return AxiomReport("exchange", {"max_subset": max_subset}, status,
                       tuple(bad[:50]), checked)


def _points(mask: int) -> list[int]:
    """The positions of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _submasks(mask: int):
    """Every mask whose set bits lie inside `mask`."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def _exists(image: dict[int, int], points: list[int],
            options: list[list[int]], due: list[list[tuple[int, ...]]],
            closed: frozenset[int], leaf=None, i: int = 0,
            used: int = 0) -> bool:
    """Whether points[i:] can take distinct images, each tried in the
    order of its options and outside the bits `used`, so that each closed
    set due at a point lands on a closed set and `leaf(image)` holds at
    the complete map (any complete map counts when `leaf` is None).

    `image` maps each point placed before points[i] to the bit of its
    image.  due[i] lists the closed sets to test once points[i] has an
    image, each as the tuple of its other points, all placed earlier; a
    candidate y passes when `rest | 1 << y` is in `closed` for each.
    """
    if i == len(points):
        return leaf is None or leaf(image)
    x = points[i]
    rests = [sum(map(image.__getitem__, r)) for r in due[i]]
    for y in options[i]:
        bit = 1 << y
        if used & bit:
            continue
        for r in rests:
            if r | bit not in closed:
                break
        else:
            image[x] = bit
            if _exists(image, points, options, due, closed, leaf, i + 1,
                       used | bit):
                return True
    return False


def _join(orbit: dict[int, int], moves: list[tuple[int, int]]) -> None:
    """Merge the classes of x and y for each (x, y) in `moves`; `orbit`
    maps each point to the mask of its class."""
    for x, y in moves:
        merged = orbit[x] | orbit[y]
        if merged != orbit[x]:
            for z in _points(merged):
                orbit[z] = merged


def check_local_homogeneity(op: ClosureOperator, max_closed: int,
                            max_extension: int) -> AxiomReport:
    """Bounded check of local homogeneity.

    For every closed T (|T| <= max_closed), closed S inside T, and distinct
    a, b in T - S, searches for a permutation of T fixing S pointwise with
    a -> b that preserves closed subsets of T and extends to every closed
    U containing T with |U| <= max_extension.  The extension clause of the
    axiom is unbounded, so a clean run is reported as BOUNDED-PASS.

    Sets are bitmasks over the positions of the sorted ground.  A map is
    tested only on closed subsets from a size class in which some set of
    the ground is not closed (a bijection keeps sizes), and never on the
    set it permutes; on a closed set, preserving its closed subsets is
    the same as preserving cl on all its subsets.  Both searches are
    `_exists`.  The extension of a map of T to U places the points of
    U - T only, and skips the closed subsets inside T, which the search on
    T has tested.  A search facing more than PERM_BUDGET permutations
    raises SearchBudgetExceeded.

    The maps of T that pass both tests form a group: they permute the
    closed subsets of T, composing extensions to U extends the composed
    map, and a finite set of permutations closed under composition is a
    group.  So (S, a, b) passes exactly when b is in the orbit of a under
    the maps that fix S pointwise.  For each S the points of T - S are
    joined along the moves of every map found so far for T that fixes S,
    and a pair is searched only while its points are apart; a found map
    joins its moves too.  Each search tries the transposition (a b) first,
    which fixes every later S that misses a and b.  Before the first map
    is found no pair is skipped, so the budget errors are unchanged.
    """
    if not 0 <= max_closed <= max_extension <= op.size:
        raise ValueError(
            "need 0 <= max_closed <= max_extension <= ground size")
    closed_all = tuple(op.closed_sets_upto(max_extension))  # smallest first
    labels = sorted(op.ground)
    bit_of = {x: 1 << i for i, x in enumerate(labels)}
    masks = [sum(map(bit_of.__getitem__, w)) for w in closed_all]
    closed = frozenset(masks)
    rank = {m: i for i, m in enumerate(masks)}
    sizes = Counter(map(len, closed_all))
    tested = {k for k, n in sizes.items() if n < math.comb(len(labels), k)}
    holders: list[list[int]] = [[] for _ in labels]  # smallest first
    lowest: list[list[int]] = [[] for _ in labels]  # tested sizes only
    for m in masks:
        points = _points(m)
        for x in points:
            holders[x].append(m)
        if points and len(points) in tested:
            lowest[points[0]].append(m)
    inside: dict[int, list[int]] = {}  # u -> its closed subsets to test

    def shape(u: int, t: int):
        """The points of u - t, ascending, each with the options u - t and
        the closed subsets of u to test when it is placed: those not
        inside t whose last point outside t it is."""
        subsets = inside.get(u)
        if subsets is None:
            subsets = inside[u] = [w for x in _points(u) for w in lowest[x]
                                   if w | u == u and w != u]
        free = _points(u & ~t)
        due: dict[int, list] = {x: [] for x in free}
        for w in subsets:
            if w | t != t:
                x = (w & ~t).bit_length() - 1
                due[x].append(tuple(_points(w ^ 1 << x)))
        return free, [free] * len(free), [due[x] for x in free]

    bad = []
    checked = 0
    for t, ambient in zip(masks, closed_all):
        if len(ambient) > max_closed:
            break
        if math.factorial(len(ambient)) > PERM_BUDGET:
            raise SearchBudgetExceeded(
                f"permutation search over {len(ambient)}!",
                {"ambient": sorted(ambient)})
        if len(ambient) < 2:
            continue  # no two points to move
        points, _, due = shape(t, 0)
        supersets = [u for u in holders[points[0]] if u & t == t and u != t]
        plans: list = [None] * len(supersets)  # shape(u, t), on demand
        extends: dict[tuple, bool] = {}  # a map of T, by its image bits

        def extends_everywhere(image) -> bool:
            # raises for the current `instance`; the extensions add the
            # points of U - T to `image`, which the search on T never reads
            key = tuple(map(image.__getitem__, points))
            hit = extends.get(key)
            if hit is None:
                hit = True
                for j, u in enumerate(supersets):
                    rest = u.bit_count() - len(points)
                    if math.factorial(rest) > PERM_BUDGET:
                        raise SearchBudgetExceeded(
                            f"extension search over {rest}! permutations",
                            instance)
                    if plans[j] is None:
                        plans[j] = shape(u, t)
                    if not _exists(image, *plans[j], closed):
                        hit = False
                        break
                extends[key] = hit
            return hit

        ambient_labels = [labels[x] for x in points]
        inner = sorted((s for s in _submasks(t) if s in closed),
                       key=rank.__getitem__)
        found: list[tuple[int, list]] = []  # (moved mask, its moves)
        for fixed in inner:
            fixed_points = _points(fixed)
            free = _points(t & ~fixed)
            orbit = {x: 1 << x for x in free}  # x -> the mask of its class
            for moved, moves in found:
                if not moved & fixed:
                    _join(orbit, moves)
            for a, b in permutations(free, 2):
                checked += 1
                if orbit[a] >> b & 1:
                    continue  # a map the found ones generate sends a to b
                instance = {"fixed": [labels[x] for x in fixed_points],
                            "ambient": ambient_labels,
                            "a": labels[a], "b": labels[b]}
                others = [y for y in free if y != b]
                options = []
                for x in points:
                    if x == a:
                        options.append([b])
                    elif fixed >> x & 1:
                        options.append([x])
                    else:  # the transposition (a b) first
                        first = a if x == b else x
                        options.append(
                            [first, *(y for y in others if y != first)])
                image: dict[int, int] = {}
                if _exists(image, points, options, due, closed,
                           extends_everywhere):
                    moves = [(x, image[x].bit_length() - 1) for x in points
                             if image[x] >> x != 1]
                    found.append((sum(1 << x for x, _ in moves), moves))
                    _join(orbit, moves)
                else:
                    bad.append(instance)
    status = "BOUNDED-PASS" if not bad else "FAIL"
    return AxiomReport(
        "local-homogeneity",
        {"max_closed": max_closed, "max_extension": max_extension},
        status, tuple(bad[:50]), checked)


def is_independent(op: ClosureOperator, subset: Iterable[int],
                   over: Iterable[int] = ()) -> bool:
    """True when no element falls in the closure of the rest (over a base).

    Computed both directly and by the incremental test; the two must agree.
    """
    s = frozenset(subset)
    base = frozenset(over)
    direct = all(a not in op.cl(base | (s - {a})) for a in s)
    ordered = sorted(s)
    incremental = all(
        ordered[j] not in op.cl(base | frozenset(ordered[:j]))
        for j in range(len(ordered)))
    if direct != incremental:
        raise IntermediateAssertFailed(
            "direct and incremental independence tests disagree "
            f"on {sorted(s)} over {sorted(base)}")
    return direct


@dataclass(frozen=True)
class CardinalityReport:
    """Closure cardinalities across independent sets of one size."""

    size: int
    common_value: int
    inspected: int
    status: str
    counterexample: dict | None = None

    def to_json(self) -> dict:
        return {"size": self.size, "common_value": self.common_value,
                "inspected": self.inspected, "status": self.status,
                "counterexample": self.counterexample}


def verify_closure_cardinality(op: ClosureOperator,
                               size: int) -> CardinalityReport:
    """Check that all independent sets of the given size have closures of
    one common cardinality."""
    if size > op.size:
        raise ValueError("size exceeds the ground set")
    common = None
    inspected = 0
    for candidate in map(frozenset, combinations(sorted(op.ground), size)):
        if not is_independent(op, candidate):
            continue
        inspected += 1
        value = len(op.cl(candidate))
        if common is None:
            common = value
        elif value != common:
            return CardinalityReport(
                size, common, inspected, "FAIL",
                {"set": sorted(candidate), "value": value})
    if common is None:
        raise NoIndependentSet(f"no independent set of size {size}")
    return CardinalityReport(size, common, inspected, "PASS")
