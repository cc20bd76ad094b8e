"""Closure operators on finite ground sets: concrete geometries, the three
pregeometry axiom checkers, independence, and closure-cardinality checks.

Ground elements are int labels. For the linear and affine instances over
GF(2)^d the labels are the d-bit vectors themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, Iterable

from . import _kernels
from .errors import (
    IntermediateAssertFailed,
    NoIndependentSet,
    SearchBudgetExceeded,
)

DEFAULT_PERM_BUDGET = 40320  # 8!


class ClosureOperator:
    """A total map cl: fin(ground) -> fin(ground), memoized per subset.

    The axioms themselves are not assumed; the checkers below verify them.
    """

    def __init__(self, ground: Iterable[int], kind: str,
                 cl_func: Callable[[frozenset[int]], frozenset[int]]):
        self.ground = frozenset(ground)
        self.kind = kind
        self._cl_func = cl_func
        self._cache: dict[frozenset[int], frozenset[int]] = {}
        self._closed_upto: dict[tuple[int, frozenset[int]],
                                tuple[frozenset[int], ...]] = {}

    @property
    def size(self) -> int:
        return len(self.ground)

    def cl(self, subset: Iterable[int]) -> frozenset[int]:
        key = frozenset(subset)
        if not key <= self.ground:
            raise ValueError("subset not contained in the ground set")
        hit = self._cache.get(key)
        if hit is None:
            hit = self._cl_func(key)
            self._cache[key] = hit
        return hit

    def is_closed(self, subset: Iterable[int]) -> bool:
        key = frozenset(subset)
        return self.cl(key) == key

    def closed_sets_upto(self, max_size: int,
                         base: frozenset[int] = frozenset()
                         ) -> tuple[frozenset[int], ...]:
        """All closed sets of size <= max_size that contain `base`, by
        breadth-first closure of one-point extensions of cl(base) (every
        such closed set is reachable this way for a monotone operator)."""
        key = (max_size, base)
        hit = self._closed_upto.get(key)
        if hit is not None:
            return hit
        start = self.cl(base)
        seen: set[frozenset[int]] = set()
        queue = []
        if len(start) <= max_size:
            seen.add(start)
            queue.append(start)
        while queue:
            current = queue.pop()
            for x in self.ground - current:
                bigger = self.cl(current | {x})
                if len(bigger) <= max_size and bigger not in seen:
                    seen.add(bigger)
                    queue.append(bigger)
        result = tuple(sorted(seen, key=lambda s: (len(s), sorted(s))))
        self._closed_upto[key] = result
        return result

    def __repr__(self):
        return f"ClosureOperator(kind={self.kind!r}, size={self.size})"


def linear_operator(dim: int) -> ClosureOperator:
    """cl = linear span on GF(2)^dim; non-degenerate pregeometry."""

    def close(subset: frozenset[int]) -> frozenset[int]:
        return frozenset(_kernels.span_members(sorted(subset)))

    return ClosureOperator(range(1 << dim), "linear", close)


def affine_operator(dim: int) -> ClosureOperator:
    """cl = affine hull on GF(2)^dim: a0 ^ span{a ^ a0 : a in S} with
    a0 = min(S), and empty for S empty; non-degenerate geometry."""

    def close(subset: frozenset[int]) -> frozenset[int]:
        if not subset:
            return frozenset()
        a0 = min(subset)
        shifted = sorted(a ^ a0 for a in subset)
        return frozenset(a0 ^ m for m in _kernels.span_members(shifted))

    return ClosureOperator(range(1 << dim), "affine", close)


def degenerate_operator(blocks: Iterable[Iterable[int]]) -> ClosureOperator:
    """cl(S) = union of the partition blocks meeting S; cl(empty) = empty."""
    block_list = [frozenset(b) for b in blocks]
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
    if max_subset > op.size:
        raise ValueError("bound exceeds the ground size")
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
    if max_subset > op.size:
        raise ValueError("bound exceeds the ground size")
    bad = []
    checked = 0
    for subset, combo in _subsets_upto(op.ground, max_subset):
        outside = sorted(op.ground - op.cl(subset))
        for i, a in enumerate(outside):
            for b in outside[i + 1:]:
                checked += 1
                left = a in op.cl(subset | {b})
                right = b in op.cl(subset | {a})
                if left != right:
                    bad.append({"set": list(combo), "a": a, "b": b,
                                "a_in_cl_Sb": left, "b_in_cl_Sa": right})
    status = "PASS" if not bad else "FAIL"
    return AxiomReport("exchange", {"max_subset": max_subset}, status,
                       tuple(bad[:50]), checked)


def _closed_subsets_of(op: ClosureOperator, ambient: frozenset[int]
                       ) -> frozenset[frozenset[int]]:
    """Every closed subset of a (small) ambient set."""
    labels = sorted(ambient)
    out = set()
    for size in range(len(labels) + 1):
        for combo in combinations(labels, size):
            if op.is_closed(frozenset(combo)):
                out.add(frozenset(combo))
    return frozenset(out)


def _small_first(closed: frozenset[int]) -> tuple[int, list[int]]:
    return len(closed), sorted(closed)


def _preserves_family(mapping: dict[int, int],
                      family: frozenset[frozenset[int]],
                      order: list[frozenset[int]]) -> bool:
    """Does mapping carry every member of family, tried in `order`, into
    family?"""
    for closed in order:
        if frozenset(mapping[x] for x in closed) not in family:
            return False
    return True


def _extends_to(op: ClosureOperator, mapping: dict[int, int],
                ambient: frozenset[int], family: frozenset[frozenset[int]],
                small_first: list[frozenset[int]],
                perm_budget: int, instance) -> bool:
    """Does mapping extend to a permutation of ambient preserving its
    closed-subset family?  (Preserving that family is equivalent to
    preserving cl on subsets of a closed ambient set.)  `small_first` is
    the same family, smallest sets first."""
    rest = sorted(ambient - mapping.keys())
    if math.factorial(len(rest)) > perm_budget:
        raise SearchBudgetExceeded(
            f"extension search over {len(rest)}! permutations", instance)
    for image in permutations(rest):
        full = dict(mapping)
        full.update(zip(rest, image))
        if _preserves_family(full, family, small_first):
            return True
    return False


def check_local_homogeneity(op: ClosureOperator, max_closed: int,
                            max_extension: int,
                            perm_budget: int = DEFAULT_PERM_BUDGET) -> AxiomReport:
    """Bounded check of local homogeneity.

    For every closed T (|T| <= max_closed), closed S inside T, and distinct
    a, b in T - S, searches for a permutation of T fixing S pointwise with
    a -> b that preserves closed subsets of T and extends to every closed
    U containing T with |U| <= max_extension.  The extension clause of the
    axiom is unbounded, so a clean run is reported as BOUNDED-PASS.
    """
    if not max_closed <= max_extension <= op.size:
        raise ValueError("need max_closed <= max_extension <= ground size")
    closed_all = op.closed_sets_upto(max_extension)
    families: dict[frozenset[int], tuple[frozenset[frozenset[int]],
                                         list[frozenset[int]]]] = {}

    def family_of(closed: frozenset[int]):
        """The closed subsets of `closed`: as a set, and smallest first."""
        hit = families.get(closed)
        if hit is None:
            family = _closed_subsets_of(op, closed)
            hit = families[closed] = (family,
                                      sorted(family, key=_small_first))
        return hit

    bad = []
    checked = 0
    for ambient in closed_all:
        if len(ambient) > max_closed:
            continue
        family, small_first = family_of(ambient)
        if math.factorial(len(ambient)) > perm_budget:
            raise SearchBudgetExceeded(
                f"permutation search over {len(ambient)}!",
                {"ambient": sorted(ambient)})
        labels = sorted(ambient)
        candidates = []
        for image in permutations(labels):
            mapping = dict(zip(labels, image))
            if _preserves_family(mapping, family, small_first):
                candidates.append(mapping)
        supersets = [u for u in closed_all if ambient <= u]
        extends_cache: dict[tuple, bool] = {}

        def extends_everywhere(mapping: dict[int, int], instance) -> bool:
            key = tuple(sorted(mapping.items()))
            hit = extends_cache.get(key)
            if hit is None:
                hit = all(
                    _extends_to(op, mapping, u, *family_of(u),
                                perm_budget, instance)
                    for u in supersets)
                extends_cache[key] = hit
            return hit

        for fixed in small_first:
            movable = sorted(ambient - fixed)
            for a in movable:
                for b in movable:
                    if a == b:
                        continue  # identity permutation always works
                    checked += 1
                    instance = {"fixed": sorted(fixed), "ambient": labels,
                                "a": a, "b": b}
                    found = any(
                        mapping[a] == b
                        and all(mapping[x] == x for x in fixed)
                        and extends_everywhere(mapping, instance)
                        for mapping in candidates)
                    if not found:
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
    mode: str
    common_value: int
    inspected: int
    status: str
    counterexample: dict | None = None

    def to_json(self) -> dict:
        return {"size": self.size, "mode": self.mode,
                "common_value": self.common_value,
                "inspected": self.inspected, "status": self.status,
                "counterexample": self.counterexample}


def verify_closure_cardinality(op: ClosureOperator, size: int,
                               mode: str = "exhaustive", samples: int = 100,
                               seed: int = 0) -> CardinalityReport:
    """Check that all independent sets of the given size have closures of
    one common cardinality."""
    if size > op.size:
        raise ValueError("size exceeds the ground set")
    if mode == "exhaustive":
        pool = (frozenset(c) for c in combinations(sorted(op.ground), size))
    elif mode == "sample":
        import random

        rng = random.Random(seed)
        labels = sorted(op.ground)
        pool = (frozenset(rng.sample(labels, size))
                for _ in range(samples * 50))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    common = None
    inspected = 0
    for candidate in pool:
        if not is_independent(op, candidate):
            continue
        inspected += 1
        value = len(op.cl(candidate))
        if common is None:
            common = value
        elif value != common:
            return CardinalityReport(
                size, mode, common, inspected, "FAIL",
                {"set": sorted(candidate), "value": value})
        if mode == "sample" and inspected >= samples:
            break
    if common is None:
        raise NoIndependentSet(f"no independent set of size {size}")
    return CardinalityReport(size, mode, common, inspected, "PASS")
