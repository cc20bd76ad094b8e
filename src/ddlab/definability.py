"""Supports of k-ary relations on a symmetric ground set, formula
synthesis for supported relations, the definable-partition dichotomy, and
the membership-signature partition gadgets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Iterable, Sequence

from .errors import (
    DichotomyViolated,
    IntermediateAssertFailed,
    MajorityTie,
    NotASupport,
    NotEquivalence,
    PartitionViolation,
)
from .formulas import Formula, complete_types, evaluate


@dataclass(frozen=True)
class Relation:
    """A k-ary relation on the ground set {0..n-1}."""

    n: int
    k: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("need n >= 1 and k >= 1")
        for t in self.tuples:
            if len(t) != self.k or any(not 0 <= x < self.n for x in t):
                raise ValueError(f"bad tuple {t} for n={self.n}, k={self.k}")

    @classmethod
    def from_tuples(cls, n: int, k: int, tuples) -> "Relation":
        return cls(n, k, frozenset(tuple(t) for t in tuples))

    @classmethod
    def from_json(cls, obj: dict) -> "Relation":
        return cls.from_tuples(obj["n"], obj["k"], obj["tuples"])

    @classmethod
    def loads(cls, text: str) -> "Relation":
        return cls.from_json(json.loads(text))

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k,
                "tuples": sorted(list(t) for t in self.tuples)}

    def apply_perm(self, perm: Sequence[int]) -> "Relation":
        return Relation(self.n, self.k,
                        frozenset(tuple(perm[x] for x in t)
                                  for t in self.tuples))

    def section(self, a: int) -> "Relation":
        """The arity-(k-1) slice at first coordinate a."""
        if self.k < 2:
            raise ValueError("sections need arity at least 2")
        return Relation(self.n, self.k - 1,
                        frozenset(t[1:] for t in self.tuples if t[0] == a))


def _preserved(rel: Relation, a: int, b: int) -> bool:
    """True when the transposition (a b) maps the relation onto itself.
    It fixes every tuple without a or b and is a bijection, so it is
    enough that each tuple it moves lands in the relation."""
    swap = {a: b, b: a}
    return all(tuple(map(swap.get, t, t)) in rel.tuples
               for t in rel.tuples if a in t or b in t)


def _transposition_classes(rel: Relation) -> list[list[int]]:
    """The classes of the points under "(a b) preserves the relation".
    This is an equivalence, because (b c) = (a b)(a c)(a b) (Dixon and
    Mortimer, Permutation Groups, GTM 163, 1996), so each point is tested
    against one representative per class."""
    classes: list[list[int]] = []
    for x in range(rel.n):
        for cls in classes:
            if _preserved(rel, cls[0], x):
                cls.append(x)
                break
        else:
            classes.append([x])
    return classes


def is_support(rel: Relation, members: Iterable[int]) -> bool:
    """True when every permutation fixing `members` pointwise preserves
    the relation, that is, when the points outside lie in one
    transposition class.  The transpositions from the first outside point
    to each other one decide this; with fewer than two points outside the
    stabilizer is trivial and the check is vacuous."""
    e = frozenset(members)
    outside = [x for x in range(rel.n) if x not in e]
    return all(_preserved(rel, outside[0], b) for b in outside[1:])


@dataclass(frozen=True)
class MinimalSupport:
    """A minimal-cardinality support, with the ambiguity bookkeeping."""

    members: frozenset[int]
    ambiguous: bool
    candidates: tuple[frozenset[int], ...]

    @property
    def size(self) -> int:
        return len(self.members)


def minimal_support(rel: Relation) -> MinimalSupport:
    """Smallest parameter sets that support the relation.  A set supports
    it exactly when its complement lies in one transposition class, so
    the minima are the complements of the largest classes, listed in
    `candidates` by `sorted`; `ambiguous` flags two or more classes tied
    for largest, and `members` is the first candidate."""
    if rel.n < 2:
        raise ValueError("need a ground set of at least 2")
    classes = _transposition_classes(rel)
    largest = max(len(cls) for cls in classes)
    ground = frozenset(range(rel.n))
    minima = sorted((ground.difference(cls) for cls in classes
                     if len(cls) == largest), key=sorted)
    return MinimalSupport(minima[0], len(minima) > 1, tuple(minima))


@dataclass(frozen=True)
class SupportChain:
    """The increasing chain grown from one point by unioning section
    supports, with its fixed point."""

    start: int
    levels: tuple[frozenset[int], ...]
    members: frozenset[int]


@dataclass(frozen=True)
class RecursiveSupportTrace:
    """The full state of one recursive support computation."""

    members: frozenset[int]
    base_case: bool
    section_supports: dict | None = None
    chains: dict | None = None
    major_size: int | None = None
    major: frozenset[int] | None = None
    solo: frozenset[int] | None = None
    fingerprint_classes: tuple | None = None
    generic_class: frozenset[int] | None = None


def _chain(start: int, section_support: dict[int, frozenset[int]],
           n: int) -> SupportChain:
    levels = [frozenset([start])]
    for _ in range(n + 1):
        current = levels[-1]
        grown = current.union(*(section_support[a] for a in current))
        if grown == current:
            break
        levels.append(grown)
    return SupportChain(start, tuple(levels), levels[-1])


def _marked_fingerprint(rel_section: Relation, outside: frozenset[int],
                        marker: int) -> frozenset:
    """Equality types of the section's tuples over the parameters
    `outside` plus the section point, with the point renamed to a shared
    marker so fingerprints are comparable across points."""
    types = set()
    for t in rel_section.tuples:
        fresh_ids: dict[int, int] = {}
        pattern = []
        for value in t:
            if value == marker:
                pattern.append(("marker",))
            elif value in outside:
                pattern.append(("const", value))
            else:
                if value not in fresh_ids:
                    fresh_ids[value] = len(fresh_ids)
                pattern.append(("fresh", fresh_ids[value]))
        types.add(tuple(pattern))
    return frozenset(types)


def recursive_support_trace(rel: Relation) -> RecursiveSupportTrace:
    """Support construction by recursion on arity, with the finite
    replacement of "finite/cofinite" by "at most half / more than half".

    Raises MajorityTie when no strict majority exists at either stage.
    The returned set is verified to be a support before returning.
    """
    n = rel.n
    if n < 4:
        raise ValueError("need a ground set of at least 4")
    if rel.k == 1:
        values = frozenset(t[0] for t in rel.tuples)
        members = (values if 2 * len(values) <= n
                   else frozenset(range(n)) - values)
        result = RecursiveSupportTrace(members, base_case=True)
    else:
        sections = {a: rel.section(a) for a in range(n)}
        section_support = {a: recursive_support(sections[a])
                           for a in range(n)}
        chains = {b: _chain(b, section_support, n) for b in range(n)}
        counts: dict[int, int] = {}
        for chain in chains.values():
            counts[len(chain.members)] = counts.get(len(chain.members), 0) + 1
        majority = [size for size, c in counts.items() if 2 * c > n]
        if not majority:
            raise MajorityTie("no chain cardinality holds a strict majority",
                              stage="chain-cardinality")
        major_size = majority[0]
        major = frozenset(b for b in range(n)
                          if len(chains[b].members) == major_size)
        # the restricted chains must partition the majority set
        block_of: dict[int, frozenset[int]] = {}
        for b in major:
            block = chains[b].members & major
            for x in block:
                if block_of.setdefault(x, block) != block:
                    raise PartitionViolation(
                        f"blocks through {x} disagree: {sorted(block)} vs "
                        f"{sorted(block_of[x])}")
        if frozenset(block_of) != major:
            raise PartitionViolation("restricted chains do not cover")
        solo = frozenset(b for b in major
                         if chains[b].members & major == {b})
        outside = frozenset(range(n)) - major
        fingerprints = {a: _marked_fingerprint(sections[a], outside, a)
                        for a in solo}
        classes: dict[frozenset, set[int]] = {}
        for a, fp in fingerprints.items():
            classes.setdefault(fp, set()).add(a)
        generic = [frozenset(members) for members in classes.values()
                   if 2 * len(members) > n]
        if not generic:
            raise MajorityTie("no fingerprint class holds a strict majority",
                              stage="class-majority")
        generic_class = generic[0]
        members = frozenset().union(
            *(chains[b].members for b in frozenset(range(n)) - generic_class))
        result = RecursiveSupportTrace(
            members, base_case=False, section_supports=section_support,
            chains=chains, major_size=major_size, major=major, solo=solo,
            fingerprint_classes=tuple(
                frozenset(v) for v in classes.values()),
            generic_class=generic_class)
    if not is_support(rel, result.members):
        raise IntermediateAssertFailed(
            f"constructed set {sorted(result.members)} is not a support")
    return result


def recursive_support(rel: Relation) -> frozenset[int]:
    """The support set produced by the arity recursion."""
    return recursive_support_trace(rel).members


@lru_cache(maxsize=None)
def _realizable_types(n: int, k: int, params: tuple[int, ...]):
    """Realizable complete types with their witnesses and literal forms."""
    out = []
    for t in complete_types(k, params):
        if t.realizable(n):
            out.append((t, t.witness(n), t.to_literals()))
    return tuple(out)


def synthesize_formula(rel: Relation, support: Iterable[int]) -> Formula:
    """Canonical DNF over complete equality types with the support as
    parameters; exactness is verified on every tuple before returning."""
    members = frozenset(support)
    if not members <= set(range(rel.n)):
        raise ValueError("support not contained in the ground set")
    if not is_support(rel, members):
        raise NotASupport(f"{sorted(members)} does not support the relation")
    params = tuple(sorted(members))
    body = tuple(sorted(
        literals
        for _, witness, literals in _realizable_types(rel.n, rel.k, params)
        if witness in rel.tuples))
    formula = Formula(rel.k, params, body, canonical=True)
    for point in product(range(rel.n), repeat=rel.k):
        if evaluate(formula, point) != (point in rel.tuples):
            raise IntermediateAssertFailed(
                f"synthesized formula disagrees with the relation at {point}")
    return formula


def partition_dichotomy(rel: Relation, support: Iterable[int]) -> str:
    """Classify an equivalence relation outside its support: either all
    outside points share one block, or each is a singleton block."""
    members = frozenset(support)
    if rel.k != 2:
        raise ValueError("equivalence relations have arity 2")
    ground = range(rel.n)
    if (any((a, a) not in rel.tuples for a in ground)
            or any((b, a) not in rel.tuples for a, b in rel.tuples)
            or any((a, c) not in rel.tuples
                   for a, b in rel.tuples for b2, c in rel.tuples if b == b2)):
        raise NotEquivalence("relation is not an equivalence")
    if not is_support(rel, members):
        raise NotASupport(f"{sorted(members)} does not support the relation")
    if rel.n - len(members) < 3:
        raise ValueError("need at least 3 points outside the support")
    outside = sorted(set(ground) - members)
    single_block = all((a, b) in rel.tuples
                       for a, b in combinations(outside, 2))
    all_singletons = all((a, x) not in rel.tuples
                         for a in outside for x in ground if x != a)
    if single_block and not all_singletons:
        return "single-block"
    if all_singletons and not single_block:
        return "all-singletons"
    raise DichotomyViolated(
        "definable partition is neither single-block nor all-singletons "
        "outside the support")


def signature_classes(n: int, fixed: Iterable[int],
                      sets: Sequence[Iterable[int]]
                      ) -> tuple[frozenset[int], ...]:
    """Partition of {0..n-1}: fixed points are singletons, and the rest
    group by their membership signature across the given sets."""
    fixed = frozenset(fixed) & set(range(n))
    families = [frozenset(s) for s in sets]
    buckets: dict[tuple[bool, ...], set[int]] = {}
    classes = [frozenset([e]) for e in fixed]
    for a in range(n):
        if a in fixed:
            continue
        signature = tuple(a in s for s in families)
        buckets.setdefault(signature, set()).add(a)
    classes.extend(frozenset(members) for members in buckets.values())
    return tuple(sorted(classes, key=min))


def nonunion_witness(classes: Sequence[Iterable[int]],
                     subset: Iterable[int]) -> tuple[int, int] | None:
    """Least (c, d) in one class with c inside the subset and d outside,
    or None when the subset is a union of classes."""
    target = frozenset(subset)
    class_of = {}
    for cls in classes:
        members = frozenset(cls)
        for x in members:
            class_of[x] = members
    for c in sorted(target):
        cls = class_of.get(c)
        if cls is None:
            continue
        outs = sorted(cls - target)
        if outs:
            return (c, outs[0])
    return None
