"""Supports of k-ary relations on a symmetric ground set, formula
synthesis for supported relations, the definable-partition dichotomy, and
the membership-signature partition gadgets.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice, product
from typing import Iterable, Sequence

from .errors import (
    DichotomyViolated,
    IntermediateAssertFailed,
    MajorityTie,
    NotASupport,
    NotEquivalence,
)
from .formulas import Formula, complete_types, satisfying_mask
from .gf2core import mask_points

# Caps checked before any work.  n^k of a relation: 12x the largest used by
# the tests, golden cases and benchmark (7^3); at the cap, `support
# --compare` takes 0.1-0.3 CPU-s on a full relation of arity 1-4 (2-core
# x86-64).
MAX_TUPLE_SPACE = 1 << 12
# The ground of `signature_classes`: `sigma` there takes 0.4 CPU-s, 33 MB.
MAX_SIGNATURE_GROUND = 1 << 16


@dataclass(frozen=True)
class Relation:
    """A k-ary relation on the ground set {0..n-1}."""

    n: int
    k: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError("need n >= 1 and k >= 1")
        top = MAX_TUPLE_SPACE.bit_length()  # k first: no huge power
        if self.k >= top or self.n ** self.k > MAX_TUPLE_SPACE:
            raise ValueError(f"n={self.n}, k={self.k} is above the cap of "
                             f"n^k <= {MAX_TUPLE_SPACE} with k < {top}")
        # one pass over the lengths and the points, and a second one only
        # to name a bad tuple
        ground = range(self.n)
        if ({len(t) for t in self.tuples} - {self.k}
                or not all(x in ground
                           for x in {x for t in self.tuples for x in t})):
            bad = next(t for t in self.tuples if len(t) != self.k
                       or any(x not in ground for x in t))
            raise ValueError(f"bad tuple {bad} for n={self.n}, k={self.k}")

    @classmethod
    def from_tuples(cls, n: int, k: int, tuples) -> "Relation":
        return cls(n, k, frozenset(tuple(t) for t in tuples))

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k,
                "tuples": sorted(list(t) for t in self.tuples)}

    def apply_perm(self, perm: Sequence[int]) -> "Relation":
        return Relation(self.n, self.k,
                        frozenset(tuple(perm[x] for x in t)
                                  for t in self.tuples))


def _tuple_mask(n: int, tuples) -> int:
    """The tuples as a mask over {0..n-1}^k, bit j for the j-th point in
    `product` order."""
    mask = 0
    for t in tuples:
        index = 0
        for x in t:
            index = index * n + x
        mask |= 1 << index
    return mask


def _swap_test(n: int, k: int, tuples):
    """The transposition test on the relation's tuple mask.  In the
    coordinate of weight w, the points whose value there is d form runs of
    w bits at d*w, repeated every n*w bits; (a b), a < b, exchanges the
    runs of a and b, a shift by (b - a)*w, in every coordinate."""
    mask = _tuple_mask(n, tuples)
    size = n ** k
    coordinates = []  # (w, the runs of value 0)
    for j in range(k):
        w = n ** (k - 1 - j)
        coordinates.append(
            (w, ((1 << size) - 1) // ((1 << n * w) - 1) * ((1 << w) - 1)))

    def preserved(a: int, b: int) -> bool:
        image = mask
        for w, runs in coordinates:
            low, high = runs << a * w, runs << b * w
            shift = (b - a) * w
            image = (image & ~(low | high) | (image & low) << shift
                     | (image & high) >> shift)
        return image == mask
    return preserved


def _transposition_classes(rel: Relation) -> list[list[int]]:
    """The classes of the points under "(a b) preserves the relation".
    This is an equivalence, because (b c) = (a b)(a c)(a b) (Dixon and
    Mortimer, Permutation Groups, GTM 163, 1996), so each point is tested
    against one representative per class."""
    if rel.k == 2:
        preserved = _pair_test(rel.n, rel.tuples)
    else:
        preserved = _swap_test(rel.n, rel.k, rel.tuples)
    classes: list[list[int]] = []
    for x in range(rel.n):
        for cls in classes:
            if preserved(cls[0], x):
                cls.append(x)
                break
        else:
            classes.append([x])
    return classes


def _pair_test(n: int, tuples: frozenset):
    """The transposition test for a binary relation, on its row masks
    (bit y of rows[x] for the pair (x, y)) and column masks (bit x of
    cols[y]).  (a b) moves only the pairs in rows a and b and in columns
    a and b, so it preserves the relation exactly when columns a and b
    agree off {a, b} and row b is row a with bits a and b exchanged."""
    rows = [0] * n
    cols = [0] * n
    for x, y in tuples:
        rows[x] |= 1 << y
        cols[y] |= 1 << x

    def preserved(a: int, b: int) -> bool:
        pair = 1 << a | 1 << b
        row = rows[a]
        if (row >> a ^ row >> b) & 1:
            row ^= pair
        return rows[b] == row and not (cols[a] ^ cols[b]) & ~pair
    return preserved


def is_support(rel: Relation, members: Iterable[int]) -> bool:
    """True when every permutation fixing `members` pointwise preserves
    the relation.  Labels outside {0..n-1} are ignored."""
    return _is_support(rel.n, rel.k, rel.tuples, sum(
        1 << x for x in frozenset(members).intersection(range(rel.n))))


def _is_support(n: int, k: int, tuples, members: int) -> bool:
    """The same test for the point mask `members`: the tuple set must be a
    union of orbits of Sym(outside).  With fewer than two points outside
    the stabilizer is trivial and the check is vacuous.  At arity 2 the
    test runs `_pair_test` on the transpositions (o0 o), o0 the least
    outside point, which generate Sym(outside) (Dixon and Mortimer, 1996).
    At other arities a tuple's orbit is fixed by its pattern, which keeps
    the members and numbers the other points by first occurrence, and an
    orbit with j such points has perm(m, j) tuples when m points lie
    outside; so every pattern that occurs must occur that often."""
    outside = ((1 << n) - 1) & ~members
    m = outside.bit_count()
    if m < 2:
        return True
    if k == 2:
        preserved = _pair_test(n, tuples)
        low = outside & -outside
        first = low.bit_length() - 1
        return all(preserved(first, o) for o in mask_points(outside ^ low))
    counts: Counter = Counter()
    for t in tuples:
        fresh: dict[int, int] = {}
        pattern = tuple(x if members >> x & 1 else
                        fresh.setdefault(x, ~len(fresh)) for x in t)
        counts[len(fresh), pattern] += 1
    return all(count == math.perm(m, j) for (j, _), count in counts.items())


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
    """The outcome of one recursive support computation; the chain and
    majority fields stay None in the arity-1 base case."""

    members: frozenset[int]
    chains: dict | None = None
    major_size: int | None = None
    major: frozenset[int] | None = None
    generic_class: frozenset[int] | None = None


def _chain_levels(start: int, reach: list[int]) -> list[int]:
    """The chain grown from `start` by the section supports `reach`, as
    cumulative BFS layers of point masks.  A layer adds the reach of the
    points the layer before it added; the older points' reach is in
    already."""
    seen = frontier = 1 << start
    levels = [seen]
    while True:
        grown = seen
        for a in mask_points(frontier):
            grown |= reach[a]
        if grown == seen:
            return levels
        frontier = grown & ~seen
        seen = grown
        levels.append(seen)


def _chains(reach: list[int]) -> list[int]:
    """Every chain's fixed point, the last layer `_chain_levels` would
    build: chain b is the transitive closure of b under "x reaches the
    points of reach[x]", found for all b at once by Warshall's
    algorithm on point masks."""
    chains = [r | 1 << b for b, r in enumerate(reach)]
    for x in range(len(chains)):
        through = chains[x]
        chains = [c | through if c >> x & 1 else c for c in chains]
    return chains


def _point_set(mask: int) -> frozenset[int]:
    return frozenset(mask_points(mask))


def recursive_support_trace(rel: Relation) -> RecursiveSupportTrace:
    """Support construction by recursion on arity, with the finite
    replacement of "finite/cofinite" by "at most half / more than half".

    Raises MajorityTie when no strict majority exists at either stage.
    The set returned at every level is verified to be a support of that
    level's tuple set before it is used.
    """
    if rel.n < 4:
        raise ValueError("need a ground set of at least 4")
    if rel.k == 1:
        return RecursiveSupportTrace(
            _point_set(_support_mask(rel.n, 1, rel.tuples)))
    members, reach, major_size, major, generic = _recursion(
        rel.n, rel.k, rel.tuples)
    levels = [tuple(map(_point_set, _chain_levels(b, reach)))
              for b in range(rel.n)]
    chains = {b: SupportChain(b, layers, layers[-1])
              for b, layers in enumerate(levels)}
    return RecursiveSupportTrace(_point_set(members), chains, major_size,
                                 _point_set(major), _point_set(generic))


def _support_mask(n: int, k: int, tuples) -> int:
    """The support the recursion builds for the k-tuples over {0..n-1},
    as a point mask."""
    if k == 1:
        return _unary_support(n, sum(1 << t[0] for t in tuples))
    return _recursion(n, k, tuples)[0]


def _unary_support(n: int, values: int) -> int:
    """The arity-1 support of the point mask `values`: the mask when it
    holds at most half the points, else its complement.  A point set is a
    union of orbits of Sym(outside) exactly when it holds all of outside
    or none of it."""
    full = (1 << n) - 1
    members = values if 2 * values.bit_count() <= n else full ^ values
    outside = full ^ members
    if values & outside not in (0, outside):
        raise IntermediateAssertFailed(
            f"constructed set {mask_points(members)} is not a support")
    return members


def _recursion(n: int, k: int, tuples):
    """The recursion at arity k >= 2, on point masks.  Returns the
    members, the section supports the chains grow by, the majority chain
    size, the majority set and the generic class.  The sections are the
    tails of the tuples, grouped by their first point; at arity 2 each is
    a row mask."""
    full = (1 << n) - 1
    if k == 2:
        sections = [0] * n
        for a, b in tuples:
            sections[a] |= 1 << b
        section_support = [_unary_support(n, row) for row in sections]
    else:
        sections = [set() for _ in range(n)]
        for t in tuples:
            sections[t[0]].add(t[1:])
        section_support = [_support_mask(n, k - 1, section)
                           for section in sections]
    chains = _chains(section_support)
    counts = Counter(chain.bit_count() for chain in chains)
    majority = [size for size, c in counts.items() if 2 * c > n]
    if not majority:
        raise MajorityTie("no chain cardinality holds a strict majority",
                          stage="chain-cardinality")
    major_size = majority[0]
    major = sum(1 << b for b in range(n)
                if chains[b].bit_count() == major_size)
    # no block check: x in chain(b) puts chain(x) inside chain(b), so two
    # majority-size chains that meet at a majority point are equal
    solo = [b for b in mask_points(major) if chains[b] & major == 1 << b]
    # a solo point's fingerprint: the equality types of its section over
    # the points outside the majority set and the point itself, renamed n
    # so sections compare.  A type is kept as the pattern that writes the
    # outside points as they are and numbers the other majority points
    # n + 1, n + 2, ... by first occurrence.  A row mask's types are the
    # outside points it holds, whether it holds its own point, and whether
    # it holds another majority point, so at arity 2 those three are the
    # key.
    if k == 2:
        def fingerprint(a: int):
            row = sections[a]
            return (row & ~major, row >> a & 1,
                    row & major & ~(1 << a) != 0)
    else:
        def fingerprint(a: int):
            types = set()
            for t in sections[a]:
                fresh = {a: n}
                types.add(tuple(fresh.setdefault(x, n + len(fresh))
                                if major >> x & 1 else x for x in t))
            return frozenset(types)
    classes: dict = {}
    for a in solo:
        key = fingerprint(a)
        classes[key] = classes.get(key, 0) | 1 << a
    generic = [members for members in classes.values()
               if 2 * members.bit_count() > n]
    if not generic:
        raise MajorityTie("no fingerprint class holds a strict majority",
                          stage="class-majority")
    generic_class = generic[0]
    members = 0
    for b in mask_points(full ^ generic_class):
        members |= chains[b]
    if not _is_support(n, k, tuples, members):
        raise IntermediateAssertFailed(
            f"constructed set {mask_points(members)} is not a support")
    return members, section_support, major_size, major, generic_class


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
    parameters; exactness is verified on every tuple before returning.
    An exact formula certifies the support: with the members as its
    constants, its points are a union of complete types, which are orbits
    of Sym(outside).  So `is_support` runs only when the check fails, to
    tell a non-support (NotASupport) from a synthesis fault."""
    members = frozenset(support)
    if not members <= set(range(rel.n)):
        raise ValueError("support not contained in the ground set")
    params = tuple(sorted(members))
    body = tuple(sorted(
        literals
        for _, witness, literals in _realizable_types(rel.n, rel.k, params)
        if witness in rel.tuples))
    formula = Formula(rel.k, params, body)
    # both sides as masks over {0..n-1}^k in `product` order
    wrong = satisfying_mask(formula, rel.n) ^ _tuple_mask(rel.n, rel.tuples)
    if wrong:
        if not is_support(rel, members):
            raise NotASupport(
                f"{sorted(members)} does not support the relation")
        # the lowest wrong bit is the first disagreeing point
        point = next(islice(product(range(rel.n), repeat=rel.k),
                            (wrong & -wrong).bit_length() - 1, None))
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


def check_signature_ground(n: int) -> None:
    """Raise ValueError unless n is a ground size `signature_classes`
    takes."""
    if not 0 <= n <= MAX_SIGNATURE_GROUND:
        raise ValueError(f"ground size must be 0..{MAX_SIGNATURE_GROUND}")


def signature_classes(n: int, fixed: Iterable[int],
                      sets: Sequence[Iterable[int]]
                      ) -> tuple[frozenset[int], ...]:
    """Partition of {0..n-1}: fixed points are singletons, and the rest
    group by their membership signature across the given sets."""
    check_signature_ground(n)
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


def nonunion_witness(classes: Iterable[Iterable[int]],
                     subset: Iterable[int]) -> tuple[int, int] | None:
    """Least (c, d) in one class with c inside the subset and d outside,
    or None when the subset is a union of classes.  Each class that meets
    the subset without lying inside it offers its least point inside and
    its least point outside; the least c wins.  Only overlapping classes
    can offer the same c, and then the earliest of them wins."""
    target = frozenset(subset)
    best = None
    for cls in classes:
        members = frozenset(cls)
        inside = members & target
        if inside and len(inside) < len(members):
            c = min(inside)
            if best is None or c < best[0]:
                best = (c, min(members - target))
    return best
