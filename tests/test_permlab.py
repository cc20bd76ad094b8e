"""Orbit structure, the invariant-set dichotomy, and equivariance runs."""

import gc
import random
import weakref
from itertools import combinations, product

import pytest

from ddlab import dualdd, gf2core, permlab
from ddlab import pregeometry as pg
from ddlab.errors import IntermediateAssertFailed
from ddlab.gf2core import LinearMap, span


def is_orbit_union(orbits, subset):
    """A set is a union of orbits when it meets the complement of the
    span in nothing or in all of it."""
    complement = frozenset(range(1 << orbits.dim)) - orbits.fixed_span
    inter = subset & complement
    return not inter or inter == complement


def blocks_of(orbits):
    """The orbits as `OrbitPartition` states them: each span vector
    alone, and the complement mask's points as one block."""
    blocks = [frozenset([w]) for w in orbits.fixed_span]
    if orbits.complement_mask:
        blocks.append(frozenset(gf2core.mask_points(orbits.complement_mask)))
    return sorted(blocks, key=min)


def gl_listing(dim):
    """Every invertible map on GF(2)^dim, found among all column tuples."""
    maps = (LinearMap(dim, cols)
            for cols in product(range(1 << dim), repeat=dim))
    return [m for m in maps if m.invertible]


def brute_orbits(fixed, dim):
    """Oracle: union-find over every invertible map fixing the span."""
    fixed_span = span(fixed, dim).members
    stabilizer = [m for m in gl_listing(dim)
                  if all(m.apply(w) == w for w in fixed_span)]
    parent = list(range(1 << dim))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for m in stabilizer:
        for v in range(1 << dim):
            a, b = find(v), find(m.apply(v))
            if a != b:
                parent[a] = b
    blocks = {}
    for v in range(1 << dim):
        blocks.setdefault(find(v), set()).add(v)
    return sorted((frozenset(b) for b in blocks.values()), key=min)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_orbits_match_full_group_oracle(dim):
    for size in range(3):
        for combo in combinations(range(1 << dim), size):
            got = permlab.stabilizer_orbits(frozenset(combo), dim)
            assert blocks_of(got) == brute_orbits(frozenset(combo), dim)


def test_orbit_examples():
    o = permlab.stabilizer_orbits(frozenset(), 2)
    assert blocks_of(o) == [frozenset({0}), frozenset({1, 2, 3})]
    o = permlab.stabilizer_orbits({1}, 2)
    assert blocks_of(o) == [frozenset({0}), frozenset({1}), frozenset({2, 3})]
    o = permlab.stabilizer_orbits({1, 2}, 2)
    assert o.complement_mask == 0
    assert all(len(b) == 1 for b in blocks_of(o)) and len(blocks_of(o)) == 4


def test_orbit_witnesses_verified():
    o = permlab.stabilizer_orbits({1}, 4)
    ordered = gf2core.mask_points(o.complement_mask)
    for u, v in zip(ordered, ordered[1:]):
        pi = o.moves[u, v].witness
        assert pi.apply(u) == v
        for w in o.fixed_span:
            assert pi.apply(w) == w


def test_check_dichotomy_examples():
    assert permlab.check_dichotomy({0}, frozenset(), 3).classification \
        == "subset-of-span"
    assert permlab.check_dichotomy(set(range(1, 8)), frozenset(), 3) \
        .classification == "complement-subset-of-span"
    result = permlab.check_dichotomy({1}, frozenset(), 2)
    assert result.classification == "not-invariant"
    assert result.moved == (1, 2) and result.witness.apply(1) == 2


def test_check_dichotomy_exhaustive_d2():
    for esize in range(3):
        for combo in combinations(range(4), esize):
            fixed = frozenset(combo)
            orbits = permlab.stabilizer_orbits(fixed, 2)
            for mask in range(16):
                b = frozenset(v for v in range(4) if mask >> v & 1)
                result = permlab.check_dichotomy(b, fixed, 2, orbits=orbits)
                if is_orbit_union(orbits, b):
                    assert result.invariant
                    assert (b <= orbits.fixed_span
                            or frozenset(range(4)) - b <= orbits.fixed_span)
                else:
                    assert result.classification == "not-invariant"
                    assert result.witness.apply_set(b) != b


def brute_dichotomy(b, fixed, dim):
    """Oracle on frozensets: the classification and the expected moved
    pair (least moved member, least free target)."""
    fixed_span = span(fixed, dim).members
    complement = frozenset(range(1 << dim)) - fixed_span
    inter = b & complement
    if not inter:
        return "subset-of-span", None
    if inter == complement:
        return "complement-subset-of-span", None
    return "not-invariant", (min(inter), min(complement - b))


def assert_matches_oracle(b, fixed, dim, orbits):
    result = permlab.check_dichotomy(b, fixed, dim, orbits=orbits)
    classification, moved = brute_dichotomy(b, fixed, dim)
    assert (result.classification, result.moved) == (classification, moved)
    if moved is None:
        assert result.invariant and result.witness is None
    else:
        assert not result.invariant
        assert result.witness.apply_set(b) != b
        assert result.witness.apply(moved[0]) == moved[1]
        assert all(result.witness.apply(w) == w for w in orbits.fixed_span)


def test_check_dichotomy_matches_oracle_d3():
    # every fixed set of at most 2 vectors, every subset
    for esize in range(3):
        for combo in combinations(range(8), esize):
            fixed = frozenset(combo)
            orbits = permlab.stabilizer_orbits(fixed, 3)
            for mask in range(256):
                b = frozenset(v for v in range(8) if mask >> v & 1)
                assert_matches_oracle(b, fixed, 3, orbits)


def _seeded_sets(rng, dim, fixed_span, count):
    """Sparse, dense, inside-the-span and complement-containing sets."""
    size = 1 << dim
    complement = frozenset(range(size)) - fixed_span
    span_list = sorted(fixed_span)
    for _ in range(count):
        yield frozenset(rng.sample(range(size), rng.randrange(1, 6)))
        yield frozenset(v for v in range(size) if rng.random() < 0.5)
        part = frozenset(rng.sample(span_list, rng.randrange(len(span_list))))
        yield part
        yield complement | part
        yield (complement - {rng.choice(sorted(complement))}) | part


@pytest.mark.parametrize("dim,fixed", [
    (5, ()), (5, (3,)), (5, (1, 6)), (5, (0, 31)),
    (9, ()), (9, (5,)), (9, (17, 300)), (9, (1, 2, 4)),
])
def test_check_dichotomy_matches_oracle_seeded(dim, fixed):
    # at d=9 a mask has 512 bits
    rng = random.Random(dim * 1000 + sum(fixed))
    fixed = frozenset(fixed)
    orbits = permlab.stabilizer_orbits(fixed, dim)
    for b in _seeded_sets(rng, dim, orbits.fixed_span, 40):
        assert_matches_oracle(b, fixed, dim, orbits)


@pytest.mark.parametrize("dim", range(1, 11))
def test_mask_witness_moves_the_whole_set(dim):
    # `check_dichotomy_mask` computes no image; here each moved mask's
    # full image under its witness is built and compared with the mask.
    # At d = 1 the complement of the span is one point, so nothing moves
    rng = random.Random(dim)
    size = 1 << dim
    orbits = permlab.stabilizer_orbits(rng.sample(range(size), dim // 3),
                                       dim)
    masks = [rng.getrandbits(size) & rng.getrandbits(size)
             for _ in range(30)] + [0, (1 << size) - 1]
    moved = 0
    for mask in masks:
        result = permlab.check_dichotomy_mask(mask, orbits)
        if result.invariant:
            assert result.witness is None
            continue
        moved += 1
        u, v = result.moved
        assert mask >> u & 1 and not mask >> v & 1
        assert result is orbits.moves[u, v]
        pi = result.witness
        image = sum(1 << pi.apply(x) for x in gf2core.mask_points(mask))
        assert image != mask and image >> v & 1
        assert all(pi.apply(w) == w for w in orbits.fixed_span)
    assert (moved > 0) == (dim > 1)


@pytest.mark.parametrize("dim,fixed", [(2, ()), (4, (3,)), (7, (1, 6))])
def test_mask_entry_returns_the_set_entry_results(dim, fixed):
    rng = random.Random(dim)
    size = 1 << dim
    orbits = permlab.stabilizer_orbits(fixed, dim)
    masks = [rng.getrandbits(size) for _ in range(40)]
    for mask in masks + [0, (1 << size) - 1]:
        b = frozenset(x for x in range(size) if mask >> x & 1)
        assert (permlab.check_dichotomy_mask(mask, orbits)
                is permlab.check_dichotomy(b, fixed, dim, orbits=orbits))


@pytest.mark.parametrize("dim", [1, 2, 4, 9])
def test_check_dichotomy_mask_rejects_out_of_range(dim):
    orbits = permlab.stabilizer_orbits(frozenset(), dim)
    for bad in (-1, 1 << (1 << dim)):
        with pytest.raises(ValueError,
                           match=f"mask out of range for dim {dim}"):
            permlab.check_dichotomy_mask(bad, orbits)
    full = (1 << (1 << dim)) - 1
    assert permlab.check_dichotomy_mask(full, orbits).invariant


@pytest.mark.parametrize("dim", range(1, 7))
def test_complement_mask_matches_complement(dim):
    # fixed sets of every rank, moved off the standard basis, with and
    # without a dependent vector
    rng = random.Random(dim)
    for rank in range(dim + 1):
        pi = gf2core.random_invertible(dim, rng)
        basis = [pi.apply(1 << i) for i in range(rank)]
        for fixed in (basis, basis + [basis[0] ^ basis[-1]] if basis else []):
            orbits = permlab.stabilizer_orbits(fixed, dim)
            assert len(orbits.fixed_span) == 1 << rank
            complement = [v for v in range(1 << dim)
                          if v not in orbits.fixed_span]
            assert orbits.complement_mask == sum(1 << v for v in complement)
            assert gf2core.mask_points(orbits.complement_mask) == complement


@pytest.mark.parametrize("bad", [8, -1, 1 << 20])
def test_check_dichotomy_rejects_out_of_range(bad):
    orbits = permlab.stabilizer_orbits({1}, 3)
    message = f"vector {bad} out of range for dim 3"
    for given in (orbits, None):
        with pytest.raises(ValueError) as info:
            permlab.check_dichotomy([2, bad, 5], {1}, 3, orbits=given)
        assert str(info.value) == message


def test_check_dichotomy_ors_repeated_members():
    # a sum of the members' bits would read [2, 2] as the vector 3
    orbits = permlab.stabilizer_orbits({1}, 3)
    for given, same in (([2, 2], {2}), (iter([5, 2, 5, 5]), {2, 5}),
                        ([7, 0, 7], {0, 7})):
        assert (permlab.check_dichotomy(given, {1}, 3, orbits=orbits)
                is permlab.check_dichotomy(same, {1}, 3, orbits=orbits))
    with pytest.raises(ValueError, match="^vector 8 out of range for dim 3$"):
        permlab.check_dichotomy([2, 2, 8, 5], {1}, 3, orbits=orbits)


def _watch_bits(monkeypatch):
    """Check at every new entry of any `Memo` that it holds at most its
    cap; the returned list holds the memo of each entry stored."""
    stored = []
    missing = gf2core.Memo.__missing__

    def watched(self, key):
        value = missing(self, key)
        stored.append(self)
        assert len(self) <= self.cap
        return value

    monkeypatch.setattr(gf2core.Memo, "__missing__", watched)
    return stored


def test_full_tables_are_emptied(monkeypatch):
    rng = random.Random(8)
    fixed = frozenset({1, 6})
    sets = list(_seeded_sets(rng, 5, span(fixed, 5).members, 20))
    uncapped = permlab.stabilizer_orbits(fixed, 5)
    expected = [permlab.check_dichotomy(b, fixed, 5, orbits=uncapped)
                for b in sets]
    monkeypatch.setattr(permlab, "MAX_TABLE_BITS", 10 << 5)
    stored = _watch_bits(monkeypatch)
    capped = permlab.stabilizer_orbits(fixed, 5)
    assert capped.bits.cap == 10
    got = [permlab.check_dichotomy(b, fixed, 5, orbits=capped) for b in sets]
    assert [(r.classification, r.moved, r.witness) for r in got] \
        == [(r.classification, r.moved, r.witness) for r in expected]
    assert sum(m is capped.bits for m in stored) > 10 and 0 < len(capped.bits) <= 10


def test_tables_stay_within_the_cap_at_dim_16(monkeypatch):
    stored = _watch_bits(monkeypatch)
    rng = random.Random(16)
    b = frozenset(rng.sample(range(1 << 16), 4096))
    fixed = frozenset({1, 6})
    orbits = permlab.stabilizer_orbits(fixed, 16)
    result = permlab.check_dichotomy(b, fixed, 16, orbits=orbits)
    assert (result.classification, result.moved) \
        == brute_dichotomy(b, fixed, 16)
    # the set's 4,096 bits alone pass the 256 entries the cap allows
    assert orbits.bits.cap == permlab.MAX_TABLE_BITS >> 16 == 256
    assert sum(m is orbits.bits for m in stored) == 4096
    assert 0 < len(orbits.bits) <= 256


def test_check_dichotomy_shares_results_per_witness_pair():
    orbits = permlab.stabilizer_orbits({1}, 4)
    # both sets contain 2 and miss 3: the same moved pair (2, 3)
    first = permlab.check_dichotomy({0, 2}, {1}, 4, orbits=orbits)
    second = permlab.check_dichotomy([2, 4, 5, 6], {1}, 4, orbits=orbits)
    assert first.moved == second.moved == (2, 3)
    assert first == second and first is second
    assert permlab.check_dichotomy(iter([2, 0]), {1}, 4, orbits=orbits) \
        == first


def test_check_dichotomy_rejects_a_witness_that_does_not_move(monkeypatch):
    orbits = permlab.stabilizer_orbits({1}, 4)
    monkeypatch.setattr(permlab, "fixing_linear_map",
                        lambda fixed, u, v, dim: LinearMap.identity(4))
    with pytest.raises(IntermediateAssertFailed):
        permlab.check_dichotomy({0, 2}, {1}, 4, orbits=orbits)


def test_used_partition_is_freed_without_gc():
    # the moves table's builder holds no reference to its partition
    enabled = gc.isenabled()
    gc.disable()
    try:
        orbits = permlab.stabilizer_orbits({1}, 4)
        result = permlab.check_dichotomy({0, 2}, {1}, 4, orbits=orbits)
        assert result.moved == (2, 3) and orbits.moves[2, 3] is result
        ref = weakref.ref(orbits)
        del orbits
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_check_dichotomy_without_orbits_matches_given():
    rng = random.Random(4)
    for dim, fixed in ((3, frozenset()), (4, frozenset({3})),
                       (5, frozenset({1, 6}))):
        orbits = permlab.stabilizer_orbits(fixed, dim)
        for b in _seeded_sets(rng, dim, orbits.fixed_span, 5):
            assert (permlab.check_dichotomy(b, fixed, dim)
                    == permlab.check_dichotomy(b, fixed, dim, orbits=orbits))


def test_random_invertible_is_seeded():
    a = gf2core.random_invertible(4, random.Random(9))
    b = gf2core.random_invertible(4, random.Random(9))
    assert a == b and a.invertible


def test_equivariance_linear():
    report = permlab.check_equivariance(dualdd.LinearSurjection(2),
                                        exhaustive_max_size=3)
    assert report.ok and report.trials == 6 * 15
    report = permlab.check_equivariance(dualdd.LinearSurjection(3),
                                        trials=300, seed=17)
    assert report.ok
    # identical seeds reproduce identical reports
    again = permlab.check_equivariance(dualdd.LinearSurjection(3),
                                       trials=300, seed=17)
    assert report == again


def test_equivariance_general_measured():
    inst = dualdd.GeneralSurjection.build(pg.linear_operator(3))
    report = permlab.check_equivariance(inst, 200, seed=3)
    assert report.trials == 200 and report.failures == 0
    aff = dualdd.GeneralSurjection.build(pg.affine_operator(3))
    report = permlab.check_equivariance(aff, 200, seed=3)
    assert report.failures == 0


@pytest.mark.parametrize("maker", [pg.linear_operator, pg.affine_operator])
def test_equivariance_general_exhaustive(maker):
    # GL(4, 2) through its two generators, against every subset of the
    # 16 points
    inst = dualdd.GeneralSurjection.build(maker(4))
    report = permlab.check_equivariance(inst, exhaustive_max_size=16)
    assert report.trials == 20_160 * 65_536 and report.failures == 0
    assert report.params == {"kind": inst.op.kind, "dim": 4,
                             "exhaustive_max_size": 16}


# surjections that commute with only part of GL(d, 2) for d > 1: adjoining
# the point 1 commutes with the maps fixing e0, the transvection among
# them, and adjoining the basis with the coordinate permutations
ADJOINED = {"clean": None, "adjoin-1": lambda dim: {1},
            "adjoin-basis": lambda dim: {1 << i for i in range(dim)}}


@pytest.mark.parametrize("broken", ADJOINED)
@pytest.mark.parametrize("maker,dim", [
    (None, 1), (None, 2), (None, 3),
    (pg.linear_operator, 2), (pg.linear_operator, 3),
    (pg.affine_operator, 2), (pg.affine_operator, 3)])
def test_generator_mode_matches_the_listed_group(monkeypatch, maker, dim,
                                                 broken):
    # every listed map against every set is the reference the generator
    # mode stands in for
    construction = (dualdd.LinearSurjection(dim) if maker is None
                    else dualdd.GeneralSurjection.build(maker(dim)))
    if ADJOINED[broken]:
        extra = ADJOINED[broken](dim)
        monkeypatch.setattr(type(construction), "surject",
                            lambda self, subset: frozenset(subset) | extra)

    # the family is every set, so every g S is in it too
    family = [frozenset(c) for size in range((1 << dim) + 1)
              for c in combinations(range(1 << dim), size)]
    image = {s: construction.surject(s) for s in family}

    def commutes(m, s):
        return image[m.apply_set(s)] == m.apply_set(image[s])

    maps = gl_listing(dim)
    listed = all(commutes(m, s) for s in family for m in maps)
    assert listed == (broken == "clean" or dim == 1)
    report = permlab.check_equivariance(construction,
                                        exhaustive_max_size=1 << dim)
    assert report.ok == listed
    assert report.trials == len(maps) * len(family)
    # failures count the (generator, set) cases run
    assert report.failures == sum(not commutes(g, s) for s in family
                                  for g in gf2core.gl_generators(dim))


def test_stabilizer_orbits_builds_no_moving_map(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[1:3])
        return gf2core.fixing_linear_map(*args)

    monkeypatch.setattr(permlab, "fixing_linear_map", counting)
    orbits = permlab.stabilizer_orbits({1}, 12)
    assert calls == []
    # a dichotomy builds one map per moved pair, shared by later sets
    permlab.check_dichotomy({0, 2}, {1}, 12, orbits=orbits)
    permlab.check_dichotomy({2, 5}, {1}, 12, orbits=orbits)
    assert calls == [(2, 3)]


def test_orbit_partition_capped_before_allocating(monkeypatch):
    def no_span(*args):
        raise AssertionError("span built past the cap")

    monkeypatch.setattr(permlab, "span", no_span)
    with pytest.raises(ValueError, match="limited to dim <= 20"):
        permlab.stabilizer_orbits(frozenset(), 21)
    with pytest.raises(ValueError, match="limited to dim <= 20"):
        permlab.check_dichotomy({1}, frozenset(), 24)


def test_equivariance_rejects_bad_requests():
    linear = dualdd.LinearSurjection(3)
    general = dualdd.GeneralSurjection.build(pg.linear_operator(3))
    for construction, kwargs in (
            (linear, {"trials": -5}),
            (general, {"trials": -2}),
            (linear, {"exhaustive_max_size": -1}),
            (general, {"exhaustive_max_size": -1}),
            # past the exhaustive cap of 2^20 sets: all 2^32 sets
            (dualdd.GeneralSurjection.build(pg.affine_operator(5)),
             {"exhaustive_max_size": 32}),
            (dualdd.LinearSurjection(11), {"trials": 1})):
        with pytest.raises(ValueError):
            permlab.check_equivariance(construction, **kwargs)


def test_equivariance_cap_fires_before_any_surjection(monkeypatch):
    def refuse(self, subset):
        raise AssertionError("surjected a set")

    for cls in (dualdd.LinearSurjection, dualdd.GeneralSurjection):
        monkeypatch.setattr(cls, "surject", refuse)
    # 178,957,825 and 2^32 sets
    for construction, size in (
            (dualdd.LinearSurjection(10), 3),
            (dualdd.GeneralSurjection.build(pg.affine_operator(5)), 32)):
        with pytest.raises(ValueError, match="limited to 1048576 sets"):
            permlab.check_equivariance(construction,
                                       exhaustive_max_size=size)
    # 524,801 sets are under the cap, so this one reaches the surjection
    with pytest.raises(AssertionError, match="surjected a set"):
        permlab.check_equivariance(dualdd.LinearSurjection(10),
                                   exhaustive_max_size=2)


def _non_equivariant(monkeypatch, cls):
    # adjoining the fixed point 1 commutes only with maps fixing 1
    monkeypatch.setattr(cls, "surject",
                        lambda self, subset: frozenset(subset) | {1})


@pytest.mark.parametrize("make,kwargs", [
    (lambda: dualdd.LinearSurjection(3), {"trials": 60, "seed": 2}),
    (lambda: dualdd.LinearSurjection(2), {"exhaustive_max_size": 2}),
    (lambda: dualdd.GeneralSurjection.build(pg.affine_operator(3)),
     {"trials": 60, "seed": 2}),
    (lambda: dualdd.GeneralSurjection.build(pg.linear_operator(2)),
     {"exhaustive_max_size": 2}),
], ids=["linear-random", "linear-exhaustive", "general-affine",
        "general-exhaustive"])
def test_equivariance_failure_entries(monkeypatch, make, kwargs):
    construction = make()
    _non_equivariant(monkeypatch, type(construction))
    report = permlab.check_equivariance(construction, **kwargs)
    assert report.failures > 0 and not report.ok
    assert len(report.witnesses) == min(report.failures, 20)
    points = 1 << construction.dim
    trials = [entry["trial"] for entry in report.witnesses]
    assert trials == sorted(set(trials)) and trials[-1] < report.trials
    for entry in report.to_json()["witnesses"]:
        assert set(entry) == {"trial", "set", "map"}
        pi, s = entry["map"], entry["set"]
        assert sorted(pi) == list(range(points))
        assert s == sorted(set(s)) and all(0 <= x < points for x in s)
        # the entry reproduces the failure
        assert (construction.surject(frozenset(pi[x] for x in s))
                != frozenset(pi[x] for x in construction.surject(s)))
