"""Orbit structure, the invariant-set dichotomy, and equivariance runs."""

import random
from itertools import combinations

import pytest

from ddlab import dualdd, gf2core, permlab
from ddlab import pregeometry as pg
from ddlab.errors import IntermediateAssertFailed
from ddlab.gf2core import LinearMap, span


def is_orbit_union(orbits, subset):
    """A set is a union of orbits when it meets the complement of the
    span in nothing or in all of it."""
    inter = subset & orbits.complement
    return not inter or inter == orbits.complement


def brute_orbits(fixed, dim):
    """Oracle: union-find over every invertible map fixing the span."""
    fixed_span = span(fixed, dim).members
    stabilizer = [m for m in gf2core.all_invertible(dim)
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
            assert list(got.blocks) == brute_orbits(frozenset(combo), dim)


def test_orbit_examples():
    o = permlab.stabilizer_orbits(frozenset(), 2)
    assert o.blocks == (frozenset({0}), frozenset({1, 2, 3}))
    o = permlab.stabilizer_orbits({1}, 2)
    assert o.blocks == (frozenset({0}), frozenset({1}), frozenset({2, 3}))
    o = permlab.stabilizer_orbits({1, 2}, 2)
    assert all(len(b) == 1 for b in o.blocks) and len(o.blocks) == 4


def test_orbit_witnesses_verified():
    o = permlab.stabilizer_orbits({1}, 4)
    ordered = sorted(o.complement)
    for u, v in zip(ordered, ordered[1:]):
        pi = o.moving_map(u, v)
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
    # at d=9 the witness image tables hold images past 255
    rng = random.Random(dim * 1000 + sum(fixed))
    fixed = frozenset(fixed)
    orbits = permlab.stabilizer_orbits(fixed, dim)
    for b in _seeded_sets(rng, dim, orbits.fixed_span, 40):
        assert_matches_oracle(b, fixed, dim, orbits)


@pytest.mark.parametrize("bad", [8, -1, 1 << 20])
def test_check_dichotomy_rejects_out_of_range(bad):
    orbits = permlab.stabilizer_orbits({1}, 3)
    message = f"vector {bad} out of range for dim 3"
    for given in (orbits, None):
        with pytest.raises(ValueError) as info:
            permlab.check_dichotomy([2, bad, 5], {1}, 3, orbits=given)
        assert str(info.value) == message


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
    monkeypatch.setattr(orbits, "moving_map",
                        lambda u, v: LinearMap.identity(4))
    with pytest.raises(IntermediateAssertFailed):
        permlab.check_dichotomy({0, 2}, {1}, 4, orbits=orbits)


def test_check_dichotomy_without_orbits_matches_given():
    rng = random.Random(4)
    for dim, fixed in ((3, frozenset()), (4, frozenset({3})),
                       (5, frozenset({1, 6}))):
        orbits = permlab.stabilizer_orbits(fixed, dim)
        for b in _seeded_sets(rng, dim, orbits.fixed_span, 5):
            assert (permlab.check_dichotomy(b, fixed, dim)
                    == permlab.check_dichotomy(b, fixed, dim, orbits=orbits))


def test_all_invertible_counts():
    # |GL(d, 2)| = prod (2^d - 2^i)
    assert len(gf2core.all_invertible(1)) == 1
    assert len(gf2core.all_invertible(2)) == 6
    assert len(gf2core.all_invertible(3)) == 168


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
            (general, {"exhaustive_max_size": 2}),
            (dualdd.LinearSurjection(11), {"trials": 1})):
        with pytest.raises(ValueError):
            permlab.check_equivariance(construction, **kwargs)


def _non_equivariant(monkeypatch, cls):
    # adjoining the fixed point 1 commutes only with maps fixing 1
    monkeypatch.setattr(cls, "surject",
                        lambda self, subset: frozenset(subset) | {1})


@pytest.mark.parametrize("make,kwargs", [
    (lambda: dualdd.LinearSurjection(3), {"trials": 60, "seed": 2}),
    (lambda: dualdd.LinearSurjection(2), {"exhaustive_max_size": 2}),
    (lambda: dualdd.GeneralSurjection.build(pg.affine_operator(3)),
     {"trials": 60, "seed": 2}),
], ids=["linear-random", "linear-exhaustive", "general-affine"])
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
