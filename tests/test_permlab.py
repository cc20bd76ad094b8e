"""Orbit structure, the invariant-set dichotomy, and equivariance runs."""

import random
from itertools import combinations

import pytest

from ddlab import dualdd, permlab
from ddlab import pregeometry as pg
from ddlab.errors import IntermediateAssertFailed
from ddlab.gf2core import LinearMap, span


def brute_orbits(fixed, dim):
    """Oracle: union-find over every invertible map fixing the span."""
    fixed_span = span(fixed, dim).members
    stabilizer = [m for m in permlab.all_invertible(dim)
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
    assert len(o.witnesses) == len(ordered) - 1
    for (u, v), pi in zip(zip(ordered, ordered[1:]), o.witnesses):
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
                if orbits.is_orbit_union(b):
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
    assert len(permlab.all_invertible(1)) == 1
    assert len(permlab.all_invertible(2)) == 6
    assert len(permlab.all_invertible(3)) == 168


def test_random_invertible_is_seeded():
    a = permlab.random_invertible(4, random.Random(9))
    b = permlab.random_invertible(4, random.Random(9))
    assert a == b and a.invertible


def test_equivariance_linear():
    report = permlab.check_equivariance_linear(2, exhaustive_max_size=3)
    assert report.ok and report.trials == 6 * 15
    report = permlab.check_equivariance_linear(3, trials=300, seed=17)
    assert report.ok
    # identical seeds reproduce identical reports
    again = permlab.check_equivariance_linear(3, trials=300, seed=17)
    assert report == again


def test_equivariance_general_measured():
    inst = dualdd.GeneralSurjection.build(pg.linear_operator(3))
    report = permlab.check_equivariance_general(inst, 200, seed=3)
    assert report.trials == 200 and report.failures == 0
    aff = dualdd.GeneralSurjection.build(pg.affine_operator(3))
    report = permlab.check_equivariance_general(aff, 200, seed=3)
    assert report.failures == 0
