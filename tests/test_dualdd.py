"""The subset surjections, their preimages, and collision witnesses."""

import random
from itertools import combinations, islice

import pytest

from ddlab import _kernels, dualdd, gf2core
from ddlab import pregeometry as pg
from ddlab._kernels import _pure
from ddlab.errors import (
    DegenerateGeometry,
    DimensionExhausted,
    GroundExhausted,
)


def oracle_strip_max_subspaces(s, dim):
    """Independent evaluation of the zero-branch via full enumeration."""
    inside = [w.members for w in gf2core.enumerate_subspaces(dim)
              if w.members <= s]
    top = max(len(w) for w in inside)
    union = frozenset().union(*(w for w in inside if len(w) == top))
    return frozenset(s) - union


def test_surject_linear_examples():
    assert dualdd.surject_linear({0}, 1) == frozenset()
    assert dualdd.surject_linear({1}, 3) == {0, 1}
    # maximal subspaces inside {0,1,2} are the lines {0,1} and {0,2}
    assert dualdd.surject_linear({0, 1, 2}, 2) == frozenset()
    assert dualdd.surject_linear(set(), 2) == {0}


def test_surject_linear_matches_enumeration_oracle():
    for dim in (2, 3):
        for mask in range(1 << (1 << dim)):
            s = frozenset(v for v in range(1 << dim) if mask >> v & 1)
            if 0 not in s:
                continue
            assert dualdd.surject_linear(s, dim) \
                == oracle_strip_max_subspaces(s, dim)


def test_preimage_linear_examples():
    trace = dualdd.preimage_linear_trace({1}, 3)
    assert trace.picked == (2, 4)
    assert trace.source == {0, 1, 2, 4, 6}
    assert dualdd.surject_linear(trace.source, 3) == {1}

    assert dualdd.preimage_linear_trace({0, 3}, 2).source == {3}

    with pytest.raises(DimensionExhausted):
        dualdd.preimage_linear_trace({1, 2}, 3)


def test_preimage_linear_cardinality_identity():
    for dim, max_t in ((4, 1), (5, 2)):
        nonzero = range(1, 1 << dim)
        for size in range(max_t + 1):
            for combo in combinations(nonzero, size):
                trace = dualdd.preimage_linear_trace(frozenset(combo), dim)
                assert trace.cardinality_identity
                assert len(trace.spanned) == 1 << (size + 1)


def test_minimal_nondegenerate_sizes():
    assert len(dualdd.minimal_nondegenerate_set(pg.linear_operator(3))) == 2
    assert len(dualdd.minimal_nondegenerate_set(pg.affine_operator(3))) == 3
    with pytest.raises(DegenerateGeometry):
        dualdd.minimal_nondegenerate_set(pg.identity_operator(5))
    with pytest.raises(DegenerateGeometry):
        dualdd.minimal_nondegenerate_set(
            pg.degenerate_operator([[0, 1], [2, 3]]))


def test_general_instance_layout():
    inst = dualdd.GeneralSurjection.build(pg.linear_operator(4))
    assert inst.anchor == frozenset()
    assert inst.anchor_closure == {0}
    # all 67 subspaces contain cl(empty)
    assert len([w for w in inst.op.closed_sets_upto(16)
                if inst.anchor <= w]) == 67

    aff = dualdd.GeneralSurjection.build(pg.affine_operator(4))
    assert len(aff.witness) == 3 and len(aff.anchor) == 1
    over = [w for w in aff.op.closed_sets_upto(16) if aff.anchor <= w]
    assert len(over) == 67
    for w in over:
        assert aff.op.cl(w) == w and aff.anchor_closure <= w


def test_surject_general_cases():
    inst = dualdd.GeneralSurjection.build(pg.linear_operator(4))
    # the deleted-zero side of a line collapses to empty
    assert dualdd.surject_general(inst, {1}) == frozenset()
    # sets meeting cl(anchor) pass through unchanged
    assert dualdd.surject_general(inst, {0, 1}) == {0, 1}
    assert dualdd.surject_general(inst, {0, 3}) == {0, 3}
    over = [w for w in inst.op.closed_sets_upto(16) if inst.anchor <= w]
    for w in over:
        assert dualdd.surject_general(inst, w - inst.anchor_closure) \
            == frozenset()
    # GF(2)^7 holds 29,212 subspaces, past the budget of a generic
    # closed-set search
    for maker in (pg.linear_operator, pg.affine_operator):
        whole = dualdd.GeneralSurjection.build(maker(7))
        assert dualdd.surject_general(whole, range(1, 128)) == frozenset()


def test_surject_general_specializes_to_linear():
    # zero-free sets: strip the union of maximal subspaces W with
    # W - {0} inside the set, computed independently by enumeration
    inst = dualdd.GeneralSurjection.build(pg.linear_operator(3))
    subs = [w.members for w in gf2core.enumerate_subspaces(3)]
    nonzero = range(1, 8)
    for size in range(5):
        for combo in combinations(nonzero, size):
            s = frozenset(combo)
            inside = [w for w in subs if w - {0} <= s]
            top = max(len(w) for w in inside)
            union = frozenset().union(
                *(w for w in inside if len(w) == top))
            assert dualdd.surject_general(inst, s) == s - union


try:
    _compiled, _ = _kernels._load_compiled()
except _kernels._BuildUnavailable:
    _compiled = None
UNION_KERNELS = [_pure] + ([_compiled] if _compiled else [])


def zero_free_sets(dim):
    """Every subset of the nonzero vectors at dim <= 3, else 2,000 seeded
    ones."""
    size = (1 << dim) - 1
    if dim <= 3:
        masks = range(1 << size)
    else:
        rng = random.Random(dim)
        masks = [rng.getrandbits(size) for _ in range(2000)]
    return [frozenset(v for v in range(1, size + 1) if mask >> (v - 1) & 1)
            for mask in masks]


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_surject_general_matches_the_closed_set_search(dim, monkeypatch):
    # the definition, from the generic search: the largest closed sets
    # over the anchor inside s u cl(anchor), by size, union and count
    instances = [dualdd.GeneralSurjection.build(maker(dim))
                 for maker in (pg.linear_operator, pg.affine_operator)]
    families = [tuple(w for w in inst.op.closed_sets_upto(len(inst.op.ground))
                      if inst.anchor <= w)
                for inst in instances]
    cases = []
    for s in zero_free_sets(dim):
        want = []
        for every in families:
            family = [w for w in every if w <= s | {0}]  # (size, points)
            top = [w for w in family if len(w) == len(family[-1])]
            want.append((len(top[0]), frozenset().union(*top), len(top)))
        cases.append((s, want))
    answers = []
    for kernel in UNION_KERNELS:
        def union_of_max_subspaces(members, kernel=kernel):
            answers.append(kernel.union_of_max_subspaces(members))
            return answers[-1]

        # the one kernel call each surjection makes, seen as it is made
        monkeypatch.setattr(dualdd._kernels, "union_of_max_subspaces",
                            union_of_max_subspaces)
        for s, want in cases:
            linear = dualdd.surject_linear(s | {0}, dim)
            for inst, (size, union, count) in zip(instances, want):
                assert dualdd.surject_general(inst, s) == s - union == linear
                card, got = answers[-1]
                assert (card, got) == (size, tuple(sorted(union)))
                # the preimage's uniqueness test
                assert (card == len(got)) == (count == 1)


def test_general_instance_needs_linear_or_affine_and_zero_closure():
    ident = pg.identity_operator(4)
    with pytest.raises(ValueError, match="linear or affine operator"):
        dualdd.GeneralSurjection(ident, frozenset({1, 2}), frozenset())
    aff = pg.affine_operator(3)
    for anchor in (frozenset(), frozenset({1}), frozenset({0, 1})):
        with pytest.raises(ValueError, match="anchor whose closure is"):
            dualdd.GeneralSurjection(aff, anchor | {5, 6}, anchor)
    lin = pg.linear_operator(3)
    with pytest.raises(ValueError, match="anchor whose closure is"):
        dualdd.GeneralSurjection(lin, frozenset({1, 2, 4}), frozenset({1}))
    # every build result passes
    for maker in (pg.linear_operator, pg.affine_operator):
        for dim in range(2, 8):
            inst = dualdd.GeneralSurjection.build(maker(dim))
            assert inst.anchor_closure == {0}


def test_preimage_general_linear_and_affine():
    inst = dualdd.GeneralSurjection.build(pg.linear_operator(4))
    trace = dualdd.preimage_general_trace(inst, {1})
    assert trace.intersection_ok and trace.unique_max_ok
    assert dualdd.surject_general(inst, trace.source) == {1}
    assert dualdd.preimage_general_trace(inst, {0}).source == {0}

    aff = dualdd.GeneralSurjection.build(pg.affine_operator(4))
    outside = sorted(aff.op.ground - aff.anchor_closure)
    target = frozenset([outside[0]])
    trace = dualdd.preimage_general_trace(aff, target)
    assert trace.intersection_ok and trace.unique_max_ok
    assert dualdd.surject_general(aff, trace.source) == target


def test_preimage_general_ground_exhausted():
    inst = dualdd.GeneralSurjection.build(pg.linear_operator(3))
    with pytest.raises(GroundExhausted):
        dualdd.preimage_general_trace(inst, {1, 2, 4})


def closure_construction(inst, target):
    """The pregeometry construction read off the operator's closure:
    (picked, source, closure_u), or the GroundExhausted text."""
    op = inst.op
    if target & inst.anchor_closure:
        return (), target, frozenset()
    picked = []
    for _ in range(len(target) + 1):
        reachable = op.cl(inst.anchor | target | frozenset(picked))
        outside = [x for x in sorted(op.ground) if x not in reachable]
        if not outside:
            return (f"no point independent over the anchor, target, and "
                    f"{len(picked)} picks")
        picked.append(outside[0])
    closure_u = op.cl(inst.anchor | frozenset(picked))
    return (tuple(picked), target | (closure_u - inst.anchor_closure),
            closure_u)


def general_targets(dim):
    """Every subset of the ground at dim <= 3, else 2,000 seeded ones of
    at most dim points."""
    points = 1 << dim
    if dim <= 3:
        return [frozenset(v for v in range(points) if mask >> v & 1)
                for mask in range(1 << points)]
    rng = random.Random(100 + dim)
    return [frozenset(rng.sample(range(points), rng.randint(0, dim)))
            for _ in range(2000)]


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_preimage_general_matches_the_closure_construction(dim,
                                                           monkeypatch):
    instances = [dualdd.GeneralSurjection.build(maker(dim))
                 for maker in (pg.linear_operator, pg.affine_operator)]
    targets = general_targets(dim)
    wants = [[closure_construction(inst, t) for t in targets]
             for inst in instances]

    def no_closure(self, subset):
        raise AssertionError("closure called after build")

    monkeypatch.setattr(pg.ClosureOperator, "cl", no_closure)
    kinds = set()
    for inst, want in zip(instances, wants):
        for t, expected in zip(targets, want):
            dualdd.surject_general(inst, t)
            if isinstance(expected, str):
                with pytest.raises(GroundExhausted) as info:
                    dualdd.preimage_general_trace(inst, t)
                assert str(info.value) == expected
                kinds.add("inadmissible")
                continue
            trace = dualdd.preimage_general_trace(inst, t)
            assert (trace.picked, trace.source, trace.closure_u) == expected
            assert trace.image == t
            kinds.add("identity" if 0 in t else "picked")
    assert kinds == {"inadmissible", "identity", "picked"}


def test_collision_pairs_linear():
    assert dualdd.collision_pairs(dualdd.LinearSurjection(2), 1) \
        == [(frozenset({0}), frozenset({0, 1}))]
    pairs = dualdd.collision_pairs(dualdd.LinearSurjection(1), 2)
    assert pairs == [(frozenset({0}), frozenset({0, 1})),
                     (frozenset({0, 1}), frozenset({0}))]
    for first, second in dualdd.collision_pairs(
            dualdd.LinearSurjection(3), 10):
        assert first != second
        assert dualdd.surject_linear(first, 3) \
            == dualdd.surject_linear(second, 3)


def general_pool_reference(inst):
    """The collision pool from the definition: every closed set over the
    anchor, by the generic search, less cl(anchor) and less the empty
    set."""
    family = inst.op.closed_sets_upto(len(inst.op.ground))
    diffs = {w - inst.anchor_closure for w in family
             if inst.anchor_closure <= w} - {frozenset()}
    return sorted(diffs, key=lambda s: (len(s), sorted(s)))


def test_collision_pool_prefixes_match_the_full_pool():
    for op in (pg.linear_operator(4), pg.affine_operator(3),
               pg.affine_operator(4)):
        inst = dualdd.GeneralSurjection.build(op)
        full = general_pool_reference(inst)
        for n in range(len(full) + 2):
            assert list(islice(inst.collision_pool(), n)) == full[:n]


def test_collision_pool_closes_no_set(monkeypatch):
    # after `build` the pool reads the subspace enumeration, not op.cl
    def refuse(subset):
        raise AssertionError("the collision pool closed a set")

    for op in (pg.linear_operator(4), pg.affine_operator(4)):
        inst = dualdd.GeneralSurjection.build(op)
        full = general_pool_reference(inst)
        monkeypatch.setattr(inst.op, "cl", refuse)
        assert list(inst.collision_pool()) == full


def test_collision_pairs_general():
    inst = dualdd.GeneralSurjection.build(pg.linear_operator(3))
    pairs = dualdd.collision_pairs(inst, 1)
    assert pairs == [(frozenset({1}), frozenset({2}))]
    for first, second in dualdd.collision_pairs(inst, 6):
        assert dualdd.surject_general(inst, first) \
            == dualdd.surject_general(inst, second)
