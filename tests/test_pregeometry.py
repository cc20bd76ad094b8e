"""Pregeometry instances and axiom checkers."""

import gc
import hashlib
import json
import random
import weakref
from itertools import combinations, islice, permutations

import pytest

from ddlab import pregeometry as pg
from ddlab.errors import (
    BudgetExceeded,
    NoIndependentSet,
    SearchBudgetExceeded,
)


def brute_affine_hull(points, dim):
    """Oracle: closure under all odd-cardinality XOR sums.

    Odd sums over multisets reduce to odd sums over plain subsets, so
    enumerating subset masks is exhaustive.
    """
    points = sorted(points)
    out = set()
    for mask in range(1, 1 << len(points)):
        if bin(mask).count("1") % 2 == 1:
            acc = 0
            for i, p in enumerate(points):
                if mask >> i & 1:
                    acc ^= p
            out.add(acc)
    return out


def test_linear_operator_basics():
    op = pg.linear_operator(3)
    assert op.cl(frozenset()) == {0}
    assert op.cl({1, 2}) == {0, 1, 2, 3}
    assert op.cl({0, 1}) == {0, 1}
    assert op.cl({1}) != {1}


def test_affine_operator_matches_odd_sum_oracle():
    import random

    op = pg.affine_operator(4)
    rng = random.Random(21)
    assert op.cl(frozenset()) == frozenset()
    for _ in range(60):
        pts = frozenset(rng.getrandbits(4) for _ in range(rng.randint(0, 5)))
        expect = brute_affine_hull(pts, 4) if pts else set()
        assert op.cl(pts) == expect
    # two points are affinely closed over GF(2)
    assert op.cl({3, 5}) == {3, 5}
    assert op.cl({1, 2, 4}) == {1, 2, 4, 7}


def test_degenerate_operator():
    op = pg.degenerate_operator([[0, 1], [2]])
    assert op.cl({0}) == {0, 1}
    assert op.cl({2}) == {2}
    assert op.cl(frozenset()) == frozenset()
    with pytest.raises(ValueError):
        pg.degenerate_operator([[0, 1], [1, 2]])
    with pytest.raises(ValueError):
        pg.degenerate_operator([[0], [2]])


def test_operator_makers_cap_the_ground():
    for maker in (pg.linear_operator, pg.affine_operator):
        for dim, message in ((0, "dim must be at least 1, got 0"),
                             (-1, "dim must be at least 1, got -1"),
                             (15, "a ground of 2^15 points is above the cap "
                                  "of 16384")):
            with pytest.raises(ValueError) as info:
                maker(dim)
            assert str(info.value) == message
    assert pg.linear_operator(14).size == pg.MAX_GROUND == 1 << 14
    assert pg.identity_operator(pg.MAX_GROUND).size == pg.MAX_GROUND
    for n in (-1, pg.MAX_GROUND + 1):
        with pytest.raises(ValueError):
            pg.identity_operator(n)
    with pytest.raises(ValueError):
        pg.degenerate_operator([range(pg.MAX_GROUND + 1)])


def test_degenerate_union_law_exhaustive():
    # closure of any non-empty set is the union of its pointwise closures,
    # over every subset of an 8-point ground set
    op = pg.degenerate_operator([[0, 1, 2], [3, 4], [5], [6, 7]])
    for mask in range(1, 1 << 8):
        s = frozenset(x for x in range(8) if mask >> x & 1)
        union = frozenset().union(*(op.cl({a}) for a in s))
        assert op.cl(s) == union


def test_closure_axioms_pass_on_real_geometries():
    assert pg.check_closure_axioms(pg.linear_operator(3), 3).status == "PASS"
    assert pg.check_closure_axioms(pg.identity_operator(5), 3).status == "PASS"
    assert pg.check_closure_axioms(pg.affine_operator(3), 3).status == "PASS"


def test_closure_axioms_catch_broken_operator():
    def drop_min(s):
        return frozenset(s - {min(s)}) if s else frozenset()

    broken = pg.ClosureOperator(range(4), "broken", drop_min)
    report = pg.check_closure_axioms(broken, 2)
    assert report.status == "FAIL"
    first = report.counterexamples[0]
    assert first["clause"] == "extensivity" and first["set"] == [0]


def test_exchange_passes_on_linear_and_affine():
    assert pg.check_exchange(pg.linear_operator(3), 2).status == "PASS"
    assert pg.check_exchange(pg.affine_operator(3), 2).status == "PASS"


def test_exchange_catches_initial_segment_operator():
    # cl(S) = {0..max(S)} is a closure operator without exchange
    def initial_segment(s):
        return frozenset(range(max(s) + 1)) if s else frozenset()

    broken = pg.ClosureOperator(range(4), "segment", initial_segment)
    assert pg.check_closure_axioms(broken, 2).status == "PASS"
    report = pg.check_exchange(broken, 2)
    assert report.status == "FAIL"
    first = report.counterexamples[0]
    assert first["set"] == [] and (first["a"], first["b"]) == (0, 1)


def test_local_homogeneity_bounded_pass():
    r = pg.check_local_homogeneity(pg.linear_operator(3), 4, 8)
    assert r.status == "BOUNDED-PASS"
    r = pg.check_local_homogeneity(pg.identity_operator(4), 3, 4)
    assert r.status == "BOUNDED-PASS"
    r = pg.check_local_homogeneity(pg.degenerate_operator([[0, 1], [2, 3]]),
                                   4, 4)
    assert r.status == "BOUNDED-PASS"


def test_local_homogeneity_fails_on_unequal_blocks():
    # moving a point of a 2-block onto a 1-block cannot preserve closures
    op = pg.degenerate_operator([[0, 1], [2]])
    r = pg.check_local_homogeneity(op, 3, 3)
    assert r.status == "FAIL"
    witness = r.counterexamples[0]
    assert witness["ambient"] == [0, 1, 2]


def test_local_homogeneity_tests_singletons_and_extensions():
    # cl({1}) = {0, 1}: swapping 0 and 1 keeps {0, 1} but sends the closed
    # {0} onto {1}, which is not closed
    cone = pg.ClosureOperator(range(2), "cone",
                              lambda s: s | {0} if 1 in s else s)
    r = pg.check_local_homogeneity(cone, 2, 2)
    assert r.status == "FAIL"
    assert [(c["a"], c["b"]) for c in r.counterexamples] == [(0, 1), (1, 0)]
    # closed sets: the empty set, the points, {0, 1}, {0, 2} and the whole
    # ground; swapping two points of a closed pair keeps that pair's closed
    # subsets but cannot extend to {0, 1, 2}
    closed = [set(), {0}, {1}, {2}, {0, 1}, {0, 2}, {0, 1, 2}]
    lopsided = pg.ClosureOperator(
        range(3), "lopsided",
        lambda s: frozenset(min((c for c in closed if s <= c), key=len)))
    assert pg.check_closure_axioms(lopsided, 3).status == "PASS"
    assert pg.check_local_homogeneity(lopsided, 2, 2).status == "BOUNDED-PASS"
    r = pg.check_local_homogeneity(lopsided, 2, 3)
    assert (r.status, r.checked) == ("FAIL", 4)
    assert [(c["ambient"], c["fixed"], c["a"], c["b"])
            for c in r.counterexamples] == [
        ([0, 1], [], 0, 1), ([0, 1], [], 1, 0),
        ([0, 2], [], 0, 2), ([0, 2], [], 2, 0)]


def family_operator(n, closed, kind):
    """The operator on range(n) whose closed sets are `closed` (a family
    closed under intersection that holds the ground): cl(S) is the least
    closed set containing S."""
    family = [frozenset(c) for c in closed]
    return pg.ClosureOperator(
        range(n), kind,
        lambda s: min((c for c in family if s <= c), key=len))


def test_local_homogeneity_tests_a_size_with_an_open_set():
    # every pair is closed, so no pair needs a test, but of the triples
    # only {0, 1, 2} is: swapping 0 and 3 extends to the ground only by
    # sending {0, 1, 2} onto {1, 2, 3}, which is not closed
    pairs = family_operator(
        4, [set(), *({x} for x in range(4)),
            *map(set, combinations(range(4), 2)), {0, 1, 2}, {0, 1, 2, 3}],
        "pairs")
    assert pg.check_closure_axioms(pairs, 4).status == "PASS"
    r = pg.check_local_homogeneity(pairs, 2, 3)
    assert (r.status, r.checked) == ("BOUNDED-PASS", 12)
    r = pg.check_local_homogeneity(pairs, 2, 4)
    assert (r.status, r.checked) == ("FAIL", 12)
    assert [(c["ambient"], c["fixed"], c["a"], c["b"])
            for c in r.counterexamples] == [
        ([0, 3], [], 0, 3), ([0, 3], [], 3, 0), ([1, 3], [], 1, 3),
        ([1, 3], [], 3, 1), ([2, 3], [], 2, 3), ([2, 3], [], 3, 2)]


def test_local_homogeneity_extension_tests_sets_across_t():
    # swapping the two points of T = {0, 2} keeps every closed set inside
    # T and extends to {0, 1, 2}, but every permutation of the ground
    # that extends it breaks {0, 1, 2} or {0, 1, 3}, closed sets that
    # hold points of T and of the ground outside T
    mixed = family_operator(
        4, [set(), {0}, {1}, {2}, {3}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2},
            {0, 1, 3}, {0, 1, 2, 3}], "mixed")
    assert pg.check_closure_axioms(mixed, 4).status == "PASS"
    r = pg.check_local_homogeneity(mixed, 2, 3)
    assert (r.status, r.checked) == ("BOUNDED-PASS", 6)
    r = pg.check_local_homogeneity(mixed, 2, 4)
    assert (r.status, r.checked) == ("FAIL", 6)
    assert [(c["ambient"], c["fixed"], c["a"], c["b"])
            for c in r.counterexamples] == [
        ([0, 2], [], 0, 2), ([0, 2], [], 2, 0),
        ([1, 2], [], 1, 2), ([1, 2], [], 2, 1)]


# (geometry, its parameter, max_closed, max_extension)
LH_CONFIGS = [
    ("linear", 3, 4, 8), ("linear", 4, 4, 8), ("linear", 5, 4, 8),
    ("affine", 3, 4, 8), ("affine", 4, 4, 8), ("affine", 4, 2, 8),
    ("linear", 3, 2, 4), ("degenerate", [[0, 1], [2, 3]], 2, 2),
    ("degenerate", [[0, 1], [2]], 2, 3), ("degenerate", [[0, 1], [2]], 3, 3),
    ("degenerate", [[0, 1, 2], [3, 4], [5]], 3, 6),
    ("degenerate", [[0, 1], [2, 3], [4, 5]], 4, 6),
    ("identity", 4, 3, 4), ("identity", 6, 3, 6), ("identity", 7, 2, 7),
]
# sha256 of the sorted-key JSON reports, one per line, as the checker
# wrote them before it ran on bitmasks
LH_SHA256 = "f6f76feaff53bc9f8e7313444bb6de6d2b96eae7805ca6683230487d35fed51d"
# the same, for T of 8 points, where a transposition is often no
# automorphism: GF(2)^3 inside GF(2)^4 and the affine 3-flats; recorded
# before the checker joined the orbits of the maps it finds
LH_SHA256_8 = \
    "53ea82072c7a845bac89f86c5280508073867114bdc17d6d021d54169eb53c64"


def test_local_homogeneity_reports_are_pinned():
    makers = {"linear": pg.linear_operator, "affine": pg.affine_operator,
              "degenerate": pg.degenerate_operator,
              "identity": pg.identity_operator}
    lines = [json.dumps(pg.check_local_homogeneity(
        makers[kind](param), t, u).to_json(), sort_keys=True)
        for kind, param, t, u in LH_CONFIGS]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LH_SHA256


def test_local_homogeneity_reports_are_pinned_at_8_points():
    lines = [json.dumps(pg.check_local_homogeneity(
        make(4), 8, 8).to_json(), sort_keys=True)
        for make in (pg.linear_operator, pg.affine_operator)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() \
        == LH_SHA256_8


def brute_local_homogeneity(closed, max_closed, max_extension):
    """Oracle: (status, checked, counterexamples) from the definition, over
    the closed sets `closed` of an operator, with every permutation of T
    and of U - T tried and every closed subset tested."""
    order = sorted(closed, key=lambda c: (len(c), sorted(c)))

    def preserves(perm, domain):
        return all(frozenset(map(perm.__getitem__, w)) in closed
                   for w in order if w <= domain)

    def extends(g, t, u):
        outside = sorted(u - t)
        return any(preserves({**g, **dict(zip(outside, rest))}, u)
                   for rest in permutations(outside))

    checked, bad = 0, []
    for t in order:
        if len(t) > max_closed:
            break
        points = sorted(t)
        supersets = [u for u in order if t < u and len(u) <= max_extension]
        maps = [g for g in (dict(zip(points, p)) for p in permutations(points))
                if preserves(g, t) and all(extends(g, t, u) for u in supersets)]
        for s in (s for s in order if s <= t):
            for a, b in permutations(sorted(t - s), 2):
                checked += 1
                if not any(g[a] == b and all(g[x] == x for x in s)
                           for g in maps):
                    bad.append({"fixed": sorted(s), "ambient": points,
                                "a": a, "b": b})
    return "FAIL" if bad else "BOUNDED-PASS", checked, bad[:50]


def test_local_homogeneity_matches_the_definition():
    rng = random.Random(20)
    passed = failed = 0
    for _ in range(300):
        n = rng.randint(3, 5)
        ground = frozenset(range(n))
        closed = {ground}
        p = rng.random() ** 0.5
        for mask in range(1 << n):
            if rng.random() < p:
                closed.add(frozenset(x for x in ground if mask >> x & 1))
        while True:  # close the family under intersection
            more = {a & b for a in closed for b in closed} - closed
            if not more:
                break
            closed |= more
        op = family_operator(n, closed, "family")
        max_closed = rng.randint(2, n)  # below 2, no pair to move
        max_extension = rng.randint(max_closed, n)
        r = pg.check_local_homogeneity(op, max_closed, max_extension)
        want = brute_local_homogeneity(closed, max_closed, max_extension)
        assert (r.status, r.checked, list(r.counterexamples)) == want
        passed += r.status == "BOUNDED-PASS" and r.checked > 0
        failed += r.status == "FAIL"
    assert (passed, failed) == (148, 135)


def test_local_homogeneity_search_counts(monkeypatch):
    # affine d=4 at (4, 8): 960 of the 6,960 instances need a map search,
    # and the maps those searches try need 4,200 extension searches
    searches = {"instance": 0, "extension": 0}
    exists = pg._exists

    def counted(image, points, options, due, closed, leaf=None, i=0,
                used=0):
        if i == 0:
            searches["extension" if leaf is None else "instance"] += 1
        return exists(image, points, options, due, closed, leaf, i, used)

    monkeypatch.setattr(pg, "_exists", counted)
    r = pg.check_local_homogeneity(pg.affine_operator(4), 4, 8)
    assert (r.status, r.checked) == ("BOUNDED-PASS", 6960)
    assert searches == {"instance": 960, "extension": 4200}


def test_local_homogeneity_budget(monkeypatch):
    # each extension is budgeted when its search is about to run, so the
    # first query of a 2-point T already needs a 6-point U: 4! > 10
    monkeypatch.setattr(pg, "PERM_BUDGET", 10)
    with pytest.raises(SearchBudgetExceeded) as info:
        pg.check_local_homogeneity(pg.identity_operator(6), 5, 6)
    monkeypatch.undo()
    assert str(info.value) == "extension search over 4! permutations"
    assert info.value.instance == {"fixed": [], "ambient": [0, 1],
                                   "a": 0, "b": 1}
    # extending a 4-point subspace's map to the 16-point space leaves 12
    # points to place: 12! > 8!
    with pytest.raises(SearchBudgetExceeded) as info:
        pg.check_local_homogeneity(pg.linear_operator(4), 4, 16)
    assert str(info.value) == "extension search over 12! permutations"
    assert info.value.instance == {"fixed": [0], "ambient": [0, 1, 2, 3],
                                   "a": 1, "b": 2}
    # a 9-point U is within budget for 2-point T's (7! <= 8!), and a
    # 1-point T asks nothing at all
    r = pg.check_local_homogeneity(pg.identity_operator(10), 1, 9)
    assert (r.status, r.checked) == ("BOUNDED-PASS", 0)
    r = pg.check_local_homogeneity(pg.identity_operator(10), 2, 9)
    assert (r.status, r.checked) == ("BOUNDED-PASS", 90)


def test_is_independent_examples():
    op = pg.linear_operator(3)
    assert pg.is_independent(op, {1, 2})
    assert not pg.is_independent(op, {1, 2, 3})
    assert not pg.is_independent(op, {2}, over={2})


def test_is_independent_monotone_in_base():
    # independence over a superset base implies it over any subset base
    from itertools import combinations

    op = pg.degenerate_operator([[0, 1], [2, 3], [4, 5]])
    labels = range(6)
    for s_size in range(3):
        for s in combinations(labels, s_size):
            for t_size in range(3):
                for big in combinations(labels, t_size):
                    if not pg.is_independent(op, s, over=big):
                        continue
                    for small_size in range(t_size):
                        for small in combinations(big, small_size):
                            assert pg.is_independent(op, s, over=small)


def test_verify_closure_cardinality():
    r = pg.verify_closure_cardinality(pg.linear_operator(4), 2)
    assert r.status == "PASS" and r.common_value == 4
    r = pg.verify_closure_cardinality(pg.affine_operator(3), 2)
    assert r.status == "PASS" and r.common_value == 2
    r = pg.verify_closure_cardinality(pg.identity_operator(5), 3)
    assert r.status == "PASS" and r.common_value == 3
    with pytest.raises(NoIndependentSet):
        pg.verify_closure_cardinality(pg.linear_operator(2), 3)


def test_closed_sets_upto():
    op = pg.linear_operator(3)
    closed = tuple(op.closed_sets_upto(8))
    assert len(closed) == 16  # all subspaces of GF(2)^3
    assert all(op.cl(c) == c for c in closed)
    affine = pg.affine_operator(3)
    small = tuple(affine.closed_sets_upto(2))
    # empty set, 8 singletons, all 28 pairs
    assert len(small) == 1 + 8 + 28
    # the search finds exactly the closed sets, by brute force, and those
    # containing a base are its filter
    rng = random.Random(12)
    for op in (op, pg.linear_operator(4), affine, pg.affine_operator(4),
               pg.degenerate_operator([[0, 1, 2], [3], [4, 5], [6, 7, 8, 9]]),
               pg.identity_operator(7)):
        labels = sorted(op.ground)
        oracle = [frozenset(c) for k in range(len(labels) + 1)
                  for c in combinations(labels, k) if op.cl(c) == set(c)]
        for _ in range(20):
            base = frozenset(rng.sample(labels, rng.randint(0, 2)))
            max_size = rng.randint(0, len(labels))
            assert [w for w in op.closed_sets_upto(max_size) if base <= w] \
                == [w for w in oracle if len(w) <= max_size and base <= w]


def test_full_closure_memo_is_emptied(monkeypatch):
    monkeypatch.setattr(pg, "MAX_MEMO", 4)
    op = pg.linear_operator(3)
    for v in range(1, 8):
        assert op.cl({v}) == {0, v}
        assert len(op._cache) == (v - 1) % 4 + 1


def test_dropped_operator_is_freed_without_gc():
    # the memo's `make` holds no reference back to its operator
    enabled = gc.isenabled()
    gc.disable()
    try:
        op = pg.linear_operator(3)
        assert op.cl({1, 2}) == {0, 1, 2, 3}
        ref = weakref.ref(op)
        del op
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_closed_sets_upto_budget(monkeypatch):
    op = pg.identity_operator(5)
    monkeypatch.setattr(pg, "MAX_CLOSED_SETS", 16)
    assert len(tuple(op.closed_sets_upto(2))) == 16  # 1 + 5 + 10
    monkeypatch.setattr(pg, "MAX_CLOSED_SETS", 15)
    with pytest.raises(BudgetExceeded):
        tuple(op.closed_sets_upto(2))


def test_closed_sets_upto_reads_lazily():
    # the smallest set is yielded before any extension is closed, so a
    # search far past the budget still gives its first set
    assert next(pg.identity_operator(128).closed_sets_upto(8)) == frozenset()
    # a size is extended only once it has been read, and sets already at
    # max_size never are: cl of the empty set, of the 5 points and of the
    # 10 pairs is memoized, and of no triple
    op = pg.identity_operator(5)
    sets = op.closed_sets_upto(2)
    assert list(islice(sets, 6)) == [frozenset()] + [{x} for x in range(5)]
    assert len(op._cache) == 6
    assert len(tuple(sets)) == 10
    assert len(op._cache) == 16
