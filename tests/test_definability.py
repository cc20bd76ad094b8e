"""Supports, synthesis, the partition dichotomy, and signature classes."""

import functools
import hashlib
import io
import json
import random
import time
from collections import Counter
from itertools import combinations, product

import pytest

from ddlab import cli
from ddlab import definability as df
from ddlab import formulas as fm
from ddlab.errors import (
    IntermediateAssertFailed,
    MajorityTie,
    NotASupport,
    NotEquivalence,
)


def rel_of(n, k, tuples):
    return df.Relation.from_tuples(n, k, tuples)


def brute_is_support(rel, members):
    """Oracle: check invariance under every permutation fixing members."""
    from itertools import permutations

    outside = sorted(set(range(rel.n)) - set(members))
    base = {x: x for x in members}
    for image in permutations(outside):
        perm = dict(base)
        perm.update(zip(outside, image))
        table = [perm[x] for x in range(rel.n)]
        if rel.apply_perm(table).tuples != rel.tuples:
            return False
    return True


def all_pairs_is_support(rel, members):
    """Oracle: every transposition of two points outside members, applied
    as a whole permutation, preserves the relation."""
    outside = sorted(set(range(rel.n)) - set(members))
    for a, b in combinations(outside, 2):
        table = list(range(rel.n))
        table[a], table[b] = b, a
        if rel.apply_perm(table).tuples != rel.tuples:
            return False
    return True


def brute_minimal_supports(rel):
    """Oracle: every smallest parameter set that brute_is_support accepts,
    in the order of sorted."""
    for size in range(rel.n + 1):
        found = [frozenset(c) for c in combinations(range(rel.n), size)
                 if brute_is_support(rel, c)]
        if found:
            return found


def block_relation(n, k, block, rng):
    """A random union of the orbits of k-tuples under the permutations
    that keep every point in its block (block[x] names the block of x).
    Such an orbit is fixed by the blocks of the coordinates and by which
    coordinates are equal."""
    def orbit(t):
        first = {}
        return (tuple(block[x] for x in t),
                tuple(first.setdefault(x, i) for i, x in enumerate(t)))

    points = list(product(range(n), repeat=k))
    chosen = {o for o in sorted({orbit(t) for t in points})
              if rng.random() < 0.5}
    return rel_of(n, k, [t for t in points if orbit(t) in chosen])


def random_relations(rng, count, max_n, max_k):
    """Seeded relations with 2 <= n <= max_n, 1 <= k <= max_k: half drawn
    tuple by tuple, half as unions of block orbits, so that transposition
    classes of every size occur, ties for the largest included."""
    for i in range(count):
        n, k = rng.randint(2, max_n), rng.randint(1, max_k)
        if i % 2:
            density = rng.random()
            yield rel_of(n, k, [t for t in product(range(n), repeat=k)
                                if rng.random() < density])
        else:
            blocks = rng.randint(1, n)
            yield block_relation(
                n, k, [rng.randrange(blocks) for _ in range(n)], rng)


def test_transposition_support_agrees_with_full_stabilizer():
    rng = random.Random(31)
    all_tuples = list(product(range(5), repeat=2))
    for _ in range(80):
        rel = rel_of(5, 2, [t for t in all_tuples if rng.random() < 0.4])
        for size in range(4):
            for combo in combinations(range(5), size):
                assert df.is_support(rel, combo) \
                    == brute_is_support(rel, combo)


def test_star_support_agrees_with_all_pairs():
    for rel in random_relations(random.Random(35), 300, 7, 3):
        for size in range(rel.n + 1):
            for combo in combinations(range(rel.n), size):
                assert df.is_support(rel, combo) \
                    == all_pairs_is_support(rel, combo)


def test_orbit_count_support_agrees_with_both_oracles():
    # seeded relations of arity 1-3 on at most 6 points, and unions of
    # equality types over at most two parameters; a member iterable may
    # repeat labels and hold labels outside range(n), which are ignored
    rng = random.Random(39)
    rels = list(random_relations(rng, 60, 6, 3))
    for _ in range(60):
        n, k = rng.randint(2, 6), rng.randint(1, 3)
        params = rng.sample(range(n), rng.randint(0, min(2, n)))
        rels.append(block_relation(
            n, k, [x + 1 if x in params else 0 for x in range(n)], rng))
    for rel in rels:
        for size in range(rel.n + 1):
            for combo in combinations(range(rel.n), size):
                expected = brute_is_support(rel, combo)
                assert all_pairs_is_support(rel, combo) == expected
                assert df.is_support(rel, combo) == expected
                noisy = [-2, *combo, *combo[:1], rel.n, -1, rel.n + 5]
                assert df.is_support(rel, noisy) == expected


def _assert_minimal_support_matches_brute(rel):
    expected = brute_minimal_supports(rel)
    ms = df.minimal_support(rel)
    assert ms.candidates == tuple(expected)
    assert ms.members == expected[0]
    assert ms.ambiguous == (len(expected) > 1)


def test_minimal_support_agrees_with_brute_force_unary():
    for mask in range(1 << 7):
        _assert_minimal_support_matches_brute(
            rel_of(7, 1, [(v,) for v in range(7) if mask >> v & 1]))


def test_minimal_support_agrees_with_brute_force_random():
    for rel in random_relations(random.Random(36), 200, 6, 3):
        _assert_minimal_support_matches_brute(rel)


def transposition_tables(n):
    """For each pair a < b, the action of (a b) on a binary relation's pair
    mask (bit i for the i-th pair in product order), as one lookup table
    per byte of the mask.  Each pair's image is found by applying the
    transposition to the one-pair relation through Relation.apply_perm."""
    points = list(product(range(n), repeat=2))
    tables = {}
    for a, b in combinations(range(n), 2):
        swap = list(range(n))
        swap[a], swap[b] = b, a
        image = [points.index(*rel_of(n, 2, [p]).apply_perm(swap).tuples)
                 for p in points]
        tables[a, b] = [[sum(1 << image[j] for j in range(start, n * n)
                             if byte >> j - start & 1) for byte in range(256)]
                        for start in range(0, n * n, 8)]
    return tables


def pair_mask(rel):
    return sum(1 << a * rel.n + b for a, b in rel.tuples)


@functools.cache
def supports_from_labels(labels):
    """The complements of the largest classes of the labelling, sorted."""
    sizes = Counter(labels)
    largest = max(sizes.values())
    return tuple(sorted(
        (frozenset(x for x, c in enumerate(labels) if c != label)
         for label, size in sizes.items() if size == largest), key=sorted))


def _assert_minimal_support_matches_transpositions(rel, tables):
    """Oracle: join a and b when (a b) maps the pair mask to itself, over
    every pair in two classes so far (the preserving permutations form a
    group), and take the complements of the largest classes."""
    mask = pair_mask(rel)
    chunks = list(enumerate(mask.to_bytes(8, "little")[:len(tables[0, 1])]))
    labels = list(range(rel.n))
    for (a, b), table in tables.items():
        if (labels[a] != labels[b]
                and sum(table[i][byte] for i, byte in chunks) == mask):
            old, new = labels[b], labels[a]
            labels = [new if x == old else x for x in labels]
    expected = supports_from_labels(tuple(labels))
    ms = df.minimal_support(rel)
    assert ms.candidates == expected
    assert ms.members == expected[0]
    assert ms.ambiguous == (len(expected) > 1)


def test_binary_minimal_support_agrees_with_applied_transpositions():
    tables = {n: transposition_tables(n) for n in range(4, 9)}
    points = list(product(range(4), repeat=2))
    for mask in range(1 << 16):
        _assert_minimal_support_matches_transpositions(df.Relation(
            4, 2, frozenset(p for i, p in enumerate(points) if mask >> i & 1)),
            tables[4])
    # seeded relations on 5-8 points, half of them unions of block orbits
    # so that classes of every size occur, ties for the largest included
    rng = random.Random(40)
    for i in range(2000):
        n = rng.randint(5, 8)
        if i % 2:
            rel = rel_of(n, 2, [t for t in product(range(n), repeat=2)
                                if rng.random() < 0.5])
        else:
            rel = block_relation(
                n, 2, [rng.randrange(rng.randint(1, n)) for _ in range(n)],
                rng)
        _assert_minimal_support_matches_transpositions(rel, tables[n])


def test_transposition_classes_agree_with_applied_transpositions():
    # arities 1, 3 and 4 take the tuple-mask test; the oracle joins a and
    # b when (a b), applied to the whole relation, fixes it
    rng = random.Random(48)
    sizes = Counter()
    for i in range(300):
        k = rng.choice([1, 3, 4])
        n = rng.randint(2, {1: 9, 3: 6, 4: 5}[k])
        if i % 2:
            density = rng.random()
            rel = rel_of(n, k, [t for t in product(range(n), repeat=k)
                                if rng.random() < density])
        else:
            rel = block_relation(
                n, k, [rng.randrange(rng.randint(1, n)) for _ in range(n)],
                rng)
        labels = list(range(n))
        for a, b in combinations(range(n), 2):
            swap = list(range(n))
            swap[a], swap[b] = b, a
            if rel.apply_perm(swap) == rel:
                labels[b] = labels[a]
        classes = df._transposition_classes(rel)
        assert classes == [[x for x in range(n) if labels[x] == label]
                           for label in sorted(set(labels))]
        sizes[max(map(len, classes)) < n] += 1
    assert sizes[True] >= 100 and sizes[False] >= 50, sizes


def test_support_compare_on_a_full_unary_relation_at_the_cap(tmp_path):
    # all 4,096 points form one transposition class; each transposition
    # tested reads only the tuples through its two points
    n = df.MAX_TUPLE_SPACE
    path = tmp_path / "full.json"
    path.write_text(json.dumps(rel_of(n, 1, [(x,) for x in range(n)])
                               .to_json()))
    out = io.StringIO()
    t0 = time.perf_counter()
    assert cli.main(["support", "--file", str(path), "--compare"],
                    stream=out) == 0
    elapsed = time.perf_counter() - t0
    record = json.loads(out.getvalue())
    assert record["minimal"] == [] and record["recursive"] == []
    assert not record["ambiguous"] and record["size_gap"] == 0
    assert elapsed < 2.0


def test_minimal_support_examples():
    r = rel_of(7, 1, [(3,)])
    ms = df.minimal_support(r)
    assert ms.members == {3} and not ms.ambiguous

    equality = rel_of(5, 2, [(i, i) for i in range(5)])
    assert df.minimal_support(equality).members == frozenset()

    full = rel_of(5, 2, product(range(5), repeat=2))
    assert df.minimal_support(full).members == frozenset()


def test_minimal_support_ambiguity_flag():
    # two size-3 blocks: either block is a minimal support, and their
    # union leaves no room outside, so ambiguity is flagged
    blocks = rel_of(6, 2, [(a, b) for a in range(3) for b in range(3)]
                    + [(a, b) for a in range(3, 6) for b in range(3, 6)])
    ms = df.minimal_support(blocks)
    assert ms.ambiguous and len(ms.candidates) > 1
    assert ms.members == min(ms.candidates, key=sorted)


def test_recursive_support_base_case():
    assert df.recursive_support(rel_of(7, 1, [(3,)])) == {3}
    big = rel_of(7, 1, [(i,) for i in range(1, 7)])
    assert df.recursive_support(big) == {0}
    assert df.recursive_support(rel_of(5, 1, [])) == frozenset()
    with pytest.raises(ValueError):
        df.recursive_support(rel_of(3, 1, [(0,)]))


def test_recursive_support_equality_is_empty():
    equality = rel_of(7, 2, [(i, i) for i in range(7)])
    trace = df.recursive_support_trace(equality)
    assert trace.members == frozenset()
    assert trace.major_size == 1 and trace.generic_class == frozenset(range(7))


def test_recursive_support_pins_special_point():
    rel = rel_of(6, 2, [(0, b) for b in range(1, 6)]
                 + [(a, a) for a in range(1, 6)])
    support = df.recursive_support(rel)
    assert 0 in support
    # brute check: every parameter set omitting 0 (with two points left
    # outside) fails to support the relation
    for size in range(5):
        for combo in combinations(range(1, 6), size):
            assert not df.is_support(rel, combo)


def test_recursive_support_majority_tie():
    with pytest.raises(MajorityTie) as info:
        df.recursive_support(rel_of(4, 2, [(0, 1), (1, 0)]))
    assert info.value.stage == "chain-cardinality"


def strict_majority_relations():
    """400 seeded unions of equality types over at most two parameters,
    where strict majorities exist, unlike the arity-2 relations on 4
    points."""
    rng = random.Random(37)
    for n, k in ((6, 2), (7, 2), (8, 2), (5, 3)):
        for _ in range(100):
            params = rng.sample(range(n), rng.randint(0, 2))
            yield block_relation(
                n, k, [x + 1 if x in params else 0 for x in range(n)], rng)


def test_recursive_support_sweep_with_strict_majorities():
    outcomes = {"supported": 0, "chain-cardinality": 0, "class-majority": 0}
    for rel in strict_majority_relations():
        try:
            support = df.recursive_support(rel)
        except MajorityTie as tie:
            outcomes[tie.stage] += 1
            continue
        outcomes["supported"] += 1
        assert df.is_support(rel, support)
        assert all_pairs_is_support(rel, support)
        assert len(support) >= df.minimal_support(rel).size
    assert outcomes == {"supported": 358, "chain-cardinality": 14,
                        "class-majority": 28}


def test_recursive_support_trace_digest():
    # every trace field, or the tie stage, of the recursion on the sweep's
    # 400 relations and on 2,000 seeded arity-2 relations on 4 points
    points = list(product(range(4), repeat=2))
    rels = [*strict_majority_relations(), *(
        rel_of(4, 2, [p for i, p in enumerate(points) if mask >> i & 1])
        for mask in random.Random(38).sample(range(1 << 16), 2000))]
    digest = hashlib.sha256()
    for rel in rels:
        try:
            trace = df.recursive_support_trace(rel)
        except MajorityTie as tie:
            record = tie.stage
        else:
            assert all(chain.start == b and chain.members == chain.levels[-1]
                       for b, chain in trace.chains.items())
            record = [sorted(trace.members),
                      [[sorted(level) for level in chain.levels]
                       for chain in trace.chains.values()],
                      trace.major_size, sorted(trace.major),
                      sorted(trace.generic_class)]
        digest.update(json.dumps(record).encode() + b"\n")
    assert digest.hexdigest() == ("8ba8b14a16e547cbfe968bf0e0bb964c"
                                  "996665ecbc195cd1f2b5ff533e286f75")


def test_arity3_fingerprint_tells_the_point_from_other_majority_points():
    # the solo points 0, 2 and 3 share a fingerprint only when each names
    # itself apart from the other majority points: with the point numbered
    # like them, the class majority splits and the set built is no support
    rel = rel_of(4, 3, [
        (0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0), (1, 0, 0), (1, 0, 1),
        (1, 1, 0), (1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 2), (1, 3, 1),
        (1, 3, 3), (2, 0, 2), (2, 1, 2), (2, 2, 2), (2, 3, 2), (3, 0, 3),
        (3, 1, 3), (3, 2, 3), (3, 3, 3)])
    trace = df.recursive_support_trace(rel)
    assert trace.members == {1} and trace.generic_class == {0, 2, 3}
    assert brute_is_support(rel, trace.members)


def test_recursive_support_chains_recorded():
    rel = rel_of(6, 2, [(0, 1), (1, 0)])
    trace = df.recursive_support_trace(rel)
    chain = trace.chains[0]
    assert chain.levels[0] == {0}
    assert chain.members == {0, 1}
    assert len(chain.levels) - 1 == 1
    assert trace.major == frozenset({2, 3, 4, 5})
    assert trace.members == {0, 1}


def test_recursive_support_builds_no_relation(monkeypatch):
    # the relation is validated once, when it is made; the recursion works
    # on its tuple set and on sections of it
    rel = block_relation(7, 3, [1, 0, 0, 0, 0, 0, 0], random.Random(5))
    made = []
    real = df.Relation.__post_init__

    def counted(self):
        made.append(self)
        real(self)

    monkeypatch.setattr(df.Relation, "__post_init__", counted)
    trace = df.recursive_support_trace(rel)
    assert trace.chains is not None and made == []


def test_recursive_support_tie_when_no_chain_is_isolated():
    # a perfect matching: every chain pairs up, so no fingerprint class
    # can reach a strict majority
    rel = rel_of(6, 2, [(0, 1), (2, 3), (4, 5), (1, 0), (3, 2), (5, 4)])
    with pytest.raises(MajorityTie) as info:
        df.recursive_support_trace(rel)
    assert info.value.stage == "class-majority"


def test_synthesize_formula_examples():
    f = df.synthesize_formula(rel_of(7, 1, [(3,)]), {3})
    assert fm.print_formula(f) == "(or (and (= x1 c3)))"

    equality = rel_of(5, 2, [(i, i) for i in range(5)])
    f = df.synthesize_formula(equality, frozenset())
    assert fm.print_formula(f) == "(or (and (= x1 x2)))"

    falsum = df.synthesize_formula(rel_of(5, 2, []), frozenset())
    assert fm.print_formula(falsum) == "(or)"

    with pytest.raises(NotASupport):
        df.synthesize_formula(rel_of(7, 1, [(3,)]), frozenset())


def test_synthesis_check_names_the_first_wrong_point(monkeypatch):
    # with a type that has a witness in the relation left out of the
    # formula, the check fails at that type's first point in product order
    rng = random.Random(43)
    real = df._realizable_types
    dropped_some = 0
    for n, k, blocks in ((7, 1, [1, 0, 0, 2, 0, 0, 0]),
                         (5, 2, [0, 1, 0, 0, 0]),
                         (5, 3, [1, 0, 0, 0, 2])):
        rel = block_relation(n, k, blocks, rng)
        support = df.minimal_support(rel).members
        params = tuple(sorted(support))
        types = real(n, k, params)
        for dropped in types:
            if dropped[1] not in rel.tuples:
                continue
            first = next(p for p in product(range(n), repeat=k)
                         if fm.EqualityType.of_point(p, params) == dropped[0])
            monkeypatch.setattr(df, "_realizable_types",
                                lambda *key: tuple(t for t in real(*key)
                                                   if t is not dropped))
            with pytest.raises(IntermediateAssertFailed) as info:
                df.synthesize_formula(rel, support)
            assert str(info.value) == ("synthesized formula disagrees with "
                                       f"the relation at {first}")
            dropped_some += 1
    assert dropped_some == 19


def test_synthesis_refuses_a_non_support_with_the_same_message():
    # arity 2: one pair moved by every transposition outside {0}; arity 3:
    # a tuple through 1 and 2 moved by (1 2); arity 1 as before
    for rel, members, text in (
            (rel_of(5, 2, [(0, 1)]), {0}, "[0]"),
            (rel_of(5, 2, [(0, 1), (1, 0)]), set(), "[]"),
            (rel_of(5, 3, [(0, 1, 2)]), {0, 3}, "[0, 3]"),
            (rel_of(7, 1, [(3,)]), {5}, "[5]")):
        with pytest.raises(NotASupport) as info:
            df.synthesize_formula(rel, members)
        assert str(info.value) == f"{text} does not support the relation"


def test_synthesis_runs_no_support_test_when_exact(monkeypatch):
    # an exact formula certifies its support, so is_support runs only to
    # name the error of a failed check
    calls = []
    real = df.is_support
    monkeypatch.setattr(df, "is_support",
                        lambda *args: calls.append(args) or real(*args))
    for rel in strict_majority_relations():
        df.synthesize_formula(rel, df.minimal_support(rel).members)
        df.synthesize_formula(rel, range(rel.n))
    assert calls == []
    with pytest.raises(NotASupport):
        df.synthesize_formula(rel_of(5, 3, [(0, 1, 2)]), {0})
    assert len(calls) == 1


def test_synthesis_exact_on_random_relations():
    rng = random.Random(32)
    all_tuples = list(product(range(5), repeat=2))
    for _ in range(60):
        rel = rel_of(5, 2, [t for t in all_tuples if rng.random() < 0.5])
        support = df.minimal_support(rel).members
        formula = df.synthesize_formula(rel, support)
        for point in all_tuples:
            assert fm.evaluate(formula, point) == (point in rel.tuples)


def test_synthesis_equivariance():
    rng = random.Random(33)
    all_tuples = list(product(range(5), repeat=2))
    for _ in range(40):
        rel = rel_of(5, 2, [t for t in all_tuples if rng.random() < 0.5])
        support = df.minimal_support(rel).members
        outside = sorted(set(range(5)) - support)
        image = outside[:]
        rng.shuffle(image)
        perm = list(range(5))
        for src, dst in zip(outside, image):
            perm[src] = dst
        moved = rel.apply_perm(perm)
        assert df.synthesize_formula(rel, support) \
            == df.synthesize_formula(moved, support)


def test_partition_dichotomy_examples():
    full = rel_of(5, 2, product(range(5), repeat=2))
    assert df.partition_dichotomy(full, frozenset()) == "single-block"

    equality = rel_of(5, 2, [(i, i) for i in range(5)])
    assert df.partition_dichotomy(equality, frozenset()) == "all-singletons"

    merged = rel_of(6, 2, [(i, i) for i in range(6)] + [(0, 1), (1, 0)])
    assert df.partition_dichotomy(merged, {0, 1}) == "all-singletons"


def test_partition_dichotomy_errors():
    not_equiv = rel_of(5, 2, [(0, 1)])
    with pytest.raises(NotEquivalence):
        df.partition_dichotomy(not_equiv, frozenset())
    merged = rel_of(6, 2, [(i, i) for i in range(6)] + [(0, 1), (1, 0)])
    with pytest.raises(NotASupport):
        df.partition_dichotomy(merged, frozenset())
    with pytest.raises(ValueError):
        df.partition_dichotomy(merged, {0, 1, 2, 3})


def test_signature_classes():
    assert df.signature_classes(4, [], []) == (frozenset(range(4)),)
    assert df.signature_classes(4, [0], [[1, 2]]) \
        == (frozenset({0}), frozenset({1, 2}), frozenset({3}))
    assert set(df.signature_classes(4, [], [[0], [1]])) \
        == {frozenset({0}), frozenset({1}), frozenset({2, 3})}


def test_signature_class_count_bound():
    rng = random.Random(34)
    for _ in range(100):
        n = rng.randint(2, 9)
        fixed = {x for x in range(n) if rng.random() < 0.3}
        sets = [{x for x in range(n) if rng.random() < 0.5}
                for _ in range(rng.randint(0, 4))]
        classes = df.signature_classes(n, fixed, sets)
        assert len(classes) <= len(fixed) + (1 << len(sets))
        assert sorted(x for c in classes for x in c) == list(range(n))


def test_nonunion_witness():
    assert df.nonunion_witness([{0, 1}, {2}], {0}) == (0, 1)
    assert df.nonunion_witness([{0, 1}, {2}], {0, 1}) is None
    classes = df.signature_classes(4, [0], [[1, 2]])
    assert df.nonunion_witness(classes, {1}) == (1, 2)
    # the least c wins across classes, and the least d in its class
    assert df.nonunion_witness([{5, 6, 9}, {1, 4, 2}], {1, 4, 5}) == (1, 2)
    assert df.nonunion_witness([{5, 6, 9}, {1, 4}], {1, 4, 5, 7}) == (5, 6)
    assert df.nonunion_witness(iter([[3, 4], [8]]), [8, 3, 0]) == (3, 4)


def test_nonunion_witness_on_overlapping_classes():
    # the earliest class offering the least c wins; a class inside the
    # subset offers nothing
    assert df.nonunion_witness([{0, 1}, {0, 2}], {0}) == (0, 1)
    assert df.nonunion_witness([{0, 2}, {0, 1}], {0}) == (0, 2)
    assert df.nonunion_witness([{0}, {0, 3}], {0}) == (0, 3)
    assert df.nonunion_witness([{1, 2}, {0, 1, 3}], {1, 2}) == (1, 0)


def class_table_witness(classes, subset):
    """The witness as a table from each point to its class, scanned over
    the subset in order; on disjoint classes, the definition."""
    target = frozenset(subset)
    class_of = {x: frozenset(cls) for cls in classes for x in cls}
    for c in sorted(target):
        outs = sorted(class_of.get(c, target) - target)
        if outs:
            return (c, outs[0])
    return None


def set_partitions(points):
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for partition in set_partitions(rest):
        yield [[first], *partition]
        for i in range(len(partition)):
            yield [*partition[:i], [first, *partition[i]], *partition[i + 1:]]


def test_nonunion_witness_agrees_with_the_class_table():
    # every partition of 5 points, shuffled, also with its last class
    # dropped, against every subset of 6 labels (5 lies in no class)
    rng = random.Random(45)
    subsets = [[x for x in range(6) if mask >> x & 1] for mask in range(64)]
    partitions = 0
    for partition in set_partitions(list(range(5))):
        rng.shuffle(partition)
        for classes in (partition, partition[:-1]):
            for subset in subsets:
                assert df.nonunion_witness(classes, subset) \
                    == class_table_witness(classes, subset)
        partitions += 1
    assert partitions == 52


def test_relation_json_round_trip(tmp_path):
    # relation files are read by the command line's checked JSON reader
    path = tmp_path / "rel.json"
    rel = rel_of(4, 2, [(0, 1), (2, 3)])
    path.write_text(json.dumps(rel.to_json()))
    assert cli._load_relation(str(path)) == rel
    path.write_text('{"n": 3, "k": 1, "tuples": [[2]]}')
    assert cli._load_relation(str(path)) == rel_of(3, 1, [(2,)])
    with pytest.raises(ValueError):
        rel_of(3, 1, [(5,)])


def test_binary_support_agrees_with_every_outside_permutation():
    # all 512 relations on 3 points with every member set, then 2,000
    # seeded (relation, members) pairs on 4-6 points, half of them unions
    # of equality types over the members, so supported; the oracle applies
    # every permutation of the outside points
    points = list(product(range(3), repeat=2))
    for mask in range(1 << 9):
        rel = rel_of(3, 2, [p for i, p in enumerate(points) if mask >> i & 1])
        for size in range(4):
            for members in combinations(range(3), size):
                assert df.is_support(rel, members) \
                    == brute_is_support(rel, members)
    rng = random.Random(44)
    supported = 0
    for i in range(2000):
        n = rng.randint(4, 6)
        members = {x for x in range(n) if rng.random() < 0.4}
        if i % 2:
            rel = block_relation(
                n, 2, [x + 1 if x in members else 0 for x in range(n)], rng)
        else:
            rel = rel_of(n, 2, [t for t in product(range(n), repeat=2)
                                if rng.random() < 0.5])
        expected = brute_is_support(rel, members)
        assert df.is_support(rel, members) == expected
        supported += expected
    assert supported == 1106
