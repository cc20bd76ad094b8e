"""gf2core unit tests; derived values come from brute-force oracles."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab import gf2core
from ddlab.errors import BudgetExceeded, DimensionExhausted, PointInSpan


def oracle_span(vectors):
    vs = list(vectors)
    out = set()
    for mask in range(1 << len(vs)):
        acc = 0
        for i, v in enumerate(vs):
            if mask >> i & 1:
                acc ^= v
        out.add(acc)
    return out


def test_span_examples():
    assert gf2core.span([], 3).members == {0}
    assert gf2core.span([1], 3).members == {0, 1}
    # oracle: all GF(2) combinations of {2, 4}
    assert oracle_span([2, 4]) == {0, 2, 4, 6}
    assert gf2core.span([2, 4], 3).members == {0, 2, 4, 6}


def test_span_basis_deterministic():
    a = gf2core.span([6, 2, 4], 3)
    b = gf2core.span([4, 6, 2, 6], 3)
    assert a.basis == b.basis
    assert a.basis == tuple(sorted(a.basis))


def test_span_cardinality_is_power_of_rank():
    rng = random.Random(11)
    for _ in range(200):
        d = rng.randint(1, 8)
        vs = [rng.getrandbits(d) for _ in range(rng.randint(0, 6))]
        sub = gf2core.span(vs, d)
        assert len(sub.members) == 1 << sub.rank


def test_span_closure_properties_exhaustive_d3():
    universe = list(range(8))
    spans = {}
    for mask in range(1 << 8):
        s = frozenset(v for v in universe if mask >> v & 1)
        spans[s] = gf2core.span(s, 3).members
    for s, sp in spans.items():
        assert s <= sp
        assert spans[frozenset(sp)] == sp  # idempotent
    small = [s for s in spans if len(s) <= 2]
    for s in small:
        for t in spans:
            if s <= t:
                assert spans[s] <= spans[t]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_span_closure_properties_randomized(dim, data):
    vs = data.draw(st.lists(
        st.integers(min_value=0, max_value=(1 << dim) - 1), max_size=6))
    extra = data.draw(st.lists(
        st.integers(min_value=0, max_value=(1 << dim) - 1), max_size=3))
    sub = gf2core.span(vs, dim)
    assert set(vs) <= sub.members
    assert gf2core.span(sub.members, dim).members == sub.members
    assert sub.members <= gf2core.span(list(vs) + extra, dim).members


def test_extend_independent_examples():
    assert gf2core.extend_independent([1], 2, 3) == [2, 4]
    assert gf2core.extend_independent([], 1, 1) == [1]
    with pytest.raises(DimensionExhausted,
                       match="^rank 3 \\+ 1 exceeds dim 3$"):
        gf2core.extend_independent([1, 2, 4], 1, 3)


def test_extend_independent_stays_independent():
    rng = random.Random(12)
    for _ in range(50):
        d = rng.randint(2, 8)
        avoid = [rng.getrandbits(d) for _ in range(rng.randint(0, 2))]
        room = d - gf2core.span(avoid, d).rank
        if room < 1:
            continue
        count = rng.randint(1, room)
        picked = gf2core.extend_independent(avoid, count, d)
        base_rank = gf2core.span(avoid, d).rank
        assert gf2core.span(list(avoid) + picked, d).rank == base_rank + count


def test_enumerate_subspaces_counts_match_gaussian_binomials():
    # independent oracle: the product formula for Gaussian binomials
    def product_formula(n, k):
        num = den = 1
        for i in range(k):
            num *= 2 ** (n - i) - 1
            den *= 2 ** (i + 1) - 1
        return num // den

    for d in range(1, 6):
        subs = list(gf2core.enumerate_subspaces(d))
        expected = sum(product_formula(d, k) for k in range(d + 1))
        assert len(subs) == expected
    assert len(list(gf2core.enumerate_subspaces(1))) == 2
    assert len(list(gf2core.enumerate_subspaces(2))) == 5
    assert len(list(gf2core.enumerate_subspaces(4))) == 67


def test_enumerate_subspaces_exhaustive_closure_oracle_d3():
    # every returned member set is closed under xor; every closed set
    # appears exactly once
    subs = list(gf2core.enumerate_subspaces(3))
    seen = {tuple(sorted(s.members)) for s in subs}
    assert len(seen) == len(subs)
    closed = []
    for mask in range(1 << 8):
        s = {v for v in range(8) if mask >> v & 1}
        if 0 in s and all(a ^ b in s for a in s for b in s):
            closed.append(tuple(sorted(s)))
    assert sorted(seen) == sorted(closed)


def test_enumerate_subspaces_order_and_max_card():
    subs = list(gf2core.enumerate_subspaces(3))
    keys = [(len(s.members), tuple(sorted(s.members))) for s in subs]
    assert keys == sorted(keys)
    lines = list(gf2core.enumerate_subspaces(3, max_card=2))
    assert len(lines) == 1 + 7
    assert all(len(s.members) <= 2 for s in lines)


def test_enumerate_subspaces_builds_one_rank_at_a_time(monkeypatch):
    built = []
    real = gf2core.Subspace

    def recorded(dim, basis, members):
        built.append(len(basis))
        return real(dim, basis, members)

    monkeypatch.setattr(gf2core, "Subspace", recorded)
    subs = iter(gf2core.enumerate_subspaces(7))
    # {0} and the 127 lines, and no plane yet
    assert [next(subs).rank for _ in range(128)] == [0] + [1] * 127
    assert built == [0] + [1] * 127
    assert next(subs).members == {0, 1, 2, 3}
    assert built[-1] == 2


def test_enumerate_subspaces_budget_and_caps():
    with pytest.raises(BudgetExceeded):
        gf2core.enumerate_subspaces(5, budget=10)
    with pytest.raises(ValueError):
        gf2core.enumerate_subspaces(13)
    with pytest.raises(ValueError):
        gf2core.enumerate_subspaces(0)


def test_fixing_linear_map_contract():
    pi = gf2core.fixing_linear_map([], 1, 2, 2)
    assert pi.invertible
    assert pi.apply(1) == 2 and pi.apply(0) == 0

    pi = gf2core.fixing_linear_map([1], 2, 3, 2)
    assert pi.apply(1) == 1 and pi.apply(2) == 3
    assert pi.invertible

    with pytest.raises(PointInSpan):
        gf2core.fixing_linear_map([1], 1, 2, 2)


def test_fixing_linear_map_randomized():
    rng = random.Random(13)
    for _ in range(100):
        d = rng.randint(2, 6)
        fixed = [rng.getrandbits(d) for _ in range(rng.randint(0, d - 1))]
        sp = gf2core.span(fixed, d).members
        outside = [v for v in range(1 << d) if v not in sp]
        if len(outside) < 1:
            continue
        u, v = rng.choice(outside), rng.choice(outside)
        pi = gf2core.fixing_linear_map(fixed, u, v, d)
        assert pi.invertible
        assert pi.apply(u) == v
        for w in sp:
            assert pi.apply(w) == w
        # linearity spot check
        a, b = rng.getrandbits(d), rng.getrandbits(d)
        assert pi.apply(a ^ b) == pi.apply(a) ^ pi.apply(b)


def test_linear_map_identity_and_rank():
    ident = gf2core.LinearMap.identity(3)
    assert all(ident.apply(v) == v for v in range(8))
    singular = gf2core.LinearMap(2, (1, 1))
    assert singular.rank == 1 and not singular.invertible


def test_vector_serialization_round_trip():
    assert gf2core.vector_to_bits(6, 4) == "0110"
    assert gf2core.vector_from_bits("0110") == (6, 4)
    assert gf2core.vector_from_bits("100") == (1, 3)
    rng = random.Random(14)
    for _ in range(100):
        d = rng.randint(1, 24)
        v = rng.getrandbits(d)
        text = gf2core.vector_to_bits(v, d)
        assert gf2core.vector_from_bits(text) == (v, d)
    with pytest.raises(ValueError):
        gf2core.vector_from_bits("01x")


def test_bits_list_rejects_out_of_range_at_either_end():
    # sorting puts -1 first and 1 << d last; both fail as vector_to_bits does
    for vectors, v in (([3, -1, 0], -1), ([0, 8, 5], 8)):
        with pytest.raises(ValueError,
                           match=f"^vector {v} out of range for dim 3$"):
            gf2core.bits_list(vectors, 3)


def test_memo_is_emptied_at_its_cap_and_stores_no_failure():
    made = []

    def make(key):
        if key < 0:
            raise ValueError(f"negative key {key}")
        made.append(key)
        return key * key

    memo = gf2core.Memo(make, 3)
    assert [memo[k] for k in (1, 2, 3, 2)] == [1, 4, 9, 4]
    assert made == [1, 2, 3] and dict(memo) == {1: 1, 2: 4, 3: 9}
    with pytest.raises(ValueError, match="^negative key -1$"):
        memo[-1]
    assert dict(memo) == {1: 1, 2: 4, 3: 9}  # nothing stored or emptied
    assert memo[4] == 16 and dict(memo) == {4: 16}
    assert memo[1] == 1 and made == [1, 2, 3, 4, 1]
    assert dict(memo) == {4: 16, 1: 1}


def test_bit_strings_match_format():
    rng = random.Random(15)
    for _ in range(2000):
        d = rng.randint(1, 24)
        vs = {rng.getrandbits(d) for _ in range(rng.randint(0, 6))}
        expected = [format(v, f"0{d}b")[::-1] for v in sorted(vs)]
        assert gf2core.bits_list(vs, d) == expected
        assert [gf2core.vector_to_bits(v, d) for v in sorted(vs)] == expected


def test_bit_string_table_stays_under_its_cap():
    d = 20
    table = gf2core._bit_table(d)
    for start in range(0, 5 << 14, 1 << 12):  # 81,920 distinct vectors
        chunk = range(start, start + (1 << 12))
        texts = gf2core.bits_list(chunk, d)
        assert len(table) <= gf2core.MAX_BIT_STRINGS
        assert texts[-1] == format(chunk[-1], f"0{d}b")[::-1]
        assert gf2core.vector_to_bits(start, d) == texts[0]


def test_vector_to_bits_rejects_out_of_range():
    assert gf2core.vector_to_bits(0, 3) == "000"
    assert gf2core.vector_to_bits(7, 3) == "111"
    for v in (-1, 8, 1 << 24):
        with pytest.raises(ValueError,
                           match=f"^vector {v} out of range for dim 3$"):
            gf2core.vector_to_bits(v, 3)
