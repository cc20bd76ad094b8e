"""Formula language: parsing, printing, evaluation, canonicalization."""

import random
from itertools import product

import pytest

from ddlab import formulas as fm
from ddlab.errors import ArityMismatch, FormulaSyntaxError, UnknownConstant


def test_parse_atom():
    f = fm.parse_formula("(= x1 x2)")
    assert f.arity == 2 and f.params == ()
    assert f.body == ((("vv", 1, 2, True),),)


def test_parse_round_trip_example():
    text = "(or (and (= x1 c3) (not (= x2 c3))))"
    f = fm.parse_formula(text)
    assert fm.print_formula(f) == text
    assert fm.parse_formula(fm.print_formula(f)) == f


def test_parse_rejects_unknown_tokens():
    with pytest.raises(FormulaSyntaxError):
        fm.parse_formula("(= x1 y2)")
    with pytest.raises(FormulaSyntaxError):
        fm.parse_formula("(= x1)")
    with pytest.raises(FormulaSyntaxError):
        fm.parse_formula("(or (= x1 x2)")
    with pytest.raises(FormulaSyntaxError):
        fm.parse_formula("(= x0 x1)")
    with pytest.raises(FormulaSyntaxError):
        fm.parse_formula("(= x1 x2) junk")
    with pytest.raises(FormulaSyntaxError):
        fm.parse_formula("(= x3 x1)", arity=2)


def test_parse_position_reported():
    try:
        fm.parse_formula("(= x1 y2)")
    except FormulaSyntaxError as exc:
        assert exc.position == 6
    else:
        pytest.fail("expected a syntax error")


def test_unknown_constant():
    with pytest.raises(UnknownConstant):
        fm.parse_formula("(= x1 c7)", params=(1, 2))
    f = fm.parse_formula("(= x1 c7)", params=(1, 2, 7))
    assert f.params == (1, 2, 7)


def test_body_constants_must_be_params():
    # x1 = c0 holds at (0,) and fails at (1,); with no params,
    # canonicalize could not tell the two apart
    with pytest.raises(ValueError, match=r"constants \[0\] not among"):
        fm.Formula(1, (), ((("vc", 1, 0, True),),))
    assert fm.Formula(1, (0,), ((("vc", 1, 0, True),),)).params == (0,)


def test_special_forms():
    falsum = fm.parse_formula("(or)")
    assert falsum.body == ()
    verum = fm.parse_formula("(and)")
    assert verum.body == ((),)
    assert not fm.evaluate(falsum, ())
    assert fm.evaluate(verum, ())


def test_parse_nested_negation_distributes():
    f = fm.parse_formula("(not (or (= x1 x2) (= x1 c3)))")
    assert fm.evaluate(f, (3, 4)) is False
    assert fm.evaluate(f, (4, 4)) is False
    assert fm.evaluate(f, (4, 5)) is True
    g = fm.parse_formula("(not (and (= x1 x2) (= x1 c3)))")
    assert fm.evaluate(g, (3, 3)) is False
    assert fm.evaluate(g, (4, 4)) is True


def test_constant_only_atoms_fold():
    assert fm.parse_formula("(= c2 c2)").body == ((),)
    assert fm.parse_formula("(= c1 c2)").body == ()
    assert fm.parse_formula("(= x1 x1)").body == ((),)
    assert fm.parse_formula("(not (= x1 x1))").body == ()
    f = fm.parse_formula("(= c5 x2)")
    assert f.body == ((("vc", 2, 5, True),),)


def test_evaluate_examples():
    eq = fm.parse_formula("(= x1 x2)")
    assert fm.evaluate(eq, (2, 2)) is True
    mixed = fm.parse_formula("(and (= x1 c3) (not (= x2 c3)))")
    assert fm.evaluate(mixed, (3, 3)) is False
    assert fm.evaluate(mixed, (3, 4)) is True
    with pytest.raises(ArityMismatch):
        fm.evaluate(eq, (1, 2, 3))


def test_canonicalize_single_literal():
    f = fm.parse_formula("(not (= x1 x2))")
    canon = fm.canonicalize(f)
    assert canon.body == ((("vv", 1, 2, False),),)
    assert fm.parse_formula(fm.print_formula(canon)) == canon


def test_canonicalize_is_semantically_faithful():
    from itertools import product

    texts = [
        "(or (= x1 x2) (= x1 c0))",
        "(and (not (= x1 c1)) (or (= x2 c0) (= x1 x2)))",
        "(not (and (= x1 c0) (= x2 c1)))",
    ]
    for text in texts:
        f = fm.parse_formula(text, arity=2, params=(0, 1))
        canon = fm.canonicalize(f)
        for point in product(range(4), repeat=2):
            assert fm.evaluate(canon, point) == fm.evaluate(f, point), text
        # canonicalization is a fixed point
        assert fm.canonicalize(canon) == canon


def test_satisfying_mask_agrees_with_evaluate():
    # seeded DNF bodies of up to three disjuncts of up to three literals,
    # some constants outside the ground, and falsum and verum at each size
    rng = random.Random(42)
    formulas = []
    for _ in range(400):
        n, k = rng.randint(1, 6), rng.randint(0, 3)
        params = tuple(sorted(rng.sample(range(n + 1), rng.randint(0, 2))))
        literals = [("vv", i, j, positive) for i in range(1, k + 1)
                    for j in range(i + 1, k + 1) for positive in (True, False)]
        literals += [("vc", i, c, positive) for i in range(1, k + 1)
                     for c in params for positive in (True, False)]
        body = tuple(
            tuple(rng.sample(literals, rng.randint(0, min(3, len(literals)))))
            for _ in range(rng.randint(0, 3)))
        formulas.append((n, fm.Formula(k, params, body)))
        for text in ("(or)", "(and)"):
            formulas.append((n, fm.parse_formula(text, arity=k)))
    for n, formula in formulas:
        assert fm.satisfying_mask(formula, n) == sum(
            1 << j for j, point in
            enumerate(product(range(n), repeat=formula.arity))
            if fm.evaluate(formula, point))
    assert fm.satisfying_mask(fm.parse_formula("(or)", arity=2), 3) == 0
    assert fm.satisfying_mask(fm.parse_formula("(and)", arity=2), 3) \
        == (1 << 9) - 1


def test_equality_type_of_point():
    t = fm.EqualityType.of_point((3, 5, 3), params=(5,))
    assert t.assign == (("fresh", 0), ("const", 5), ("fresh", 0))
    assert t.fresh_count == 1
    assert t.realizable(2)
    assert not fm.EqualityType.of_point((1, 2, 3), params=()).realizable(2)


def test_equality_type_witness_and_literals():
    t = fm.EqualityType(2, (1,), (("fresh", 0), ("const", 1)))
    assert t.witness(4) == (0, 1)
    lits = t.to_literals()
    assert ("vv", 1, 2, False) in lits
    assert ("vc", 1, 1, False) in lits and ("vc", 2, 1, True) in lits


def test_complete_types_counts():
    # arity 2 with two constants: merged block gives 3 assignments;
    # split blocks give 2 const/const + 4 const/fresh + 1 fresh/fresh
    types = fm.complete_types(2, (0, 1))
    assert len(types) == 3 + 7
    # every pair of distinct types disagrees on some tuple pattern
    assert len({t.assign for t in types}) == len(types)


def test_complete_types_are_the_types_of_points_in_order():
    # the distinct types of all tuples over |P| + k labels, parameters
    # first, in order of first appearance; criterion 9 draws its random
    # numbers in this order
    from itertools import product
    for params in [(), (0,), (2,), (0, 3), (1, 2, 4)]:
        labels = list(params) + [x for x in range(9) if x not in params]
        for k in range(5):
            points = product(labels[:len(params) + k], repeat=k)
            types = dict.fromkeys(fm.EqualityType.of_point(p, params)
                                  for p in points)
            assert fm.complete_types(k, params) == tuple(types)


def test_dnf_budget():
    clauses = " ".join(
        f"(or (= x1 c{i}) (= x2 c{i}))" for i in range(40))
    with pytest.raises(fm.BudgetExceeded):
        fm.parse_formula(f"(and {clauses})")
