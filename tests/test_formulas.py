"""Formula language: parsing, printing, evaluation, canonicalization."""

import random
from collections import Counter
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


# (text, arity, params, error type, message, position) of malformed texts,
# as the token-by-token reader reported them
MALFORMED = [
    ('(= x1 y2)', None, None,
     'FormulaSyntaxError', "unknown token class: 'y2'", 6),
    ('(= x1 2)', None, None,
     'FormulaSyntaxError', "unknown token class: '2'", 6),
    ('(= X1 x2)', None, None,
     'FormulaSyntaxError', "unknown token class: 'X1'", 3),
    ('(= x1 c)', None, None,
     'FormulaSyntaxError', "unknown token class: 'c'", 6),
    ('(= x1 cx)', None, None,
     'FormulaSyntaxError', "unknown token class: 'cx'", 6),
    ('(= x-1 x2)', None, None,
     'FormulaSyntaxError', "unknown token class: 'x-1'", 3),
    ('(= = x1)', None, None,
     'FormulaSyntaxError', "unknown token class: '='", 3),
    ('(= x1 (= x1 x2))', None, None,
     'FormulaSyntaxError', 'expected a term', None),
    ('(= (x1) x2)', None, None,
     'FormulaSyntaxError', 'expected a term', None),
    ('(and (= x1 x2) (= x2 q))', None, None,
     'FormulaSyntaxError', "unknown token class: 'q'", 21),
    ('(= x1)', None, None,
     'FormulaSyntaxError', '= takes two terms', 1),
    ('(=)', None, None,
     'FormulaSyntaxError', '= takes two terms', 1),
    ('(= x1 x2 x3)', None, None,
     'FormulaSyntaxError', '= takes two terms', 1),
    ('(= (= x1 x2) x3 x4)', None, None,
     'FormulaSyntaxError', '= takes two terms', 1),
    ('(or (= x1 x2)', None, None,
     'FormulaSyntaxError', 'unclosed parenthesis', 0),
    ('(', None, None,
     'FormulaSyntaxError', 'unclosed parenthesis', 0),
    ('((', None, None,
     'FormulaSyntaxError', 'unclosed parenthesis', 1),
    ('(and (= x1 x2) (not (= x1 c3)', None, None,
     'FormulaSyntaxError', 'unclosed parenthesis', 15),
    (')', None, None,
     'FormulaSyntaxError', "unexpected ')'", 0),
    (') (= x1 x2)', None, None,
     'FormulaSyntaxError', "unexpected ')'", 0),
    ('(= x1 x2))', None, None,
     'FormulaSyntaxError', 'trailing input', 9),
    ('(= x1 x2) junk', None, None,
     'FormulaSyntaxError', 'trailing input', 10),
    ('(= x1 x2) (= x1 x2)', None, None,
     'FormulaSyntaxError', 'trailing input', 10),
    ('(or) x1', None, None,
     'FormulaSyntaxError', 'trailing input', 5),
    ('', None, None,
     'FormulaSyntaxError', 'unexpected end of input', None),
    ('   ', None, None,
     'FormulaSyntaxError', 'unexpected end of input', None),
    ('(= x0 x1)', None, None,
     'FormulaSyntaxError', 'variable indices start at 1', 3),
    ('(= x1 x0)', None, None,
     'FormulaSyntaxError', 'variable indices start at 1', 6),
    ('(not (= c3 x0))', None, None,
     'FormulaSyntaxError', 'variable indices start at 1', 11),
    ('(= x00 x1)', None, None,
     'FormulaSyntaxError', 'variable indices start at 1', 3),
    ('(= x3 x1)', 2, None,
     'FormulaSyntaxError', 'variable x3 exceeds arity 2', None),
    ('(or (= x1 c2) (= x4 c2))', 3, None,
     'FormulaSyntaxError', 'variable x4 exceeds arity 3', None),
    ('(and (= x1 x2) (not (= x1 x3)))', 1, (0,),
     'FormulaSyntaxError', 'variable x3 exceeds arity 1', None),
    ('(= x1 c7)', None, (1, 2),
     'UnknownConstant', 'constants [7] not among params', None),
    ('(and (= x1 c7) (= x2 c8))', None, (),
     'UnknownConstant', 'constants [7, 8] not among params', None),
    ('(or (= c7 x1) (= x1 c1))', 1, (1,),
     'UnknownConstant', 'constants [7] not among params', None),
    ('(xor (= x1 x2))', None, None,
     'FormulaSyntaxError', "unknown operator: 'xor'", 1),
    ('(implies (= x1 x2) (= x1 c1))', None, None,
     'FormulaSyntaxError', "unknown operator: 'implies'", 1),
    ('(=x1 x2)', None, None,
     'FormulaSyntaxError', "unknown operator: '=x1'", 1),
    ('((= x1 x2))', None, None,
     'FormulaSyntaxError', 'expected an operator', None),
    ('()', None, None,
     'FormulaSyntaxError', 'empty application', None),
    ('x1', None, None,
     'FormulaSyntaxError', 'expected a formula', 0),
    ('(and x1)', None, None,
     'FormulaSyntaxError', 'expected a formula', 5),
    ('(or (= x1 x2) c3)', None, None,
     'FormulaSyntaxError', 'expected a formula', 14),
    ('(not)', None, None,
     'FormulaSyntaxError', 'not takes one formula', 1),
    ('(not (= x1 x2) (= x1 x2))', None, None,
     'FormulaSyntaxError', 'not takes one formula', 1),
    ('(and (or) (xor))', None, None,
     'FormulaSyntaxError', "unknown operator: 'xor'", 11),
    ('(or (= x1 y1) (= x1 x0))', None, None,
     'FormulaSyntaxError', "unknown token class: 'y1'", 10),
    ('(not (not (and (= x1 x2) (or (= x1 c1) (bad)))))', None, None,
     'FormulaSyntaxError', "unknown operator: 'bad'", 40),
    ('(and (= x1 x2) ( = x2 z9 ) )', None, None,
     'FormulaSyntaxError', "unknown token class: 'z9'", 22),
    ('(and\n(= x1\tx2)\n(= x2 w))', None, None,
     'FormulaSyntaxError', "unknown token class: 'w'", 21),
    ('( = x1 x2', None, None,
     'FormulaSyntaxError', 'unclosed parenthesis', 0),
    ('(not ( = x1 x2 )) )', None, None,
     'FormulaSyntaxError', 'trailing input', 18),
    ('(= c1 c1) (', None, None,
     'FormulaSyntaxError', 'trailing input', 10),
    ('(or (= x1 x2) (and (= x1 c1) (not (= x1 c2))) (= c5 x7))', 2, (1, 2, 5),
     'FormulaSyntaxError', 'variable x7 exceeds arity 2', None),
]


@pytest.mark.parametrize("text, arity, params, kind, message, position",
                         MALFORMED)
def test_malformed_text_errors_are_pinned(text, arity, params, kind,
                                          message, position):
    with pytest.raises((FormulaSyntaxError, UnknownConstant)) as info:
        fm.parse_formula(text, arity=arity, params=params)
    assert type(info.value).__name__ == kind
    assert str(info.value) == message
    assert getattr(info.value, "position", None) == position


def eval_text(text, point):
    """Truth of well-formed formula text at a point, read straight from
    the S-expression: a variable xi is point[i - 1], a constant cj is j."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()

    def value(term):
        return point[int(term[1:]) - 1] if term[0] == "x" else int(term[1:])

    def node(i):  # the truth of the node opening at tokens[i], and its end
        if tokens[i + 1] == "=":
            return value(tokens[i + 2]) == value(tokens[i + 3]), i + 5
        op, i, truths = tokens[i + 1], i + 2, []
        while tokens[i] != ")":
            truth, i = node(i)
            truths.append(truth)
        return {"not": lambda t: not t[0], "and": all, "or": any}[op](
            truths), i + 1
    return node(0)[0]


def random_text(rng, k, constants, depth):
    """Seeded nested formula text over x1..xk and the constants, spaced at
    random; an atom may join two constants or repeat a variable."""
    def gap(needed):
        return rng.choice([" ", "  ", "\n", "\t "] if needed
                          else ["", "", " ", "\n"])

    if depth == 0 or rng.random() < 0.2:
        terms = [f"x{i}" for i in range(1, k + 1)]
        terms += [f"c{c}" for c in constants]
        return (f"({gap(False)}={gap(True)}{rng.choice(terms)}{gap(True)}"
                f"{rng.choice(terms)}{gap(False)})")
    op = rng.choice(["not", "and", "or"])
    children = [random_text(rng, k, constants, depth - 1)
                for _ in range(1 if op == "not" else rng.randint(0, 3))]
    return (f"({gap(False)}{op}" + "".join(gap(False) + child
                                           for child in children)
            + f"{gap(False)})")


def test_nested_texts_agree_with_a_direct_reading():
    # 300 seeded texts, each checked at every point of a ground of 3 or 4
    # points; constants may lie outside the ground
    rng = random.Random(46)
    shapes = Counter()
    for _ in range(300):
        n, k = rng.randint(3, 4), rng.randint(1, 3)
        constants = rng.sample(range(6), rng.randint(0, 2))
        text = random_text(rng, k, constants, rng.randint(2, 4))
        formula = fm.parse_formula(text, arity=k, params=tuple(constants))
        shapes[len(formula.body) > 1, "(not" in text.replace("( ", "(")] += 1
        for point in product(range(n), repeat=k):
            assert fm.evaluate(formula, point) == eval_text(text, point), \
                (text, point)
    assert min(shapes.values()) >= 15, shapes


def test_atom_memo_is_capped():
    text = "(or " + " ".join(f"(= x1 c{c})" for c in range(5000)) + ")"
    formula = fm.parse_formula(text)
    assert len(formula.body) == 5000 and formula.params == tuple(range(5000))
    assert 0 < len(fm._ATOMS) <= fm.MAX_ATOMS


def canonicalize_at_witnesses(formula):
    """The canonical form by its definition: the complete types whose
    witness satisfies the formula."""
    ground = len(formula.params) + formula.arity
    return fm.Formula(formula.arity, formula.params, tuple(sorted(
        t.to_literals()
        for t in fm.complete_types(formula.arity, formula.params)
        if fm.evaluate(formula, t.witness(ground)))))


def test_canonicalize_agrees_with_evaluation_at_witnesses(monkeypatch):
    # 400 seeded DNF bodies with params inside and outside the ground
    # (|params| + arity points), falsum and verum among them, and some
    # hand-built literals that no complete type holds (x2 = x1, x1 = x1)
    rng = random.Random(47)
    formulas = []
    for index in range(400):
        k = rng.randint(0, 3)
        params = tuple(sorted(rng.sample(range(6), rng.randint(0, 2))))
        literals = [("vv", i, j, positive) for i in range(1, k + 1)
                    for j in range(i + 1, k + 1) for positive in (True, False)]
        literals += [("vc", i, c, positive) for i in range(1, k + 1)
                     for c in params for positive in (True, False)]
        body = [rng.sample(literals, rng.randint(0, min(3, len(literals))))
                for _ in range(rng.randint(0, 3))]
        if index % 20 == 0 and k:
            body.append([("vv", k, 1, rng.random() < 0.5)])
        formulas.append(fm.Formula(k, params, tuple(map(tuple, body))))
    formulas += [fm.parse_formula(text, arity=k, params=params)
                 for text in ("(or)", "(and)") for k in range(3)
                 for params in ((), (1,), (0, 7))]
    hand_built = sum(any(lit[1] >= lit[2] for d in f.body for lit in d
                         if lit[0] == "vv") for f in formulas)
    assert hand_built == 14
    for formula in formulas:
        assert fm.canonicalize(formula) == canonicalize_at_witnesses(formula)
    calls = []
    monkeypatch.setattr(fm, "evaluate", lambda *args: calls.append(args))
    for formula in formulas[:60]:
        if not any(lit[1] >= lit[2] for d in formula.body for lit in d
                   if lit[0] == "vv"):
            fm.canonicalize(formula)
    assert calls == []
