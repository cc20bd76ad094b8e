"""Quantifier-free equality formulas with parameter constants.

Formulas are kept in disjunctive normal form: a body is a tuple of
disjuncts, each a tuple of literals.  Literals are plain tuples,
("vv", i, j, positive) for x_i = x_j with i < j, and
("vc", i, c, positive) for x_i = c.  The canonical form of a formula is
the sorted DNF whose disjuncts are complete equality types.

Text syntax (S-expressions):
    atom    := (= term term)        term := x<idx> | c<label>
    formula := atom | (not formula) | (and formula*) | (or formula*)
(or) is falsum, (and) is verum.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

from .errors import ArityMismatch, BudgetExceeded, FormulaSyntaxError, UnknownConstant
from .gf2core import Memo

DNF_BUDGET = 1 << 16
# The most literal masks `satisfying_mask` keeps, the cap of its `Memo`.  A
# mask has one bit per point of {0..n-1}^k, which a relation keeps to at
# most 2^12 points; 4,096 such masks take 2.3 MB.
MAX_LITERAL_MASKS = 1 << 12


def _literal_key(lit):
    kind, i, other, positive = lit
    return (0 if kind == "vv" else 1, i, other, not positive)


def _normalize_disjunct(literals) -> tuple:
    return tuple(sorted(set(literals), key=_literal_key))


@dataclass(frozen=True)
class Formula:
    """A DNF equality formula over variables x_1..x_arity and constants,
    each constant one of `params`."""

    arity: int
    params: tuple[int, ...]
    body: tuple[tuple, ...]

    def __post_init__(self):
        if self.arity < 0:
            raise ValueError("arity must be non-negative")
        if tuple(sorted(set(self.params))) != self.params:
            raise ValueError("params must be sorted and duplicate-free")
        stray = {lit[2] for disjunct in self.body for lit in disjunct
                 if lit[0] == "vc"}.difference(self.params)
        if stray:
            raise ValueError(f"constants {sorted(stray)} not among params")


@dataclass(frozen=True)
class EqualityType:
    """A complete equality type: which positions coincide and which equal
    which parameter; fresh blocks are pairwise distinct and avoid all
    parameters."""

    arity: int
    params: tuple[int, ...]
    assign: tuple[tuple, ...]  # per position: ("const", c) or ("fresh", id)

    @classmethod
    def of_point(cls, point: Sequence[int], params: Iterable[int]
                 ) -> "EqualityType":
        """The type realized by a concrete tuple."""
        params = tuple(sorted(set(params)))
        param_set = set(params)
        fresh_ids: dict[int, int] = {}
        assign = []
        for value in point:
            if value in param_set:
                assign.append(("const", value))
            else:
                if value not in fresh_ids:
                    fresh_ids[value] = len(fresh_ids)
                assign.append(("fresh", fresh_ids[value]))
        return cls(len(point), params, tuple(assign))

    @property
    def fresh_count(self) -> int:
        return len({a for a in self.assign if a[0] == "fresh"})

    def realizable(self, ground_size: int) -> bool:
        return ground_size - len(self.params) >= self.fresh_count

    def witness(self, ground_size: int) -> tuple[int, ...]:
        """The least tuple realizing this type: fresh blocks take the
        smallest labels outside the parameters, in block order."""
        if not self.realizable(ground_size):
            raise ValueError("type is not realizable on this ground size")
        params = set(self.params)
        free = [x for x in range(ground_size) if x not in params]
        return tuple(a[1] if a[0] == "const" else free[a[1]]
                     for a in self.assign)

    def to_literals(self) -> tuple:
        """The complete conjunction deciding every variable pair and every
        variable/parameter pair."""
        lits = []
        for i in range(self.arity):
            for j in range(i + 1, self.arity):
                lits.append(("vv", i + 1, j + 1,
                             self.assign[i] == self.assign[j]))
        for i, a in enumerate(self.assign):
            for c in self.params:
                lits.append(("vc", i + 1, c, a == ("const", c)))
        return _normalize_disjunct(lits)


@lru_cache(maxsize=None)
def complete_types(arity: int, params: tuple[int, ...]
                   ) -> tuple[EqualityType, ...]:
    """Every complete equality type on the given arity and (sorted)
    parameters, ascending by `assign`: each grown once as a restricted-growth
    tuple (Knuth, TAOCP 4A, 7.2.1.5), a position taking each parameter, then
    a fresh block already opened or the next new one."""
    out = []

    def grow(assign: tuple, fresh: int):
        if len(assign) == arity:
            out.append(EqualityType(arity, params, assign))
            return
        for c in params:
            grow(assign + (("const", c),), fresh)
        for f in range(fresh + 1):
            grow(assign + (("fresh", f),), fresh + (f == fresh))

    grow((), 0)
    return tuple(out)


@lru_cache(maxsize=None)
def _type_literals(arity: int, params: tuple[int, ...]):
    """For the complete types on (arity, params), in `complete_types`
    order: a mask per literal of the types whose complete conjunction
    holds it, and each conjunction with its type's bit, ascending by
    conjunction."""
    holds: dict = {}
    conjunctions = []
    for i, t in enumerate(complete_types(arity, params)):
        literals = t.to_literals()
        conjunctions.append((literals, 1 << i))
        for lit in literals:
            holds[lit] = holds.get(lit, 0) | 1 << i
    return holds, tuple(sorted(conjunctions))


def canonicalize(formula: Formula) -> Formula:
    """The canonical DNF: all complete equality types implying the formula,
    rendered as complete conjunctions, sorted.  A complete type decides
    every literal over the params, so it implies a disjunct exactly when
    the disjunct's literals lie in its conjunction: the types implying a
    disjunct are the AND of its literals' type masks.  A literal outside
    every conjunction, which only a hand-built body holds (x2 = x1, or a
    variable above the arity), is decided at each type's witness instead,
    where the formula takes the value it takes on the whole type."""
    holds, conjunctions = _type_literals(formula.arity, formula.params)
    implied = 0
    try:
        for disjunct in formula.body:
            mask = -1
            for lit in disjunct:
                mask &= holds[lit]
            implied |= mask
    except KeyError:
        ground = len(formula.params) + formula.arity
        implied = sum(1 << i for i, t in enumerate(
            complete_types(formula.arity, formula.params))
            if evaluate(formula, t.witness(ground)))
    body = tuple(literals for literals, bit in conjunctions if implied & bit)
    return Formula(formula.arity, formula.params, body)


def evaluate(formula: Formula, point: Sequence[int]) -> bool:
    """Propositional truth of the formula at a concrete tuple."""
    if len(point) != formula.arity:
        raise ArityMismatch(
            f"tuple of length {len(point)} against arity {formula.arity}")
    for disjunct in formula.body:
        ok = True
        for kind, i, other, positive in disjunct:
            if kind == "vv":
                truth = point[i - 1] == point[other - 1]
            else:
                truth = point[i - 1] == other
            if truth != positive:
                ok = False
                break
        if ok:
            return True
    return False


def _literal_mask(key) -> int:
    """The points of {0..n-1}^k, as a mask in `product` order, that
    satisfy the literal in key = (n, k, literal)."""
    n, k, (kind, i, other, positive) = key
    points = product(range(n), repeat=k)
    if kind == "vv":
        holds = (point[i - 1] == point[other - 1] for point in points)
    else:
        holds = (point[i - 1] == other for point in points)
    return sum(1 << j for j, truth in enumerate(holds) if truth == positive)


_LITERAL_MASKS = Memo(_literal_mask, MAX_LITERAL_MASKS)


def satisfying_mask(formula: Formula, n: int) -> int:
    """The points of {0..n-1}^arity where the formula holds, as a mask
    whose bit j stands for the j-th point in `itertools.product` order."""
    k = formula.arity
    full = (1 << n ** k) - 1
    out = 0
    for disjunct in formula.body:
        mask = full
        for lit in disjunct:
            mask &= _LITERAL_MASKS[n, k, lit]
        out |= mask
    return out


def _literal_text(lit) -> str:
    kind, i, other, positive = lit
    inner = (f"(= x{i} x{other})" if kind == "vv" else f"(= x{i} c{other})")
    return inner if positive else f"(not {inner})"


def print_formula(formula: Formula) -> str:
    """Deterministic text rendering of the DNF body."""
    disjuncts = []
    for disjunct in formula.body:
        if disjunct:
            disjuncts.append("(and " + " ".join(map(_literal_text, disjunct))
                             + ")")
        else:
            disjuncts.append("(and)")
    if not disjuncts:
        return "(or)"
    return "(or " + " ".join(disjuncts) + ")"


# a token is an atom (= term term) or a negated atom (not (= term term)),
# group 1 marking the negation and groups 2 and 3 holding the terms, a
# parenthesis, or a run of other non-space characters; compiled on first
# use by `re`'s own cache
_TOKEN = (r"\((?:\s*(not)\s*\()?\s*=\s+([^\s()]+)\s+([^\s()]+)\s*\)"
          r"(?(1)\s*\))|[()]|[^\s()]+")
# The most (atom, polarity) pairs `_ATOMS` keeps, the cap of its `Memo`;
# the complete types at arity k over p params use 2(C(k, 2) + kp) of them.
MAX_ATOMS = 1 << 12


def _read(text: str):
    """The one S-expression in the text: a list per application, the
    `re.Match` of each atom and (text, position) per other token."""
    open_lists: list = []  # (items, position of the '(')
    node = None
    for m in re.finditer(_TOKEN, text):
        if node is not None:
            raise FormulaSyntaxError("trailing input", position=m.start())
        tok = m[0]
        if m.lastindex:
            item = m
        elif tok == "(":
            open_lists.append(([], m.start()))
            continue
        elif tok == ")":
            if not open_lists:
                raise FormulaSyntaxError("unexpected ')'",
                                         position=m.start())
            item = open_lists.pop()[0]
        else:
            item = (tok, m.start())
        if open_lists:
            open_lists[-1][0].append(item)
        else:
            node = item
    if open_lists:
        raise FormulaSyntaxError("unclosed parenthesis",
                                 position=open_lists[-1][1])
    if node is None:
        raise FormulaSyntaxError("unexpected end of input", position=None)
    return node


def _term(node):
    if not isinstance(node, tuple):
        raise FormulaSyntaxError("expected a term", position=None)
    text, where = node
    m = re.fullmatch(r"x(\d+)", text)
    if m:
        idx = int(m.group(1))
        if idx < 1:
            raise FormulaSyntaxError("variable indices start at 1",
                                     position=where)
        return ("var", idx)
    m = re.fullmatch(r"c(\d+)", text)
    if m:
        return ("const", int(m.group(1)))
    raise FormulaSyntaxError(f"unknown token class: {text!r}", position=where)


def _make_literal(lhs, rhs, positive: bool):
    """Normalize an equality atom into literal form, or a boolean when the
    atom's truth does not depend on the point."""
    if lhs[0] == "var" and rhs[0] == "var":
        i, j = lhs[1], rhs[1]
        if i == j:
            return positive
        return ("vv", min(i, j), max(i, j), positive)
    if lhs[0] == "var":
        return ("vc", lhs[1], rhs[1], positive)
    if rhs[0] == "var":
        return ("vc", rhs[1], lhs[1], positive)
    return (lhs[1] == rhs[1]) == positive


def _atom_literal(key):
    """`_make_literal` for key = (lhs text, rhs text, positive), or None
    when a term is malformed."""
    lhs, rhs, positive = key
    try:
        return _make_literal(_term((lhs, None)), _term((rhs, None)),
                             positive)
    except FormulaSyntaxError:
        return None


_ATOMS = Memo(_atom_literal, MAX_ATOMS)


def _literal_dnf(lit):
    """The DNF of one atom: its literal, or verum or falsum."""
    if lit is True:
        return [[]]
    if lit is False:
        return []
    return [[lit]]


def _ast_to_dnf(node, negate: bool):
    """DNF (list of literal lists) of a parsed node; True/False may appear
    in place of a literal for constant atoms."""
    if type(node) is re.Match:  # an atom, negated when group 1 matched
        positive = negate == (node[1] is not None)
        lit = _ATOMS[node[2], node[3], positive]
        if lit is None:  # a malformed term, named with its position
            lit = _make_literal(_term((node[2], node.start(2))),
                                _term((node[3], node.start(3))), positive)
        return _literal_dnf(lit)
    if not isinstance(node, list):
        raise FormulaSyntaxError("expected a formula", position=node[1])
    if not node:
        raise FormulaSyntaxError("empty application", position=None)
    head = node[0]
    if not isinstance(head, tuple):
        raise FormulaSyntaxError("expected an operator", position=None)
    if head[0] == "=":
        if len(node) != 3:
            raise FormulaSyntaxError("= takes two terms",
                                     position=head[1])
        return _literal_dnf(
            _make_literal(_term(node[1]), _term(node[2]), not negate))
    if head[0] == "not":
        if len(node) != 2:
            raise FormulaSyntaxError("not takes one formula",
                                     position=head[1])
        return _ast_to_dnf(node[1], not negate)
    if head[0] in ("and", "or"):
        conjunctive = (head[0] == "and") != negate
        children = [_ast_to_dnf(child, negate) for child in node[1:]]
        if conjunctive:
            if all(len(child) == 1 for child in children):
                return [[lit for child in children for lit in child[0]]]
            out = [[]]
            for child in children:
                nxt = []
                for left in out:
                    for right in child:
                        nxt.append(left + right)
                        if len(nxt) > DNF_BUDGET:
                            raise BudgetExceeded(
                                "DNF expansion exceeds the budget")
                out = nxt
            return out
        merged = []
        for child in children:
            merged.extend(child)
        return merged
    raise FormulaSyntaxError(f"unknown operator: {head[0]!r}",
                             position=head[1])


def _clean_disjunct(literals):
    """Drop contradictory disjuncts; None signals such a contradiction."""
    out = _normalize_disjunct(literals)
    seen = {}
    for kind, i, other, positive in out:
        key = (kind, i, other)
        if seen.get(key, positive) != positive:
            return None
        seen[key] = positive
    return out


def parse_formula(text: str, arity: int | None = None,
                  params: tuple[int, ...] | None = None) -> Formula:
    """Parse formula text into DNF form.

    Arity defaults to the largest variable index seen, and params to the
    sorted constants seen; pass them explicitly for formulas that do not
    mention every variable or constant (falsum, verum).
    """
    raw = _ast_to_dnf(_read(text), negate=False)
    body = []
    for literals in raw:
        cleaned = _clean_disjunct(literals)
        if cleaned is not None:
            body.append(cleaned)
    body = tuple(sorted(set(body)))
    seen_vars = {lit[1] for d in body for lit in d}
    seen_vars |= {lit[2] for d in body for lit in d if lit[0] == "vv"}
    seen_consts = {lit[2] for d in body for lit in d if lit[0] == "vc"}
    if arity is None:
        arity = max(seen_vars, default=0)
    elif seen_vars and max(seen_vars) > arity:
        raise FormulaSyntaxError(
            f"variable x{max(seen_vars)} exceeds arity {arity}",
            position=None)
    if params is None:
        params = tuple(sorted(seen_consts))
    else:
        params = tuple(sorted(set(params)))
        missing = seen_consts - set(params)
        if missing:
            raise UnknownConstant(
                f"constants {sorted(missing)} not among params")
    return Formula(arity, params, body)
