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


def canonicalize(formula: Formula) -> Formula:
    """The canonical DNF: all complete equality types implying the formula,
    rendered as complete conjunctions, sorted.  A type is decided at its
    witness: with its constants among the params, a formula takes one
    value on every tuple realizing a type."""
    ground = len(formula.params) + formula.arity
    included = [t for t in complete_types(formula.arity, formula.params)
                if evaluate(formula, t.witness(ground))]
    body = tuple(sorted(t.to_literals() for t in included))
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


_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_VARIABLE = re.compile(r"x(\d+)")
_CONSTANT = re.compile(r"c(\d+)")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN.finditer(text):
        tokens.append((m.group(), m.start()))
    return tokens


def _parse_sexpr(tokens, pos):
    if pos >= len(tokens):
        raise FormulaSyntaxError("unexpected end of input", position=None)
    tok, where = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while True:
            if pos >= len(tokens):
                raise FormulaSyntaxError("unclosed parenthesis",
                                         position=where)
            if tokens[pos][0] == ")":
                return items, pos + 1
            node, pos = _parse_sexpr(tokens, pos)
            items.append(node)
    if tok == ")":
        raise FormulaSyntaxError("unexpected ')'", position=where)
    return (tok, where), pos + 1


def _term(node):
    if not isinstance(node, tuple):
        raise FormulaSyntaxError("expected a term", position=None)
    text, where = node
    m = _VARIABLE.fullmatch(text)
    if m:
        idx = int(m.group(1))
        if idx < 1:
            raise FormulaSyntaxError("variable indices start at 1",
                                     position=where)
        return ("var", idx)
    m = _CONSTANT.fullmatch(text)
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


def _ast_to_dnf(node, negate: bool):
    """DNF (list of literal lists) of a parsed node; True/False may appear
    in place of a literal for constant atoms."""
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
        lit = _make_literal(_term(node[1]), _term(node[2]), not negate)
        if lit is True:
            return [[]]
        if lit is False:
            return []
        return [[lit]]
    if head[0] == "not":
        if len(node) != 2:
            raise FormulaSyntaxError("not takes one formula",
                                     position=head[1])
        return _ast_to_dnf(node[1], not negate)
    if head[0] in ("and", "or"):
        conjunctive = (head[0] == "and") != negate
        children = [_ast_to_dnf(child, negate) for child in node[1:]]
        if conjunctive:
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
    tokens = _tokenize(text)
    node, pos = _parse_sexpr(tokens, 0)
    if pos != len(tokens):
        raise FormulaSyntaxError("trailing input", position=tokens[pos][1])
    raw = _ast_to_dnf(node, negate=False)
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
