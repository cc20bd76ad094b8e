"""Brute-force references the benchmark checks ddlab's outputs against.

Nothing here imports ddlab.  Each function recomputes a quantity from its
definition, by exhaustive search where the inputs are small, so that a
check never compares the program with a copy of its own earlier output.
Vectors are ints with coordinate i in bit i, as in ddlab; the CLI writes
them as bit strings with coordinate 0 leftmost.
"""

import re
from itertools import combinations, product


def bits_to_int(text):
    """Parse a CLI bit string (coordinate 0 leftmost) into an int."""
    if not text or set(text) - {"0", "1"}:
        raise ValueError(f"not a bit string: {text!r}")
    return int(text[::-1], 2)


# --- GF(2) -----------------------------------------------------------------

def span(vectors):
    """All XOR combinations of the vectors, as a frozenset."""
    members = {0}
    for v in vectors:
        if v not in members:
            members |= {v ^ m for m in members}
    return frozenset(members)


def is_subspace(members):
    """True when the set holds 0 and is closed under XOR."""
    s = set(members)
    return 0 in s and all(a ^ b in s for a in s for b in s)


def affine_hull(points):
    """Smallest affine flat through the points: a0 ^ span{a ^ a0}."""
    pts = sorted(points)
    if not pts:
        return frozenset()
    a0 = pts[0]
    return frozenset(a0 ^ m for m in span(a ^ a0 for a in pts[1:]))


def subspaces_inside(members):
    """Every subspace contained in the set, found by growing {0} one
    XOR-closure at a time (each subspace is reached at least once)."""
    s = frozenset(members)
    if 0 not in s:
        return set()
    found = {frozenset([0])}
    frontier = [frozenset([0])]
    while frontier:
        nxt = []
        for w in frontier:
            for v in s - w:
                grown = w | {v ^ x for x in w}
                if grown <= s and grown not in found:
                    found.add(grown)
                    nxt.append(grown)
        frontier = nxt
    return found


def surject_linear(members):
    """The subset surjection: strip the union of the largest subspaces
    inside the set when 0 is in it, else adjoin 0."""
    s = frozenset(members)
    if 0 not in s:
        return s | {0}
    spaces = subspaces_inside(s)
    top = max(len(w) for w in spaces)
    return s - frozenset().union(*(w for w in spaces if len(w) == top))


def mat_vec(cols, v):
    """Image of v under the map whose i-th column is cols[i]."""
    out = 0
    for i, col in enumerate(cols):
        if v >> i & 1:
            out ^= col
    return out


def is_invertible(cols):
    """True when the map is a bijection of GF(2)^len(cols), by listing
    the image of every vector."""
    size = 1 << len(cols)
    return len({mat_vec(cols, v) for v in range(size)}) == size


# --- the general surjection ------------------------------------------------

class GeneralReference:
    """The pregeometry surjection recomputed from its definition on the
    benchmark's own closure (linear span or affine hull on GF(2)^dim)."""

    def __init__(self, kind, dim):
        self.close = {"linear": span, "affine": affine_hull}[kind]
        self.ground = frozenset(range(1 << dim))
        witness = self._minimal_nondegenerate()
        self.anchor = frozenset(sorted(witness)[:-2])
        self.anchor_closure = self.close(self.anchor)
        self.rank = self.rank_of(self.ground)

    def _minimal_nondegenerate(self):
        labels = sorted(self.ground)
        for size in range(2, len(labels) + 1):
            for combo in combinations(labels, size):
                pointwise = frozenset().union(
                    *(self.close([a]) for a in combo))
                if self.close(combo) != pointwise:
                    return frozenset(combo)
        raise ValueError("degenerate geometry")

    def rank_of(self, points):
        """Size of a greedily grown independent subset of the points."""
        basis = []
        closure = self.close(basis)
        for x in sorted(points):
            if x not in closure:
                basis.append(x)
                closure = self.close(basis)
        return len(basis)

    def admissible(self, target):
        """Whether a preimage of the target can exist by the construction:
        the target meets cl(anchor), or |target| + 1 further independent
        points fit beside anchor and target."""
        t = frozenset(target)
        if t & self.anchor_closure:
            return True
        return self.rank_of(self.anchor | t) + len(t) + 1 <= self.rank

    def surject(self, subset):
        """Strip the union of the largest closed sets W containing
        cl(anchor) with W - cl(anchor) inside the set; identity when the
        set meets cl(anchor)."""
        s = frozenset(subset)
        if s & self.anchor_closure:
            return s
        labels = sorted(s)
        best, union = 0, frozenset()
        for size in range(len(labels) + 1):
            for combo in combinations(labels, size):
                w = self.anchor_closure | frozenset(combo)
                if self.close(w) != w:
                    continue
                if len(w) > best:
                    best, union = len(w), w
                elif len(w) == best:
                    union |= w
        return s - union


# --- relations and formulas ------------------------------------------------

def equality_type(point, params):
    """The complete equality type of a tuple over a parameter set: each
    position is its parameter, or -1 - (first-occurrence index of its
    value among the non-parameters)."""
    fresh = {}
    return tuple(v if v in params else -1 - fresh.setdefault(v, len(fresh))
                 for v in point)


def relation_from_types(n, k, params, rng):
    """A relation on {0..n-1}^k that is the union of a random half of the
    equality types over `params`."""
    points = list(product(range(n), repeat=k))
    types = sorted({equality_type(p, params) for p in points})
    chosen = set(rng.sample(types, len(types) // 2))
    return frozenset(p for p in points if equality_type(p, params) in chosen)


def is_support(tuples, n, members):
    """True when swapping any two points outside `members` maps the
    relation onto itself."""
    outside = [x for x in range(n) if x not in members]
    for i, a in enumerate(outside):
        for b in outside[i + 1:]:
            swap = {a: b, b: a}
            if {tuple(swap.get(x, x) for x in t) for t in tuples} != tuples:
                return False
    return True


_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def parse_text(text):
    """Parse formula text into nested lists of tokens."""
    tokens = _TOKEN.findall(text)
    stack = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) < 2:
                raise ValueError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"malformed formula text: {text[:60]!r}")
    return stack[0][0]


def _term_value(term, point):
    if term[0] == "x":
        return point[int(term[1:]) - 1]
    if term[0] == "c":
        return int(term[1:])
    raise ValueError(f"unknown term {term!r}")


def eval_tree(node, point):
    """Truth of a parsed formula at a tuple (x1 is point[0])."""
    head = node[0]
    if head == "=":
        return _term_value(node[1], point) == _term_value(node[2], point)
    if head == "not":
        return not eval_tree(node[1], point)
    if head == "and":
        return all(eval_tree(child, point) for child in node[1:])
    if head == "or":
        return any(eval_tree(child, point) for child in node[1:])
    raise ValueError(f"unknown operator {head!r}")


def formula_matches(text, tuples, n, k):
    """True when the formula text holds exactly on the relation's tuples,
    over all n^k tuples."""
    tree = parse_text(text)
    return all(eval_tree(tree, p) == (p in tuples)
               for p in product(range(n), repeat=k))
