"""Pure-Python GF(2) kernels.

Reference implementations of the hot inner loops; the compiled extension
(_gf2ext) mirrors these semantics exactly. Vectors are d-bit ints
(coordinate i = bit i), subsets of GF(2)^d are plain collections of ints.
"""

from bisect import bisect_right


def rref_basis(vectors):
    """Reduced row-echelon basis of the span, as an ascending tuple.

    Every basis vector owns its leading bit exclusively, which makes the
    result canonical for a given span.
    """
    basis = []
    for v in vectors:
        for b in basis:
            if v ^ b < v:
                v ^= b
        if v:
            basis = [b ^ v if b ^ v < b else b for b in basis]
            basis.append(v)
    basis.sort()
    return tuple(basis)


def gf2_rank(vectors):
    """Rank of a collection of d-bit vectors over GF(2)."""
    return len(rref_basis(vectors))


def span_members(vectors):
    """All 2^rank elements of the span, as a sorted tuple."""
    members = [0]
    for b in rref_basis(vectors):
        members += [m ^ b for m in members]
    members.sort()
    return tuple(members)


def _grow_subspaces(mset, nonzero, span, last, leaders, visit):
    visit(span)
    for v in nonzero[bisect_right(nonzero, last):]:
        # canonical generator: v is the least element of its coset exactly
        # when it has none of the span's echelon leading bits
        if v & leaders:
            continue
        coset = {v ^ w for w in span}
        if coset <= mset:
            _grow_subspaces(mset, nonzero, span | coset, v,
                            leaders | 1 << (v.bit_length() - 1), visit)


def _dominant_subspace(mset):
    """A subspace X inside the set S with 3|X| > 2|S|, or None.  Such an X
    is the unique largest subspace in S: a subspace W inside S with
    |W| >= |X| meets X in at least |W| + |X| - |S| > |W|/2 points, so
    W and X are equal.

    X grows greedily over S in ascending order, keeping the points x with
    x + X inside S.  A point v joins when it is one of those and enough of
    them stay for X + v, which all lie among them, to be large enough."""
    need = 2 * len(mset)
    span = {0}
    cosets = mset  # the points x with x + span inside the set
    for v in sorted(mset):
        if v in span or v not in cosets:
            continue
        kept = {x for x in cosets if x ^ v in cosets}
        if 3 * len(kept) > need:
            span |= {w ^ v for w in span}
            cosets = kept
    return span if 3 * len(span) > need else None


def union_of_max_subspaces(members):
    """Union of all maximum-cardinality subspaces inside the set.

    Requires 0 in members. Returns (max_cardinality, sorted union tuple).
    """
    mset = set(members)
    if 0 not in mset:
        raise ValueError("union_of_max_subspaces needs 0 in the set")
    dominant = _dominant_subspace(mset)
    if dominant is not None:
        return len(dominant), tuple(sorted(dominant))
    return _search_max_subspaces(mset)


def _search_max_subspaces(mset):
    """The same result by visiting every subspace inside the set."""
    nonzero = sorted(v for v in mset if v)
    state = {"card": 1, "union": {0}}

    def visit(span):
        if len(span) > state["card"]:
            state["card"] = len(span)
            state["union"] = set(span)
        elif len(span) == state["card"]:
            state["union"] |= span

    _grow_subspaces(mset, nonzero, {0}, 0, 0, visit)
    return state["card"], tuple(sorted(state["union"]))
