"""Exact linear algebra over GF(2): spans, basis extension, subspace
enumeration, and invertible maps fixing a subspace pointwise.

Vectors are d-bit ints with coordinate i stored in bit i; all deterministic
choices use ascending integer order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from . import _kernels
from .errors import BudgetExceeded, DimensionExhausted, IntermediateAssertFailed, PointInSpan

MAX_DIM = 24
ENUM_MAX_DIM = 12
SPAN_BUDGET = 1 << 20
DEFAULT_SUBSPACE_BUDGET = 100_000


def check_dim(dim: int) -> None:
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in 1..{MAX_DIM}, got {dim}")


def check_vectors(vectors: Iterable[int], dim: int) -> tuple[int, ...]:
    vs = tuple(vectors)
    for v in vs:
        if not 0 <= v < (1 << dim):
            raise ValueError(f"vector {v} out of range for dim {dim}")
    return vs


@dataclass(frozen=True)
class Subspace:
    """A linear subspace with its canonical basis and materialized members."""

    dim: int
    basis: tuple[int, ...]
    members: frozenset[int]

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __contains__(self, v: int) -> bool:
        return v in self.members


@dataclass(frozen=True)
class LinearMap:
    """A linear map on GF(2)^d, stored as the images of the standard basis."""

    dim: int
    cols: tuple[int, ...]

    def __post_init__(self):
        if len(self.cols) != self.dim:
            raise ValueError("need one column per dimension")
        check_vectors(self.cols, self.dim)

    @classmethod
    def identity(cls, dim: int) -> "LinearMap":
        return cls(dim, tuple(1 << i for i in range(dim)))

    @property
    def rank(self) -> int:
        return _kernels.gf2_rank(self.cols)

    @property
    def invertible(self) -> bool:
        return self.rank == self.dim

    def apply(self, v: int) -> int:
        out = 0
        i = 0
        while v:
            if v & 1:
                out ^= self.cols[i]
            v >>= 1
            i += 1
        return out

    def apply_set(self, vectors: Iterable[int]) -> frozenset[int]:
        return frozenset(self.apply(v) for v in vectors)

    def __call__(self, v: int) -> int:
        return self.apply(v)


def random_invertible(dim: int, rng: random.Random) -> LinearMap:
    """Rejection-sample an invertible map from random bit matrices."""
    while True:
        cols = tuple(rng.getrandbits(dim) for _ in range(dim))
        candidate = LinearMap(dim, cols)
        if candidate.invertible:
            return candidate


def all_invertible(dim: int) -> list[LinearMap]:
    """Every invertible map on GF(2)^dim, columns in lexicographic order;
    exhaustive, so dim <= 4."""
    if dim > 4:
        raise ValueError("exhaustive GL enumeration limited to dim <= 4")
    maps = (LinearMap(dim, cols)
            for cols in product(range(1 << dim), repeat=dim))
    return [m for m in maps if m.invertible]


def span(vectors: Iterable[int], dim: int) -> Subspace:
    """Smallest subspace containing the vectors; basis in RREF order."""
    check_dim(dim)
    vs = check_vectors(vectors, dim)
    basis = _kernels.rref_basis(vs)
    if 1 << len(basis) > SPAN_BUDGET:
        raise BudgetExceeded(
            f"span would materialize 2^{len(basis)} members")
    return Subspace(dim, basis, frozenset(_kernels.span_members(basis)))


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional subspaces of GF(2)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (i + 1)) - 1
    return num // den


def extend_independent(avoid: Iterable[int], count: int, dim: int) -> list[int]:
    """Pick `count` vectors, each the least one outside the span so far.

    Successive picks stay independent over span(avoid); raises
    DimensionExhausted when the ambient space is too small.
    """
    check_dim(dim)
    avoid = check_vectors(avoid, dim)
    if count < 0:
        raise ValueError("count must be non-negative")
    if _kernels.gf2_rank(avoid) + count > dim:
        raise DimensionExhausted(
            f"rank {_kernels.gf2_rank(avoid)} + {count} exceeds dim {dim}")
    current = set(_kernels.span_members(avoid))
    chosen = []
    size = 1 << dim
    for _ in range(count):
        v = next((x for x in range(1, size) if x not in current), None)
        if v is None:
            raise DimensionExhausted("span already fills the space")
        chosen.append(v)
        current |= {v ^ w for w in current}
    return chosen


def enumerate_subspaces(dim: int, max_card: int | None = None,
                        budget: int = DEFAULT_SUBSPACE_BUDGET) -> list[Subspace]:
    """All subspaces of GF(2)^dim with at most max_card members.

    Sorted by (cardinality, member list). The expected count is computed
    from Gaussian binomials first; BudgetExceeded fires before any work.
    """
    check_dim(dim)
    if max_card is None and dim > ENUM_MAX_DIM:
        raise ValueError(
            f"unbounded enumeration limited to dim <= {ENUM_MAX_DIM}")
    max_rank = dim
    if max_card is not None:
        if max_card < 1:
            return []
        max_rank = min(dim, max_card.bit_length() - 1)
    expected = sum(gaussian_binomial(dim, r) for r in range(max_rank + 1))
    if expected > budget:
        raise BudgetExceeded(
            f"{expected} subspaces exceed the budget of {budget}")

    spaces: list[tuple[int, ...]] = []

    def grow(members: frozenset[int], last: int, rank: int) -> None:
        spaces.append(tuple(sorted(members)))
        if rank == max_rank:
            return
        for v in range(last + 1, 1 << dim):
            if v in members:
                continue
            if any(v ^ w < v for w in members):
                continue  # v must be the least element of its coset
            grow(members | {v ^ w for w in members}, v, rank + 1)

    grow(frozenset([0]), 0, 0)
    spaces.sort(key=lambda ms: (len(ms), ms))
    return [Subspace(dim, _kernels.rref_basis(ms), frozenset(ms))
            for ms in spaces]


def _echelon_with_combos(vectors: Sequence[int]) -> dict[int, tuple[int, int]]:
    """Echelon rows tagged with the input combination producing them."""
    pivots: dict[int, tuple[int, int]] = {}
    for idx, v in enumerate(vectors):
        combo = 1 << idx
        while v:
            lead = v.bit_length() - 1
            if lead in pivots:
                pv, pc = pivots[lead]
                v ^= pv
                combo ^= pc
            else:
                pivots[lead] = (v, combo)
                break
    return pivots


def _express(target: int, pivots: dict[int, tuple[int, int]]) -> int | None:
    """Combination bitmask expressing target, or None if outside the span."""
    combo = 0
    v = target
    while v:
        lead = v.bit_length() - 1
        if lead not in pivots:
            return None
        pv, pc = pivots[lead]
        v ^= pv
        combo ^= pc
    return combo


def _complete_basis(partial: list[int], dim: int) -> list[int]:
    """Extend a partial basis to a full one using least vectors first."""
    basis = list(partial)
    current = set(_kernels.span_members(basis))
    while len(basis) < dim:
        v = next(x for x in range(1, 1 << dim) if x not in current)
        basis.append(v)
        current |= {v ^ w for w in current}
    return basis


def fixing_linear_map(fixed: Iterable[int], u: int, v: int, dim: int) -> LinearMap:
    """Invertible map fixing span(fixed) pointwise and sending u to v."""
    check_dim(dim)
    fixed = check_vectors(fixed, dim)
    check_vectors((u, v), dim)
    fixed_span = span(fixed, dim)
    if u in fixed_span.members or v in fixed_span.members:
        raise PointInSpan("u and v must lie outside span(fixed)")
    base = list(fixed_span.basis)
    domain = _complete_basis(base + [u], dim)
    codomain = _complete_basis(base + [v], dim)
    pivots = _echelon_with_combos(domain)
    cols = []
    for i in range(dim):
        combo = _express(1 << i, pivots)
        if combo is None:
            raise IntermediateAssertFailed("domain basis is not a basis")
        img = 0
        j = 0
        while combo:
            if combo & 1:
                img ^= codomain[j]
            combo >>= 1
            j += 1
        cols.append(img)
    pi = LinearMap(dim, tuple(cols))
    if not pi.invertible or pi.apply(u) != v:
        raise IntermediateAssertFailed("fixing map construction failed")
    for w in fixed_span.members:
        if pi.apply(w) != w:
            raise IntermediateAssertFailed("fixing map moves the span")
    return pi


def vector_to_bits(v: int, dim: int) -> str:
    """Serialize a vector as a binary string, coordinate 0 leftmost."""
    if not 0 <= v < (1 << dim):
        raise ValueError(f"vector {v} out of range for dim {dim}")
    return format(v, f"0{dim}b")[::-1]


def vector_from_bits(text: str) -> tuple[int, int]:
    """Parse a binary string into (vector, dim); coordinate 0 leftmost."""
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"not a binary vector string: {text!r}")
    v = sum(1 << i for i, ch in enumerate(text) if ch == "1")
    return v, len(text)


def bits_list(vectors: Iterable[int], dim: int) -> list[str]:
    """Serialize a vector set as its sorted binary strings."""
    return [vector_to_bits(v, dim) for v in sorted(vectors)]
