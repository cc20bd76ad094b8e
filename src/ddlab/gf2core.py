"""Exact linear algebra over GF(2): spans, basis extension, subspace
enumeration, and invertible maps fixing a subspace pointwise.

Vectors are d-bit ints with coordinate i stored in bit i; all deterministic
choices use ascending integer order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Iterator

from . import _kernels
from .errors import BudgetExceeded, DimensionExhausted, IntermediateAssertFailed, PointInSpan

MAX_DIM = 24
SPAN_BUDGET = 1 << 20
DEFAULT_SUBSPACE_BUDGET = 100_000
# The most bit strings kept per dimension for serialization, the cap of its
# `Memo`.  `orbits --dim 20` serializes 2^20 vectors and peaks at 210 MB
# with the cap, 240 MB without it.
MAX_BIT_STRINGS = 1 << 16


class Memo(dict):
    """A lookup table filled on first lookup: a missing key's value is
    `make(key)`, stored after emptying the memo if it already holds `cap`
    entries.  A `make` that raises stores nothing and empties nothing.

    `make` should hold no reference to the memo's owner, or the two form a
    cycle that only the garbage collector frees."""

    __slots__ = ("make", "cap")

    def __init__(self, make: Callable, cap: int):
        super().__init__()
        self.make = make
        self.cap = cap

    def __missing__(self, key):
        value = self.make(key)
        if len(self) >= self.cap:
            self.clear()
        self[key] = value
        return value


def mask_points(mask: int) -> list[int]:
    """The positions of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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


def gl_generators(dim: int) -> list[LinearMap]:
    """Two maps generating GL(dim, 2): e1 -> e0 + e1, and e_i -> e_(i+1)."""
    basis = LinearMap.identity(dim).cols
    return [LinearMap(dim, (1, 3) + basis[2:]),
            LinearMap(dim, basis[1:] + basis[:1])] if dim > 1 else []


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

    The leading bits of an echelon basis are fixed by its span.  When
    bits 0..j-1 all lead basis vectors, every vector below 2^j lies in the
    span, and 2^j does not when bit j leads none; so the least vector
    outside is 1 << j for the least non-leading bit j, and picking it
    makes j leading.
    """
    check_dim(dim)
    avoid = check_vectors(avoid, dim)
    if count < 0:
        raise ValueError("count must be non-negative")
    basis = _kernels.rref_basis(avoid)
    if len(basis) + count > dim:
        raise DimensionExhausted(
            f"rank {len(basis)} + {count} exceeds dim {dim}")
    leaders = 0
    for b in basis:
        leaders |= 1 << (b.bit_length() - 1)
    chosen = []
    for _ in range(count):
        free = ~leaders & (leaders + 1)
        chosen.append(free)
        leaders |= free
    return chosen


def enumerate_subspaces(dim: int) -> Iterator[Subspace]:
    """The subspaces of GF(2)^dim, lazily.

    Yielded by (cardinality, member list).  The dim and the expected
    count, from Gaussian binomials, are checked when this is called:
    ValueError and BudgetExceeded fire before any work.
    """
    check_dim(dim)
    expected = sum(gaussian_binomial(dim, r) for r in range(dim + 1))
    if expected > DEFAULT_SUBSPACE_BUDGET:
        raise BudgetExceeded(f"{expected} subspaces exceed the budget of "
                             f"{DEFAULT_SUBSPACE_BUDGET}")
    return _subspaces_by_rank(dim)


def _subspaces_by_rank(dim: int) -> Iterator[Subspace]:
    """Each rank sorted by member list, built once the rank below is read:
    rank r + 1 extends by every v past its top leading bit and without the
    others, the least of its coset (each member but 0 tops at a leader)."""
    level = [(frozenset([0]), 0)]  # (members, echelon leading bits)
    for rank in range(dim + 1):
        for members in sorted(sorted(ms) for ms, _ in level):
            yield Subspace(dim, _kernels.rref_basis(members),
                           frozenset(members))
        if rank < dim:
            level = [(members | {v ^ w for w in members},
                      leaders | 1 << (v.bit_length() - 1))
                     for members, leaders in level
                     for v in range(1 << leaders.bit_length(), 1 << dim)
                     if not v & leaders]


def fixing_linear_map(fixed: Iterable[int], u: int, v: int, dim: int) -> LinearMap:
    """Invertible map fixing span(fixed) pointwise and sending u to v.

    It sends the domain basis, span(fixed)'s echelon basis then u then the
    least picks outside, to the codomain basis, the same with v for u.  The
    domain reduces to the echelon rows e_0 .. e_(dim-1), each carrying its
    image along: the columns."""
    check_dim(dim)
    fixed = check_vectors(fixed, dim)
    check_vectors((u, v), dim)
    fixed_span = span(fixed, dim)
    if u in fixed_span.members or v in fixed_span.members:
        raise PointInSpan("u and v must lie outside span(fixed)")
    base = list(fixed_span.basis)
    rest = dim - len(base) - 1
    domain = base + [u] + extend_independent(base + [u], rest, dim)
    codomain = base + [v] + extend_independent(base + [v], rest, dim)
    rows = []  # (row, image), each row owning its leading bit
    for x, y in zip(domain, codomain):
        for b, image in rows:
            if x ^ b < x:
                x ^= b
                y ^= image
        rows = [(b ^ x, image ^ y) if b ^ x < b else (b, image)
                for b, image in rows]
        rows.append((x, y))
    pi = LinearMap(dim, tuple(image for _, image in sorted(rows)))
    if not pi.invertible or pi.apply(u) != v:
        raise IntermediateAssertFailed("fixing map construction failed")
    for w in fixed_span.members:
        if pi.apply(w) != w:
            raise IntermediateAssertFailed("fixing map moves the span")
    return pi


@cache
def _bit_table(dim: int) -> Memo:
    """v -> the bit string of v, for the vectors of GF(2)^dim."""
    spec = f"0{dim}b"

    def make(v: int) -> str:
        if not 0 <= v < (1 << dim):
            raise ValueError(f"vector {v} out of range for dim {dim}")
        return format(v, spec)[::-1]

    return Memo(make, MAX_BIT_STRINGS)


def vector_to_bits(v: int, dim: int) -> str:
    """Serialize a vector as a binary string, coordinate 0 leftmost."""
    return _bit_table(dim)[v]


def vector_from_bits(text: str) -> tuple[int, int]:
    """Parse a binary string into (vector, dim); coordinate 0 leftmost."""
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"not a binary vector string: {text!r}")
    v = sum(1 << i for i, ch in enumerate(text) if ch == "1")
    return v, len(text)


def bits_list(vectors: Iterable[int], dim: int) -> list[str]:
    """Serialize a vector set as its sorted binary strings."""
    table = _bit_table(dim)
    return [table[v] for v in sorted(vectors)]
