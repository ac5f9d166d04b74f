"""Pointwise exterior algebra over R^{2n} with a compatible (omega, J, g) triple.

Forms are represented exactly on the bitmask basis: a degree-k form on a
2n-dimensional space stores one complex coefficient per k-element subset of
{1..2n}, subsets encoded as integer bitmasks and ordered by increasing mask
value.  A `KForm` may also hold a batch of m forms as a (C(2n,k), m) array,
one form per column; every linear operation acts column by column.  All
operations are pure; `KForm` and `CompatibleTriple` are immutable after
construction and safe to share across threads.

Every operator matrix of a triple is a method of the triple (`t.gram(k)`,
`t.star(k)`, ...), built block by block on first use, kept in the triple's
own memo (`_kept`) and freed with it, so the per-form functions below are
single matrix products; a real block acting on a complex batch is one real
product on the batch's (Re, Im) view (`_apply`).
The blocks are gathers and scatters of the triple's values over
index-and-sign tables of basis products (`_wedge_table`), which depend only
on (2n, k) and are built once per process, as whole-array operations on
the masks.

Coefficients are complex throughout, real forms included, because the
(p,q) type decomposition is intrinsically complex; see CONVENTIONS.md for
the orientation and J-action conventions.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple

import numpy as np

__all__ = [
    "KForm",
    "CompatibleTriple",
    "BigradedForm",
    "basis_masks",
    "mask_to_indices",
    "indices_to_mask",
    "build_standard_triple",
    "wedge",
    "contract_vector",
    "inner",
    "norm",
    "hodge_star",
    "j_action",
    "pq_decompose",
    "weil_operator",
    "form_to_json",
    "form_from_json",
    "triple_to_json",
    "triple_from_json",
]

TOL = 1e-12


# ---------------------------------------------------------------------------
# bitmask basis bookkeeping
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def basis_masks(dim: int, k: int) -> tuple[int, ...]:
    """All k-bit masks over `dim` generators, in increasing numeric order."""
    if k < 0 or k > dim:
        return ()
    masks = [m for m in range(1 << dim) if m.bit_count() == k]
    return tuple(sorted(masks))


@lru_cache(maxsize=None)
def _mask_index(dim: int, k: int) -> dict[int, int]:
    return {m: i for i, m in enumerate(basis_masks(dim, k))}


def mask_to_indices(mask: int) -> tuple[int, ...]:
    """Bitmask -> ascending 1-based generator indices."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def indices_to_mask(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated index {i}")
        mask |= bit
    return mask


# ---------------------------------------------------------------------------
# kept values
# ---------------------------------------------------------------------------

def _read_only(value):
    """`value`, with every array in it made read-only: the value itself, or
    the arrays inside its dicts, tuples and dataclass fields, at any depth."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, dict):
        for v in value.values():
            _read_only(v)
    elif isinstance(value, tuple):
        for v in value:
            _read_only(v)
    elif is_dataclass(value):
        for f in fields(value):
            _read_only(getattr(value, f.name))
    return value


_ABSENT = object()


def _kept(build):
    """build(owner, *args), kept: built on first use, made read-only
    (`_read_only`) and kept in the owner's own memo, its `_kept` dict, under
    (build's name, *args).  Each derived block of a triple, a Fourier
    complex or a mesh is built once, by the one function that names it,
    shared by every reader, and freed with its owner, which the memo holds
    no reference back to.  Threads that miss together each build; one
    equal result is kept."""
    name = build.__name__

    @functools.wraps(build)
    def kept(owner, *args):
        key = (name, *args)
        memo = owner.__dict__.get("_kept")
        if memo is None:
            memo = owner.__dict__.setdefault("_kept", {})
        value = memo.get(key, _ABSENT)
        if value is _ABSENT:
            value = memo[key] = _read_only(build(owner, *args))
        return value

    return kept


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

class KForm:
    """Immutable degree-k exterior form (or batch of forms), complex coefficients.

    Parameters
    ----------
    n : int
        Half-dimension; the underlying space is R^{2n}.
    k : int
        Form degree, 0 <= k <= 2n.
    data : array_like of complex, shape (C(2n, k),) or (C(2n, k), m)
        Coefficients over `basis_masks(2n, k)`; a 2-D array is a batch of
        m forms, one per column.
    """

    __slots__ = ("n", "k", "data")

    def __init__(self, n: int, k: int, data):
        arr = np.array(data, dtype=complex)  # a copy: the caller keeps its own array
        self._take(n, k, arr)

    @classmethod
    def _own(cls, n: int, k: int, arr: np.ndarray) -> "KForm":
        """A form that takes ownership of `arr`, a complex array just computed
        here and referenced nowhere else: checked and made read-only, not copied."""
        if not isinstance(arr, np.ndarray) or arr.dtype != complex:
            raise TypeError(f"expected a complex array, got {getattr(arr, 'dtype', type(arr))}")
        out = object.__new__(cls)
        out._take(n, k, arr)
        return out

    def _take(self, n: int, k: int, arr: np.ndarray) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not 0 <= k <= 2 * n:
            raise ValueError(f"degree {k} out of range [0, {2 * n}]")
        want = math.comb(2 * n, k)
        if arr.ndim not in (1, 2) or arr.shape[0] != want:
            raise ValueError(f"expected {want} coefficients for (n={n}, k={k}), got {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("KForm is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_coeffs(n: int, k: int, coeffs: Mapping[tuple[int, ...], complex]) -> "KForm":
        """Build from a sparse {index tuple: coefficient} mapping."""
        data = np.zeros(math.comb(2 * n, k), dtype=complex)
        index = _mask_index(2 * n, k)
        for idx, c in coeffs.items():
            srt = tuple(sorted(idx))
            if srt != tuple(idx):
                raise ValueError(f"indices must be ascending, got {idx}")
            data[index[indices_to_mask(idx)]] += c
        return KForm(n, k, data)

    # -- access -------------------------------------------------------------

    def conjugate(self) -> "KForm":
        return KForm(self.n, self.k, np.conj(self.data))

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "KForm"):
        if self.n != other.n or self.k != other.k:
            raise ValueError(
                f"incompatible forms: (n={self.n}, k={self.k}) vs (n={other.n}, k={other.k})"
            )

    def __add__(self, other: "KForm") -> "KForm":
        self._check_compatible(other)
        return KForm(self.n, self.k, self.data + other.data)

    def __sub__(self, other: "KForm") -> "KForm":
        self._check_compatible(other)
        return KForm(self.n, self.k, self.data - other.data)

    def __mul__(self, scalar) -> "KForm":
        return KForm(self.n, self.k, self.data * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "KForm":
        return KForm(self.n, self.k, -self.data)

    def __repr__(self):
        nz = int(np.count_nonzero(self.data))
        return f"KForm(n={self.n}, k={self.k}, {nz} nonzero of {self.data.size})"


# ---------------------------------------------------------------------------
# building compatible triples
# ---------------------------------------------------------------------------

def build_standard_triple(n: int) -> CompatibleTriple:
    """The Darboux triple: omega = sum e^{2i-1} ^ e^{2i}, J e_{2i-1} = e_{2i}, g = I."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    n2 = 2 * n
    omega = np.zeros((n2, n2))
    J = np.zeros((n2, n2))
    for i in range(n):
        a, b = 2 * i, 2 * i + 1
        omega[a, b] = 1.0
        omega[b, a] = -1.0
        # J e_a = e_b, J e_b = -e_a  (columns are images)
        J[b, a] = 1.0
        J[a, b] = -1.0
    t = CompatibleTriple(n=n, omega=omega, J=J, g=np.eye(n2))
    t.validate()
    return t


def random_compatible_triple(n: int, rng: np.random.Generator, spread: float = 0.35) -> CompatibleTriple:
    """A random compatible triple: the standard one pulled back along a
    random A in GL(2n, R) with moderate condition number.

    omega' = A^T omega A,  J' = A^{-1} J A,  g' = A^T A-conjugated metric;
    compatibility is inherited exactly (up to roundoff) and re-validated.
    """
    t0 = build_standard_triple(n)
    A = np.eye(2 * n) + spread * rng.standard_normal((2 * n, 2 * n))
    # keep the perturbation well-conditioned so validation stays at 1e-12
    u, s, vt = np.linalg.svd(A)
    s = np.clip(s, 0.5, 2.0)
    A = u @ np.diag(s) @ vt
    Ainv = np.linalg.inv(A)
    omega = A.T @ t0.omega @ A
    J = Ainv @ t0.J @ A
    g = omega @ J
    g = 0.5 * (g + g.T)  # symmetrize away roundoff
    t = CompatibleTriple(n=n, omega=omega, J=J, g=g)
    t.validate(tol=1e-10)
    return t


def triple_from_omega_j(omega: np.ndarray, J: np.ndarray) -> CompatibleTriple:
    """Synthesize g = omega(., J.) from a user-supplied pair and validate.

    Indefinite or non-symmetric results are rejected, not repaired.
    """
    omega = np.asarray(omega, dtype=float)
    J = np.asarray(J, dtype=float)
    n2 = omega.shape[0]
    if n2 % 2 or omega.shape != J.shape:
        raise ValueError("omega and J must be square of equal even dimension")
    g = omega @ J
    t = CompatibleTriple(n=n2 // 2, omega=omega, J=J, g=g)
    t.validate()
    return t


# ---------------------------------------------------------------------------
# multilinear machinery
# ---------------------------------------------------------------------------

class _Products(NamedTuple):
    """Index-and-sign table of the nonzero products of basis forms:
    e^{left} ^ e^{right} = sign e^{target}, as positions in the bases of
    their degrees (read-only arrays, one entry per product)."""

    target: np.ndarray
    left: np.ndarray
    right: np.ndarray
    sign: np.ndarray


@lru_cache(maxsize=None)
def _mask_rank(dim: int) -> np.ndarray:
    """Each mask's position in the basis of its degree, indexed by mask:
    the degrees are popcounts, and within a degree masks count up."""
    masks = np.arange(1 << dim, dtype=np.intp)
    degree = sum((masks >> i) & 1 for i in range(dim))
    rank = np.empty_like(masks)
    for k in range(dim + 1):
        of_k = np.flatnonzero(degree == k)
        rank[of_k] = np.arange(len(of_k))
    return _read_only(rank)


@lru_cache(maxsize=None)
def _wedge_table(dim: int, a: int, b: int) -> _Products:
    """Every product of a degree-a and a degree-b basis form that is not zero.

    Entries come grouped by target in basis order, C(a+b, a) per target, and
    within a target by the left factor's generators in lexicographic order;
    for a = 1 that is the position of the left generator in the target.
    Built once per (dim, a, b), as whole-array operations on the masks;
    every operator of every triple reads it.
    """
    targets = np.array(basis_masks(dim, a + b), dtype=np.intp)
    bits = targets[:, None] & (1 << np.arange(dim, dtype=np.intp))
    gens = bits[bits != 0].reshape(len(targets), a + b)  # each target's generators, ascending
    picks = np.array(list(itertools.combinations(range(a + b), a)), dtype=np.intp)
    picks = picks.reshape(math.comb(a + b, a), a)  # which of them the left factor takes
    lefts = gens[:, picks].sum(axis=2)
    rank = _mask_rank(dim)
    # sorting e^{left} ^ e^{right}: the left factor's j-th generator (from 0),
    # at position c_j of the target, passes the c_j - j right ones before it
    swaps = picks.sum(axis=1) - a * (a - 1) // 2
    return _Products(*map(_read_only, (
        np.repeat(np.arange(len(targets)), len(picks)),
        rank[lefts].ravel(),
        rank[targets[:, None] ^ lefts].ravel(),
        np.tile(1.0 - 2.0 * (swaps % 2), len(targets)),
    )))


@lru_cache(maxsize=None)
def _basis_indices(dim: int, k: int) -> tuple[tuple[int, ...], ...]:
    """The 1-based index tuples of the degree-k basis forms, in basis order."""
    return tuple(mask_to_indices(m) for m in basis_masks(dim, k))


@lru_cache(maxsize=None)
def _pair_rows_cols(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based (rows, columns) (i, j), i < j, of the degree-2 basis forms
    e^{i+1} ^ e^{j+1}, in basis order: where a 2-form's coefficients sit in
    its antisymmetric matrix."""
    i, j = np.array(_basis_indices(dim, 2), dtype=np.intp).T - 1
    return _read_only(i), _read_only(j)


def wedge(a: KForm, b: KForm) -> KForm:
    """Graded-anticommutative product of two single forms, sign by
    transposition counting."""
    if a.n != b.n:
        raise ValueError(f"mismatched half-dimension: {a.n} vs {b.n}")
    k = a.k + b.k
    if k > 2 * a.n:
        raise ValueError(f"degree overflow: {a.k} + {b.k} > {2 * a.n}")
    if a.data.ndim != 1 or b.data.ndim != 1:
        raise ValueError("wedge takes single forms, not batches")
    dim = 2 * a.n
    p = _wedge_table(dim, a.k, b.k)
    terms = p.sign * a.data[p.left] * b.data[p.right]
    return KForm._own(a.n, k, terms.reshape(math.comb(dim, k), -1).sum(axis=1))


def contract_vector(a: KForm, v: np.ndarray) -> KForm:
    """Interior product i_v(a) for a vector v = sum v^i e_i (complex allowed)."""
    if a.k == 0:
        return KForm(a.n, 0, [0.0])
    # e^{target} = sign e^{left} ^ e^{right}, so i_{e_left} e^{target} = sign e^{right}:
    # one entry per product of the a = 1 table, as for L and Lambda
    dim, v = 2 * a.n, np.asarray(v)
    p = _wedge_table(dim, 1, a.k - 1)
    M = np.zeros((math.comb(dim, a.k - 1), math.comb(dim, a.k)), dtype=np.result_type(v, float))
    M[p.right, p.target] = v[p.left] * p.sign
    return KForm(a.n, a.k - 1, M @ a.data)


def _compound(M: np.ndarray, dim: int, k: int, lower: np.ndarray | None) -> np.ndarray:
    """k-th compound of a (dim x dim) matrix: C[I, J] = det M[I, J] over the
    degree-k basis masks.

    For a bilinear form h on covectors this is the Gram matrix h induces on
    Lambda^k; for the matrix of a covector map (columns = images) it is the
    induced map on Lambda^k.  Each minor is expanded along its first row,
    det M[I, J] = sum_{j in J} s M[i0, j] det M[I - i0, J - j] with i0 = min I
    and e^j ^ e^{J-j} = s e^J, from `lower`, the (k-1)-th compound (None at
    k = 0, where the compound is [[1]]).
    """
    if k == 0:
        return np.ones((1, 1), dtype=M.dtype)
    size = math.comb(dim, k)
    p = _wedge_table(dim, 1, k - 1)
    gen, rest, sign = (x.reshape(size, k) for x in (p.left, p.right, p.sign))
    # per row mask I: row i0 of M, and the row of `lower` for the other rows;
    # row i0 sits beside its negative, so that one column gather reads
    # s M[i0, j], bit for bit the product by s = +-1
    first, others = M[gen[:, 0]], lower[rest[:, 0]]
    first = np.concatenate((first, -first), axis=1)
    signed = gen + dim * (sign < 0)
    out = np.zeros((size, size), dtype=np.result_type(M, lower))
    for t in range(k):  # the t-th generator of each column mask J
        out += first.take(signed[:, t], axis=1) * others.take(rest[:, t], axis=1)
    return out


@lru_cache(maxsize=None)
def _holomorphic_degree(dim: int, k: int) -> np.ndarray:
    """p of each degree-k product of the frame: how many of its factors are
    among the first dim/2 columns, the (1,0) coframe."""
    low = (1 << dim // 2) - 1
    return _read_only(np.array([(m & low).bit_count() for m in basis_masks(dim, k)], dtype=int))


@lru_cache(maxsize=None)
def _bidegree_columns(dim: int, k: int) -> dict:
    """(p, k - p) -> the positions of the degree-k frame products of that
    type, for every bidegree of Lambda^k: the columns of `frame_compound(k)`
    that span the (p, k - p) forms."""
    n, p_of = dim // 2, _holomorphic_degree(dim, k)
    return {(p, k - p): _read_only(np.flatnonzero(p_of == p)) for p in range(max(0, k - n), min(k, n) + 1)}


# ---------------------------------------------------------------------------
# compatible triples and their operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompatibleTriple:
    """An almost Kahler structure on R^{2n}: matrices (omega, J, g).

    Invariants (checked by `validate`): J^2 = -I, omega(Ju, Jv) = omega(u, v),
    g = omega . J symmetric positive definite, omega nondegenerate.

    Its operator matrices are its methods, one block per degree acting on
    Lambda^k coefficients (Gram matrices, the two stars, the J-pullback,
    the coframe and its compounds, the (p,q) projectors, L^r, Lambda and
    the primitive basis), each built on first use and kept (`_kept`) in
    the triple's own memo; none acts on the whole 4^n-dimensional algebra.
    """

    n: int
    omega: np.ndarray
    J: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        for name in ("omega", "J", "g"):
            m = np.asarray(getattr(self, name), dtype=float)
            if m.shape != (2 * self.n, 2 * self.n):
                raise ValueError(f"{name} must be {2 * self.n}x{2 * self.n}")
            m = m.copy()
            m.flags.writeable = False
            object.__setattr__(self, name, m)

    def validate(self, tol: float = TOL) -> dict[str, float]:
        """Residuals of the compatibility invariants; raises on violation."""
        eye = np.eye(2 * self.n)
        res = {
            "J_squared": float(np.abs(self.J @ self.J + eye).max()),
            "omega_antisymmetric": float(np.abs(self.omega + self.omega.T).max()),
            "omega_J_invariant": float(np.abs(self.J.T @ self.omega @ self.J - self.omega).max()),
            "g_equals_omega_J": float(np.abs(self.g - self.omega @ self.J).max()),
            "g_symmetric": float(np.abs(self.g - self.g.T).max()),
        }
        # `not v <= tol` also catches NaN, which compares false either way
        bad = {k: v for k, v in res.items() if not v <= tol}
        if bad:
            raise ValueError(f"triple violates compatibility: {bad}")
        if abs(np.linalg.det(self.omega)) <= TOL:
            raise ValueError("omega is degenerate")
        if np.linalg.eigvalsh(self.g).min() <= 0:
            raise ValueError("g is not positive definite")
        return res

    # the inverses are computed once per triple, read-only like the triple:
    # every compound degree of the Gram matrices starts from them
    @property
    @_kept
    def omega_inv(self) -> np.ndarray:
        return np.linalg.inv(self.omega)

    @property
    @_kept
    def g_inv(self) -> np.ndarray:
        return np.linalg.inv(self.g)

    def omega_form(self) -> KForm:
        """omega as a 2-form: sum_{i<j} omega_ij e^i ^ e^j."""
        n2 = 2 * self.n
        coeffs = {}
        for i in range(n2):
            for j in range(i + 1, n2):
                if self.omega[i, j] != 0:
                    coeffs[(i + 1, j + 1)] = self.omega[i, j]
        return KForm.from_coeffs(self.n, 2, coeffs)

    def volume_form(self) -> KForm:
        """omega^n / n!  (equals the metric volume form for compatible triples)."""
        w = self.omega_form()
        out = KForm(self.n, 0, [1.0])
        for _ in range(self.n):
            out = wedge(out, w)
        return out * (1.0 / math.factorial(self.n))

    # -- metric and symplectic pairings -------------------------------------

    def _compound_block(self, block, M: np.ndarray, k: int) -> np.ndarray:
        """k-th compound of M, one cofactor step from `block`'s (k-1)-th."""
        return _compound(M, 2 * self.n, k, block(k - 1) if k else None)

    def _two_form(self, w: np.ndarray) -> np.ndarray:
        """The entries w[i, j], i < j, in the order of the degree-2 basis."""
        return w[_pair_rows_cols(2 * self.n)]

    @_kept
    def gram(self, k: int) -> np.ndarray:
        """Gram matrix of the g-inner product on Lambda^k (real symmetric PD)."""
        return self._compound_block(self.gram, self.g_inv, k)

    @_kept
    def omega_gram(self, k: int) -> np.ndarray:
        """Gram-type matrix of the omega^{-1} pairing on Lambda^k."""
        return self._compound_block(self.omega_gram, self.omega_inv, k)

    @property
    @_kept
    def vol(self) -> float:
        # The stars are taken w.r.t. the orientation induced by omega: the
        # volume form is omega^n/n!, whose top coefficient is the *signed*
        # Pfaffian of omega (= +/- sqrt(det g) for compatible triples).  Using
        # the positive coordinate orientation instead silently flips the star
        # on orientation-reversing triples and breaks every one-star identity.
        return float(self.volume_form().data[0].real)

    # a star from a Gram block G on Lambda^k, alpha ^ star(beta) = G(alpha,
    # beta) vol, is vol times the signed complement of G, up to the sign
    # (-1)^{k(2n-k)} = (-1)^k of moving e^J past e^{J^c}

    @_kept
    def star(self, k: int) -> np.ndarray:
        """Hodge star Lambda^k -> Lambda^{2n-k}."""
        if np.min(np.linalg.eigvalsh(self.g)) <= 0:
            raise ValueError("degenerate metric")
        return (-1) ** k * self.vol * _complement(self.gram(k), 2 * self.n, k)

    @_kept
    def sstar(self, k: int) -> np.ndarray:
        """Symplectic star Lambda^k -> Lambda^{2n-k}."""
        return (-1) ** k * self.vol * _complement(self.omega_gram(k), 2 * self.n, k)

    # -- J and the type decomposition ---------------------------------------

    @_kept
    def jpull(self, k: int) -> np.ndarray:
        """Pullback along J on Lambda^k; c -> c o J has coefficient matrix J^T."""
        return self._compound_block(self.jpull, self.J.T, k)

    @property
    @_kept
    def frame(self) -> np.ndarray:
        """Columns: a (1,0) coframe phi^1..phi^n followed by its conjugates,
        expressed in the real covector basis.  J phi = i phi.  The n
        eigenvectors of J^T for +i are orthonormalized, so that the frame,
        and the frame compounds solved with, stay well conditioned: the Q
        of their QR, each column times d/|d| for d the diagonal of R, so
        that phi^1 is the first eigenvector normalized and R has a positive
        diagonal."""
        w, v = np.linalg.eig(self.J.T)
        plus_i = np.abs(w - 1j) < 1e-9
        if plus_i.sum() != self.n:
            raise ValueError("J action on covectors does not split into +/- i eigenspaces")
        Q, R = np.linalg.qr(v[:, plus_i])
        d = np.diag(R)
        Q = Q * (d / np.abs(d))
        return np.concatenate((Q, Q.conj()), axis=1)

    @_kept
    def frame_compound(self, k: int) -> np.ndarray:
        """Columns: the degree-k products of `frame`, in the real basis.  The
        (p,q) forms are the columns whose mask has p bits below n.  Degree
        0, the empty product [[1]], reads no frame."""
        if k == 0:
            return np.ones((1, 1), dtype=complex)
        return self._compound_block(self.frame_compound, self.frame, k)

    @_kept
    def pq(self, k: int) -> dict:
        """Matrices of Pi^{p,q} on Lambda^k for each p+q = k: the
        `pq_decompose` split of the basis of Lambda^k, dense, for
        `pq_projector_matrices`.  Like that split, it builds no frame
        compound above the middle degree."""
        basis = KForm._own(self.n, k, np.eye(math.comb(2 * self.n, k), dtype=complex))
        return {pq: part.data for pq, part in pq_decompose(basis, self).components.items()}

    # -- the Lefschetz sl(2) ------------------------------------------------

    @_kept
    def lpow(self, k: int, r: int) -> np.ndarray:
        """L^r : Lambda^k -> Lambda^{k+2r}, r >= 0; degrees above 2n have no rows."""
        if r < 0:
            raise ValueError(f"need a power r >= 0 of L, got r={r}")
        dim = 2 * self.n
        if r == 0:
            return np.eye(math.comb(dim, k))
        if r > 1:
            return self.lpow(k + 2 * (r - 1), 1) @ self.lpow(k, r - 1)
        # each (row, column) entry is one product e^{ij} ^ e^m of the table
        p = _wedge_table(dim, 2, k)
        M = np.zeros((math.comb(dim, k + 2), math.comb(dim, k)))
        M[p.target, p.right] = self._two_form(self.omega)[p.left] * p.sign
        return M

    @_kept
    def lam(self, k: int) -> np.ndarray:
        """Lambda = (1/2) (omega^{-1})^{ij} i_{e_i} i_{e_j} : Lambda^k -> Lambda^{k-2}, k >= 2."""
        # the i < j and j < i terms pair up as (w_ij - w_ji)/2 i_{e_i} i_{e_j}, and
        # i_{e_i} i_{e_j} takes e^{ij} ^ e^R to -e^R: the L table, transposed
        w, dim = self.omega_inv, 2 * self.n
        p = _wedge_table(dim, 2, k - 2)
        M = np.zeros((math.comb(dim, k - 2), math.comb(dim, k)))
        M[p.right, p.target] = -0.5 * (self._two_form(w) - self._two_form(w.T))[p.left] * p.sign
        return M

    @_kept
    def prim(self, k: int) -> np.ndarray:
        """Orthonormal (columns) basis of the primitive subspace P^k, k <= n."""
        if k > self.n:
            raise ValueError(f"no primitive forms in degree {k} > n = {self.n}")
        if k < 2:
            return np.eye(math.comb(2 * self.n, k))
        _, s, Vt = np.linalg.svd(self.lam(k))  # kernel of Lambda
        rank = int(np.sum(s > 1e-10 * s[0])) if s.size else 0
        return Vt[rank:].T.copy()


# ---------------------------------------------------------------------------
# per-form operators: one product with a block of the triple
# ---------------------------------------------------------------------------

def _apply(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M @ x.  A real block acting on a complex column batch whose rows are
    contiguous is one real product on the batch's (Re, Im) view, where the
    two parts of each coefficient sit side by side; M is not up-cast to
    complex.  Complex blocks, single forms and other layouts take plain @."""
    if M.dtype == np.float64 and x.dtype == np.complex128 and x.ndim == 2 and x.strides[1] == x.itemsize:
        return (M @ x.view(np.float64)).view(np.complex128)
    return M @ x


def metric_gram(t: CompatibleTriple, k: int) -> np.ndarray:
    """Gram matrix of the g-inner product on Lambda^k (real symmetric PD)."""
    return t.gram(k)


def _column_sums(x: np.ndarray):
    """Sum over the coefficient axis: a number for one form, an array for a batch."""
    s = np.sum(x, axis=0)
    return complex(s) if x.ndim == 1 else s


def inner(a: KForm, b: KForm, t: CompatibleTriple):
    """Hermitian pointwise inner product <a, b>, conjugate-linear in b
    (one value per column for batches)."""
    a._check_compatible(b)
    return _column_sums(a.data * _apply(metric_gram(t, a.k), np.conj(b.data)))


def norm(a: KForm, t: CompatibleTriple):
    """Metric norm (one value per column for batches)."""
    out = np.sqrt(np.maximum(np.real(inner(a, a, t)), 0.0))
    return float(out) if a.data.ndim == 1 else out


def _complement(x: np.ndarray, dim: int, k: int, back: bool = False) -> np.ndarray:
    """The signed complement sigma : Lambda^k -> Lambda^{dim-k} applied to
    the coefficient rows of x (a form, a batch, or a stack of them):
    (sigma x)_{J^c} = s x_J, where e^{J^c} ^ e^J = s e^{1..dim}
    (`_wedge_table(dim, dim - k, k)`), so that b ^ a is (b . sigma a)
    e^{1..dim}.  With `back`, x lies on Lambda^{dim-k} and gets sigma^T,
    which is sigma^-1: sigma is a signed permutation."""
    p = _wedge_table(dim, dim - k, k)
    src, dst = (p.left, p.right) if back else (p.right, p.left)
    y = np.empty(x.shape, dtype=x.dtype)
    y[dst] = (p.sign * x[src].T).T
    return y


def _complement_norm(a: KForm, t: CompatibleTriple):
    """`norm(a, t)` read from the Gram matrix of the complementary degree
    2n - p, p = a.k, so that a form above the middle degree needs no Gram
    block above it.  The Hodge star is an isometry, and star(b) on
    Lambda^{2n-p} is vol times the signed complement of G_{2n-p} b, so
    ||a||^2 = y^H G_{2n-p}^{-1} y / vol^2 with y the signed complement of a
    (`_wedge_table(2n, 2n - p, p)`) and vol^2 = det omega."""
    y = _complement(a.data, 2 * a.n, a.k)
    # G is real symmetric: y^H G^-1 y is the sum over the (Re, Im) columns
    # of y, which one real solve takes together
    Y = y.reshape(len(y), -1).view(np.float64)
    sq = np.sum(Y * np.linalg.solve(metric_gram(t, 2 * a.n - a.k), Y), axis=0).reshape(-1, 2).sum(axis=1)
    out = np.sqrt(np.maximum(sq / np.linalg.det(t.omega), 0.0))
    return float(out[0]) if a.data.ndim == 1 else out


def hodge_star(a: KForm, t: CompatibleTriple) -> KForm:
    """Riemannian Hodge star (complex-linear extension): <a,b> dvol = a ^ *b."""
    return KForm._own(a.n, 2 * a.n - a.k, _apply(t.star(a.k), a.data))


def j_action(a: KForm, t: CompatibleTriple) -> KForm:
    """(J a)(u_1, ..., u_k) = a(J u_1, ..., J u_k): pullback along J."""
    return KForm._own(a.n, a.k, _apply(t.jpull(a.k), a.data))


# ---------------------------------------------------------------------------
# type decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BigradedForm:
    """(p,q)-components of a degree-k form; sum reconstructs the input."""

    k: int
    components: dict  # (p, q) -> KForm

    def component(self, p: int, q: int) -> KForm:
        return self.components[(p, q)]

    def reconstruct(self) -> KForm:
        it = iter(self.components.values())
        out = next(it)
        for c in it:
            out = out + c
        return out


def pq_decompose(a: KForm, t: CompatibleTriple) -> BigradedForm:
    """Split a into its Pi^{p,q} projections with respect to t's J: the
    one implementation of the type split, which the projector blocks
    (`CompatibleTriple.pq`) and the Weil operator read.

    Up to the middle degree, one solve C c = a puts a on the frame
    products, the columns of C = `frame_compound(k)`; the (p,q) part is the
    sum of the columns of type (p,q), each times its coefficient.  Above
    it, a is read through the complementary degree m = 2n - k, so that no
    frame compound above degree n is built: under the wedge pairing,
    Lambda^{p,q} pairs only with Lambda^{n-p,n-q}, hence Pi^{p,q}_k =
    sigma^T (Pi^{n-p,n-q}_m)^T sigma with sigma the signed complement
    (`_complement`).  With C = `frame_compound(m)`, (Pi_m^{p',q'})^T y is
    C^-T z_S for z = C^T y restricted to the columns S of type (p',q'):
    one solve with C^T takes every type's right-hand side at once.  No
    projector is formed, nor any inverse.  A batch (2-D a.data) is split
    column by column."""
    n, k, dim = a.n, a.k, 2 * a.n
    cols = _bidegree_columns(dim, k)
    if k <= n:
        C = t.frame_compound(k)
        c = np.linalg.solve(C, a.data)
        parts = [C[:, S] @ c[S] for S in cols.values()]
    else:
        m = dim - k
        C = t.frame_compound(m)
        z = (C.T @ _complement(a.data, dim, k)).reshape(len(C), -1)
        # a row of type (p', m - p') is the right-hand side of the type
        # (n - p', n - m + p') of degree k, the (m - p')-th of `cols`
        rhs = np.zeros((len(C), len(cols), z.shape[1]), dtype=complex)
        rhs[np.arange(len(C)), m - _holomorphic_degree(dim, m)] = z
        x = np.linalg.solve(C.T, rhs.reshape(len(C), -1)).reshape(rhs.shape)
        y = np.ascontiguousarray(np.moveaxis(_complement(x, dim, k, back=True), 1, 0))
        parts = list(y.reshape(len(cols), *a.data.shape))
    comps = {pq: KForm._own(n, k, part) for pq, part in zip(cols, parts)}
    return BigradedForm(k=k, components=comps)


def pq_projector_matrices(t: CompatibleTriple, k: int) -> dict:
    """The Pi^{p,q} matrices on Lambda^k (read-only views)."""
    return dict(t.pq(k))


def weil_operator(a: KForm, t: CompatibleTriple) -> KForm:
    """J-Weil operator: multiplies the (p,q)-part by i^{p-q}, the phase sum
    of the parts of `pq_decompose` (a batch column by column)."""
    parts = pq_decompose(a, t).components.items()
    return KForm._own(a.n, a.k, sum((1j ** ((p - q) % 4)) * part.data for (p, q), part in parts))


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def _wire_data(a: KForm) -> np.ndarray:
    """The coefficients the wire format writes of `a`: a.data for a single
    form; a batch, which the format cannot hold, is a ValueError."""
    if a.data.ndim != 1:
        raise ValueError(f"the wire format holds one form, got a batch of {a.data.shape[1]}")
    return a.data


def form_to_json(a: KForm) -> dict:
    """`{"n":, "k":, "coeffs": [{"idx": [...], "re":, "im":}]}`; exact floats.

    One entry per nonzero coefficient, in basis order.  A KForm is also a
    value of the report writer (`reports.dump_json_deterministic`), which
    writes the text of this dict straight from a.data."""
    data = _wire_data(a)
    indices = _basis_indices(2 * a.n, a.k)
    nz = data.nonzero()[0]  # np.flatnonzero of a 1-D array, without its ravel
    values = data[nz]
    coeffs = [
        {"idx": list(indices[i]), "re": re, "im": im}
        for i, re, im in zip(nz.tolist(), values.real.tolist(), values.imag.tolist())
    ]
    return {"n": a.n, "k": a.k, "coeffs": coeffs}


# The largest n either wire format accepts.  A decomposition holds dense
# C(2n, k) x C(2n, k) blocks (the complex frame compounds up to degree
# min(k, 2n - k), the real Gram blocks up to degree min(k, n), L^r and
# Lambda blocks) but no (p,q) projector: a cold `llab decompose` at n = 6,
# k = 6 takes 0.43-0.55 s, 0.30-0.38 s of it in `decompose_file`, and 136 MB
# peak RSS (one process, 1 BLAS thread, 2 CPUs), while at n = 7 each block
# of the middle degree alone is 188 MB.
WIRE_MAX_N = 6


def _is_number(x, kind=numbers.Real) -> bool:
    return isinstance(x, kind) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    """True for a real number that is neither NaN nor infinite, including
    an integer too large for a float (which is not finite as one)."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _check_wire_n(n: int, where: str) -> None:
    if n > WIRE_MAX_N:
        raise ValueError(f"{where}: n={n} exceeds the wire-format cap n <= {WIRE_MAX_N}")


def _field(obj, name: str, where: str, integer: bool = False):
    """obj[name]; a ValueError names the field if obj is not a JSON object,
    lacks it, or (integer=True) holds something other than an integer."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(obj).__name__}")
    if name not in obj:
        raise ValueError(f"{where}: missing field '{name}'")
    if integer and not _is_number(obj[name], numbers.Integral):
        raise ValueError(f"{where}: field '{name}' must be an integer, got {obj[name]!r}")
    return obj[name]


@lru_cache(maxsize=None)
def _basis_position(dim: int, k: int) -> dict:
    """Index tuple -> position of the degree-k basis form."""
    return {idx: i for i, idx in enumerate(_basis_indices(dim, k))}


def _checked_entry(entry, where: str, n: int, k: int) -> tuple:
    """(position, re, im) of a coefficient entry of a degree-k form, after
    every check of the wire format; a ValueError names the first that fails."""
    if not isinstance(entry, dict) or "idx" not in entry or "re" not in entry:
        raise ValueError(f"{where}: expected an object with 'idx' and 're'")
    idx = entry["idx"]
    if not isinstance(idx, (list, tuple)) or not all(_is_number(i, numbers.Integral) for i in idx):
        raise ValueError(f"{where}: 'idx' must be a list of integers, got {idx!r}")
    if len(idx) != k:
        raise ValueError(f"{where}: {len(idx)} indices for a degree-{k} form")
    bad = [i for i in idx if not 1 <= i <= 2 * n]
    if bad:
        raise ValueError(f"{where}: index {bad[0]} outside 1..{2 * n}")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"{where}: indices {idx} are repeated or not ascending")
    re, im = entry["re"], entry.get("im", 0.0)
    for name, v in (("re", re), ("im", im)):
        if not _is_number(v):
            raise ValueError(f"{where}: coefficient '{name}' must be a number, got {v!r}")
        if not _is_finite(v):
            raise ValueError(f"{where}: coefficient '{name}' must be finite, got {v!r}")
    return _mask_index(2 * n, k)[indices_to_mask(idx)], re, im


def form_from_json(obj: dict) -> KForm:
    """Parse the wire format; a missing or mistyped field, a bad coefficient
    entry, or a basis element given twice raises ValueError naming it and
    the problem.

    An entry as `form_to_json` writes it (ints in 'idx', finite floats in
    're' and 'im') is accepted by exact type tests and one lookup of its
    indices; any other goes through `_checked_entry`, which accepts it or
    says what is wrong with it."""
    n, k = _field(obj, "n", "form", integer=True), _field(obj, "k", "form", integer=True)
    if n < 1 or not 0 <= k <= 2 * n:
        raise ValueError(f"form: need n >= 1 and 0 <= k <= 2n, got n={n}, k={k}")
    _check_wire_n(n, "form")
    coeffs = _field(obj, "coeffs", "form")
    if not isinstance(coeffs, list):
        raise ValueError(f"form: field 'coeffs' must be a list, got {type(coeffs).__name__}")
    position = _basis_position(2 * n, k)  # holds only ascending indices in 1..2n, k of them
    given: dict[int, int] = {}  # basis position -> the entry that gave it
    values = []
    for pos, entry in enumerate(coeffs):
        slot = None
        if type(entry) is dict:
            idx, re, im = entry.get("idx"), entry.get("re"), entry.get("im", 0.0)
            if (type(idx) is list and type(re) is float and type(im) is float and {*map(type, idx)} <= {int}
                    and math.isfinite(re) and math.isfinite(im)):
                slot = position.get(tuple(idx))
        if slot is None:
            slot, re, im = _checked_entry(entry, f"coeffs[{pos}]", n, k)
        first = given.setdefault(slot, pos)
        if first != pos:
            raise ValueError(
                f"coeffs[{pos}]: basis element {list(_basis_indices(2 * n, k)[slot])} "
                f"already given by coeffs[{first}]"
            )
        values.append(complex(re, im))
    data = np.zeros(math.comb(2 * n, k), dtype=complex)
    data[list(given)] = values
    return KForm._own(n, k, data)


def triple_to_json(t: CompatibleTriple) -> dict:
    return {
        "n": t.n,
        "omega": [[float(x) for x in row] for row in t.omega],
        "J": [[float(x) for x in row] for row in t.J],
        "g": [[float(x) for x in row] for row in t.g],
    }


def _matrix_field(obj, name: str) -> np.ndarray:
    v = _field(obj, name, "triple")
    try:
        m = np.array(v, dtype=float)
    except (TypeError, ValueError, OverflowError):
        m = None
    if m is None or m.ndim != 2:
        raise ValueError(f"triple: field '{name}' must be a matrix of numbers")
    if not np.isfinite(m).all():
        raise ValueError(f"triple: field '{name}' has a non-finite entry")
    if m.shape[0] > 2 * WIRE_MAX_N:
        raise ValueError(
            f"triple: field '{name}' has {m.shape[0]} rows, over the 2n = {2 * WIRE_MAX_N} "
            f"of the wire-format cap n <= {WIRE_MAX_N}"
        )
    return m


def triple_from_json(obj: dict) -> CompatibleTriple:
    """Parse `{"standard": n}`, `{"omega":, "J":}` or `{"n":, "omega":, "J":,
    "g":}`; a missing or mistyped field raises ValueError naming it."""
    if isinstance(obj, dict) and "standard" in obj:
        n = _field(obj, "standard", "triple", integer=True)
        _check_wire_n(n, "triple")
        return build_standard_triple(n)
    omega, J = _matrix_field(obj, "omega"), _matrix_field(obj, "J")
    if "g" in obj:
        n = _field(obj, "n", "triple", integer=True)
        t = CompatibleTriple(n=n, omega=omega, J=J, g=_matrix_field(obj, "g"))
        t.validate()
        return t
    return triple_from_omega_j(omega, J)
