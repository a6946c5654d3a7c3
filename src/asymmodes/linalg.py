"""Dense complex operator primitives: norms, Kronecker/partial-trace algebra,
and superoperators in row-stacked Liouville form.

Vectorization convention (fixed globally): ``vec(X)`` stacks the *rows* of X,
so ``vec(|i><j|)`` is the basis vector with a 1 at index ``i*d + j``.  With
this convention the Liouville matrix of ``X -> A X B`` is ``kron(A, B.T)``
and of a Kraus map ``X -> sum_i K_i X K_i^dag`` is ``sum_i kron(K_i, conj(K_i))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-10
_MAX_STACK_BYTES = 2**29   # bytes of the largest dense stack or mode-norm output a call allocates


def _as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    return a


def vec(x) -> np.ndarray:
    """Row-stack a matrix into a vector."""
    return _as_matrix(x).reshape(-1)


def unvec(v, shape) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    rows, cols = shape
    if v.size != rows * cols:
        raise ValueError(f"cannot unvec length {v.size} into shape {shape}")
    return v.reshape(rows, cols)


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product tr(a^dag b)."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def hs_norm(a) -> float:
    return float(np.linalg.norm(_as_matrix(a)))


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    a = _as_matrix(a)
    return a.shape[0] == a.shape[1] and np.abs(a - a.conj().T).max() <= tol


def trace_norm(a) -> float:
    """Sum of singular values."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"trace_norm needs a square matrix, got {a.shape}")
    return float(np.linalg.svd(a, compute_uv=False).sum())


@lru_cache(maxsize=32)
def _sector_plan(charges: tuple) -> tuple:
    """The sector blocks (a, b) grouped by shape (r, c), r <= c, a tall block transposed: per shape, flat
    indices (blocks, r, c) into the d x d operator; per block, in that order, its column q_a - q_b + spread.
    If some block is over 2x2, for _shared_factors: each state's sector, each sector's members (padded with
    d) and the column of each block (a, b), a and b in charge order."""
    q, sector = np.unique(charges, return_inverse=True)
    sizes, d, spread = np.bincount(sector), len(charges), q[-1] - q[0]
    members = np.append(np.argsort(sector, kind="stable"), d)
    starts = np.cumsum(sizes) - sizes
    lanes = members[np.where(np.arange(sizes.max()) < sizes[:, None], starts[:, None] + np.arange(sizes.max()), -1)]
    groups, shapes = {s: (q[sizes == s], lanes[sizes == s, :s]) for s in np.unique(sizes)}, {}
    for r, (qa, rows) in groups.items():
        for c, (qb, cols) in groups.items():
            index = (rows[:, None, :, None] * d + cols[None, :, None, :]).reshape(-1, r, c)
            shapes.setdefault((min(r, c), max(r, c)), []).append(  # shapes arrive in sorted order
                (index if r <= c else index.swapaxes(1, 2), (qa[:, None] - qb).ravel()))
    return (([np.concatenate([index for index, _ in group]) for group in shapes.values()],
             np.concatenate([k for group in shapes.values() for _, k in group]) + spread),
            (sector, lanes, (q[:, None] - q + spread).ravel()) if max(shapes) > (2, 2) else None)


def _block_norms(blocks):
    """Trace norm of each block B: 1x1, |B|; side of 1, ||B||_F; 2x2, sqrt(||B||_F^2 + 2 |det B|),
    on B scaled by 2**-e, e the exponent of its largest |real or imaginary part| (exact, no square
    under- or overflows); any other, the sum of its singular values.  Over 1x1, non-finite B reads NaN."""
    if blocks.shape[-2:] == (1, 1):
        return np.abs(blocks[..., 0, 0])
    if min(blocks.shape[-2:]) > 1 and blocks.shape[-2:] != (2, 2):
        try:  # an inf reads NaN; a NaN raises, and then its blocks are zeroed and read NaN
            return np.linalg.svd(blocks, compute_uv=False).sum(axis=-1)
        except np.linalg.LinAlgError:
            finite = np.isfinite(blocks).all(axis=(-2, -1))
            return np.where(finite, _block_norms(np.where(finite[..., None, None], blocks, 0)), np.nan)
    top = np.abs(blocks.view(float)).max(axis=(-2, -1))
    e = np.frexp(top)[1]
    b = np.ldexp(blocks.view(float), -e[..., None, None]).view(complex)
    b[~np.isfinite(top)] = np.nan
    det = b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0] if b.shape[-2:] == (2, 2) else 0
    return np.ldexp(np.sqrt((b.real ** 2 + b.imag ** 2).sum(axis=(-2, -1)) + 2 * np.abs(det)), e)


def _shared_factors(xs, sector, lanes):
    """(trace norms of the blocks (a, b), flattened; passed) per matrix of xs (n, d, d).  Per row sector a, i_a
    is the row of its largest entry and c the column of that row's largest entry; per column sector b, likewise
    j_b and r.  A matrix passes if |x_ij - x[i_a, j_b] (c_i / c_{i_a}) (r_j / r_{j_b})| <= 16 eps |x_ij| for every
    entry; then each block's trace norm is within 16 eps sqrt(rank) of |x[i_a, j_b]| (||c_a|| / |c_{i_a}|) (||r_b||
    / |r_{j_b}|), ratios at most sqrt(size) (hypot-reduced: nothing under- or overflows; 1x1 reads |x_ij|)."""
    n, d = xs.shape[:2]
    at, states, sectors = np.arange(n)[:, None], np.arange(d), np.arange(len(lanes))
    with np.errstate(all="ignore"):  # a non-finite entry makes its sector's row i_a NaN: it fails
        a = np.abs(xs)
        pivot = lambda top: lanes[sectors, np.append(top, np.full((n, 1), -1.0), axis=1)[:, lanes].argmax(axis=2)]
        ia, jb = pivot(a.max(axis=2)), pivot(a.max(axis=1))
        c = xs[at, states, a[at, ia].argmax(axis=2)[:, sector]]
        r = xs[at, a[at, :, jb].argmax(axis=2)[:, sector], states]
        beta = xs[at[:, :, None], ia[:, :, None], jb[:, None, :]]
        cp, rq = (np.where(p == 0, 1, p) for p in (c[at, ia], r[at, jb]))  # c = 0 on an all-zero sector
        model = np.take(np.take(beta, sector, axis=1), sector, axis=2)
        model *= (c / cp[:, sector])[:, :, None]
        model *= (r / rq[:, sector])[:, None, :]
        model -= xs
        ok = (np.abs(model) <= np.multiply(a, 16 * np.finfo(float).eps, out=a)).all(axis=(1, 2))
        length = lambda v, p: np.hypot.reduce(np.append(np.abs(v), np.zeros((n, 1)), 1)[:, lanes], axis=2) / np.abs(p)
        norms = np.abs(beta) * length(c, cp)[:, :, None] * length(r, rq)[:, None, :]
    return norms.reshape(n, -1), ok


@lru_cache(maxsize=32)
def _charge_facts(charges: tuple) -> tuple:
    """The mode count 2 spread + 1 of the charges, and whether they are consecutive and ascending (Fock)."""
    return 2 * (max(charges) - min(charges)) + 1, charges == tuple(range(charges[0], charges[0] + len(charges)))


def sector_trace_norms(xs, charges) -> np.ndarray:
    """Entry [i, k + spread] sums the trace norms of the blocks xs[i][sector a, sector b] with
    q_a - q_b = k, for a batch (n, d, d) or one matrix: mode k has only such blocks, in disjoint
    rows and columns.  Consecutive ascending charges (Fock): column sums of |x| laid out as a skew.
    Else, if some block is over 2x2, a matrix passing _shared_factors takes every block from it; any
    other is np.take-gathered per chunk of ~2**18 entries into one layout per block shape (_block_norms:
    a closed form up to 2x2, else one batched SVD per shape).  Each matrix is decided alone, by that
    one rule, so a batch reads as its matrices do one by one.  Raises ValueError, before it allocates,
    when the (n, 2 spread + 1) output would exceed _MAX_STACK_BYTES."""
    xs, charges = np.asarray(xs, dtype=complex), tuple(charges)
    (width, fock), d = _charge_facts(charges), len(charges)
    if xs.ndim not in (2, 3) or xs.shape[-2:] != (d, d):
        raise ValueError(f"operator shape {xs.shape} does not match {d} charges")
    batch = xs.reshape(-1, d, d)
    if (nbytes := 8 * len(batch) * width) > _MAX_STACK_BYTES:
        raise ValueError(f"mode norms of {len(batch)} operators over {width} modes need {nbytes} bytes, "
                         f"over the {_MAX_STACK_BYTES}-byte limit")
    if fock:  # column (d - 1) + i - j sums mode i - j
        skew = np.zeros((len(batch), d, 2 * d))
        np.abs(batch, out=skew[:, :, d - 1::-1])
        return skew.reshape(len(batch), -1)[:, :d * width].reshape(xs.shape[:-2] + (d, width)).sum(axis=-2)
    ((layouts, column), shared), out = _sector_plan(charges), np.zeros((len(batch), width))
    def binned(norms, shift):  # row i sums norms[i, j] into column shift[j]
        at = np.arange(len(norms))[:, None] * width + shift
        return np.bincount(at.ravel(), norms.ravel(), len(norms) * width).reshape(-1, width)
    step = max(1, 2**18 // d**2)
    for lo in range(0, len(batch), step):
        chunk, part = batch[lo:lo + step], out[lo:lo + step]
        ok = np.zeros(len(chunk), bool)
        if shared is not None:
            norms, ok = _shared_factors(chunk, *shared[:2])
            part[ok] = binned(norms[ok], shared[2])
        if not ok.all():
            rest = ~ok if ok.any() else slice(None)  # chunk[rest] is a view if none passed
            flat = chunk[rest].reshape(-1, d * d)
            norms = np.concatenate([_block_norms(np.take(flat, index, axis=1)) for index in layouts], axis=1)
            part[rest] = binned(norms, column)
    return out.reshape(xs.shape[:-2] + (width,))


def tensor_product(a, b) -> np.ndarray:
    return np.kron(_as_matrix(a), _as_matrix(b))


def partial_trace(x, dims, keep) -> np.ndarray:
    """Reduce a bipartite operator on dims = (dA, dB); keep is 'A'/0 or 'B'/1."""
    x = _as_matrix(x)
    da, db = dims
    if x.shape != (da * db, da * db):
        raise ValueError(f"operator shape {x.shape} incompatible with dims {dims}")
    t = x.reshape(da, db, da, db)
    if keep in ("A", "a", 0):
        return np.einsum("ijkj->ik", t)
    if keep in ("B", "b", 1):
        return np.einsum("ijil->jl", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def min_eigval(a) -> float:
    """Smallest eigenvalue of the Hermitian part (graded PSD residual)."""
    a = _as_matrix(a)
    return float(np.linalg.eigvalsh((a + a.conj().T) / 2).min())


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_array(cls, a, tol: float = DEFAULT_TOL) -> "DensityMatrix":
        a = _as_matrix(a)
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"density matrix must be square, got {a.shape}")
        herm = np.abs(a - a.conj().T).max()
        if herm > tol:
            raise ValueError(f"not Hermitian: max |M - M^dag| = {herm:.3e} > {tol:.1e}")
        tr = a.trace()
        if abs(tr - 1.0) > tol:
            raise ValueError(f"trace {tr} differs from 1 beyond {tol:.1e}")
        lo = min_eigval(a)
        if lo < -tol:
            raise ValueError(f"not PSD: min eigenvalue {lo:.3e} < -{tol:.1e}")
        return cls(a)

    @classmethod
    def from_vector(cls, psi) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        psi = psi / np.linalg.norm(psi)
        return cls(np.outer(psi, psi.conj()))


@dataclass(frozen=True)
class POVM:
    """Measurement effects {M_lambda}: Hermitian, PSD, summing to identity."""

    elements: tuple
    labels: tuple

    @classmethod
    def from_elements(cls, elements, labels=None, tol: float = DEFAULT_TOL) -> "POVM":
        mats = tuple(_as_matrix(m) for m in elements)
        if not mats:
            raise ValueError("POVM needs at least one element")
        d = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape != (d, d):
                raise ValueError(f"element {i} has shape {m.shape}, expected {(d, d)}")
            if not is_hermitian(m, tol):
                raise ValueError(f"element {i} is not Hermitian within {tol:.1e}")
            if min_eigval(m) < -tol:
                raise ValueError(f"element {i} is not PSD within {tol:.1e}")
        total = sum(mats)
        if np.abs(total - np.eye(d)).max() > tol:
            raise ValueError("POVM elements do not sum to identity")
        if labels is None:
            labels = tuple(range(len(mats)))
        return cls(mats, tuple(labels))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


@dataclass(frozen=True)
class Superoperator:
    """Linear map B(C^in_dim) -> B(C^out_dim) as a row-stacking Liouville matrix."""

    liouville: np.ndarray
    in_dim: int
    out_dim: int
    trace_preserving: bool | None = field(default=None, compare=False)

    def __post_init__(self):
        expected = (self.out_dim**2, self.in_dim**2)
        if self.liouville.shape != expected:
            raise ValueError(
                f"Liouville shape {self.liouville.shape} inconsistent with dims, expected {expected}"
            )

    def __call__(self, x) -> np.ndarray:
        return apply_superop(self, x)


def identity_superop(dim: int) -> Superoperator:
    return Superoperator(np.eye(dim**2, dtype=complex), dim, dim, trace_preserving=True)


def channel_from_kraus(kraus, tol: float = DEFAULT_TOL) -> Superoperator:
    """Liouville matrix of X -> sum_i K_i X K_i^dag, one broadcast product over the stacked
    operators, kron(K, conj K)[(a, c), (b, d)] = K[a, b] conj K[c, d]; flags trace preservation."""
    mats = [_as_matrix(k) for k in kraus]
    if not mats:
        raise ValueError("need at least one Kraus operator")
    shape = mats[0].shape
    for i, k in enumerate(mats):
        if k.shape != shape:
            raise ValueError(f"Kraus operator {i} has shape {k.shape}, expected {shape}")
    out_dim, in_dim = shape
    ks = np.array(mats)
    liou = (ks[:, :, None, :, None] * ks.conj()[:, None, :, None, :]).sum(axis=0)
    ssum = (ks.conj().transpose(0, 2, 1) @ ks).sum(axis=0)
    tp = bool(np.abs(ssum - np.eye(in_dim)).max() <= tol)
    return Superoperator(liou.reshape(out_dim**2, in_dim**2), in_dim, out_dim, trace_preserving=tp)


def superop_from_map(fn, in_dim: int, out_dim: int) -> Superoperator:
    """Build the Liouville matrix by applying fn to every |i><j| basis matrix."""
    units = np.eye(in_dim**2, dtype=complex).reshape(-1, in_dim, in_dim)   # row i*in_dim + j: |i><j|
    return Superoperator(np.column_stack([vec(fn(e)) for e in units]), in_dim, out_dim)


def apply_superop(e: Superoperator, x) -> np.ndarray:
    x = _as_matrix(x)
    if x.shape != (e.in_dim, e.in_dim):
        raise ValueError(f"operator shape {x.shape} does not match in_dim {e.in_dim}")
    return unvec(e.liouville @ vec(x), (e.out_dim, e.out_dim))


def compose_superops(e2: Superoperator, e1: Superoperator) -> Superoperator:
    """e2 after e1."""
    if e1.out_dim != e2.in_dim:
        raise ValueError(f"cannot compose: {e1.out_dim} -> {e2.in_dim}")
    tp = None
    if e1.trace_preserving is not None and e2.trace_preserving is not None:
        tp = e1.trace_preserving and e2.trace_preserving
    return Superoperator(e2.liouville @ e1.liouville, e1.in_dim, e2.out_dim, trace_preserving=tp)


def conjugation_superop(u) -> Superoperator:
    """X -> U X U^dag."""
    u = _as_matrix(u)
    return Superoperator(np.kron(u, u.conj()), u.shape[1], u.shape[0])


def random_density_matrix(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    g = rng.normal(size=(dim, rank or dim)) + 1j * rng.normal(size=(dim, rank or dim))
    rho = g @ g.conj().T
    return rho / rho.trace()
