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
    """Layouts of sector blocks (sectors in size classes ceil(log2 s)): flat indices into
    the zero-padded (d+1)^2 operator (the sentinel d pads), ordered k = 0, k > 0, k < 0
    (stable), columns k + spread, counts of k = 0 and k >= 0 blocks; for the 1x1, side-1
    (as rows) and 2x2 blocks, per pair of classes of the others, and for all others."""
    q, sector = np.unique(charges, return_inverse=True)
    sizes, d = np.bincount(sector), len(charges)
    members = np.append(np.argsort(sector, kind="stable"), d)
    starts, size_class = np.cumsum(sizes) - sizes, np.ceil(np.log2(sizes))
    classes = []
    for c in np.unique(size_class):
        sel = size_class == c
        lanes = np.arange(sizes[sel].max())
        classes.append((q[sel], members[np.where(lanes < sizes[sel, None], starts[sel, None] + lanes, -1)]))
    def layout(group):
        r, c = (max(index.shape[axis] for _, index in group) for axis in (1, 2))
        index = np.concatenate([np.pad(index, ((0, 0), (0, r - index.shape[1]), (0, c - index.shape[2])),
                                       constant_values=(d + 1) ** 2 - 1) for _, index in group])
        k = np.concatenate([k for k, _ in group])
        o = np.argsort((k < 0) * 2 + (k > 0), kind="stable")
        return index[o], k[o] + q[-1] - q[0], np.sum(k == 0), np.sum(k >= 0)
    pairs = [((qa[:, None] - qb).ravel(), (rows[:, None, :, None] * (d + 1) + cols[None, :, None, :]).reshape(
        len(qa) * len(qb), rows.shape[1], cols.shape[1])) for qa, rows in classes for qb, cols in classes]
    side = [(k, i if i.shape[1] == 1 else i.swapaxes(1, 2))
            for k, i in pairs if min(i.shape[1:]) == 1 < max(i.shape[1:])]
    large = [(k, i) for k, i in pairs if min(i.shape[1:]) > 1 and i.shape[1:] != (2, 2)]
    closed = [[p for p in pairs if p[1].shape[1:] == (1, 1)], side, [p for p in pairs if p[1].shape[1:] == (2, 2)]]
    return [layout(g) for g in closed if g], [layout([p]) for p in large], layout(large) if large else None


def _block_norms(blocks):
    """(norm, certified) per block B scaled by 2**-e, e the exponent of its largest |real
    or imaginary part| (exact, subnormals too; non-finite entries read NaN): no square
    under- or overflows.  Side of 1: ||B||_F; 2x2: sqrt(||B||_F^2 + 2 |det B|).  Else, u
    the normalised largest column, ||u^dag B|| <= ||B||_1 <= ||u^dag B|| + sqrt(r) ||B -
    u u^dag B||_F, and B is certified if that residual is at most 16 eps ||u^dag B||."""
    rows = lambda a: a.reshape(*a.shape[:-2], a.shape[-2] * a.shape[-1])  # each block as one row
    top = rows(np.abs(blocks.view(float))).max(axis=-1)
    e = np.frexp(top)[1]
    b = np.ldexp(blocks.view(float), -e[..., None, None]).view(complex)
    b[~np.isfinite(top)] = np.nan
    sq = b.real ** 2 + b.imag ** 2
    if min(b.shape[-2:]) == 1 or b.shape[-2:] == (2, 2):
        det = b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0] if b.shape[-2:] == (2, 2) else 0
        return np.ldexp(np.sqrt(rows(sq).sum(axis=-1) + 2 * np.abs(det)), e), True
    c = np.take_along_axis(b, sq.sum(axis=-2).argmax(axis=-1)[..., None, None], axis=-1)
    n2 = np.maximum(rows(c.real ** 2 + c.imag ** 2).sum(axis=-1), 0.25)  # 0.25 only for a zero block
    v = c.conj().swapaxes(-1, -2) @ b  # c^dag B = ||c|| u^dag B
    usq, rsq = (rows(a.real ** 2 + a.imag ** 2).sum(axis=-1) for a in (v, b - c @ (v / n2[..., None, None])))
    return np.ldexp(np.sqrt(usq / n2), e), rsq * n2 <= (16 * np.finfo(float).eps) ** 2 * usq


def sector_trace_norms(xs, charges) -> np.ndarray:
    """Entry [i, k + spread] sums the trace norms of the blocks xs[i][sector a,
    sector b] with charges q_a - q_b = k, for a batch (n, d, d) or one matrix: a
    mode shifting every sector by k has only such blocks, in disjoint rows and
    columns.  Zero padding keeps singular values; blocks are np.take-gathered per
    chunk of ~2**18 padded entries.  1x1 blocks take the modulus, side-1 and 2x2 blocks
    a closed form (_block_norms).  A matrix whose other blocks all pass the rank-one
    certificate takes ||u^dag B|| for them (k = 0 blocks are tried first, the rest only
    if some matrix of the chunk passes those); any other takes one batched SVD per pair
    of size classes.  X_ba = X_ab^dag for Hermitian x, so if some block is over 1x1, a
    matrix Hermitian to rounding (|x_ij - conj x_ji| <= 4 eps |x_ij| for all i, j; a
    large g g^dag fails) is decided on its q_a >= q_b blocks, a chunk of such matrices
    takes only those, and column spread - k copies spread + k, within 4 eps sqrt(rank).
    Each matrix is decided alone, so a batch reads as its matrices do one by one."""
    xs = np.asarray(xs, dtype=complex)
    d, width = len(charges), 2 * (max(charges) - min(charges)) + 1
    if xs.ndim not in (2, 3) or xs.shape[-2:] != (d, d):
        raise ValueError(f"operator shape {xs.shape} does not match {d} charges")
    batch, (closed, large, cert) = xs.reshape(-1, d, d), _sector_plan(tuple(charges))
    out = np.zeros((len(batch), width))
    def binned(norms, shift):  # row i sums norms[i, j] into column shift[j]
        at = np.arange(len(norms))[:, None] * width + shift
        return np.bincount(at.ravel(), norms.ravel(), len(norms) * width).reshape(-1, width)
    step = max(1, 2**18 // (d + 1) ** 2)
    for lo in range(0, len(batch), step):
        chunk, part = batch[lo:lo + step], out[lo:lo + step]
        with np.errstate(invalid="ignore"):  # inf - inf is nan, which fails the test quietly
            herm = np.zeros(len(chunk), bool) if all(i.shape[1:] == (1, 1) for i, *_ in closed + large) else (
                np.abs(chunk - chunk.conj().swapaxes(1, 2)) <= 4 * np.finfo(float).eps * np.abs(chunk)).all(axis=(1, 2))
        flat, lead = np.zeros((len(chunk), (d + 1) ** 2), dtype=complex), herm.all()
        flat.reshape(-1, d + 1, d + 1)[:, :d, :d] = chunk
        for index, shift, _, upper in closed:
            blocks = np.take(flat, index[:upper if lead else None], axis=1)
            norms = np.abs(blocks[..., 0, 0]) if blocks.shape[-2:] == (1, 1) else _block_norms(blocks)[0]
            part += binned(norms, shift[:upper if lead else None])
        if cert is not None:
            index, shift, zero, upper = cert
            norms, ok = _block_norms(np.take(flat, index[:zero], axis=1))
            if ok.all(axis=1).any():  # the k < 0 blocks of a Hermitian matrix are mirrored, not certified
                more, passed = _block_norms(np.take(flat, index[zero:upper if lead else None], axis=1))
                ok = np.concatenate([ok, passed | herm[:, None] & (np.arange(passed.shape[1]) >= upper - zero)], 1)
                norms = np.concatenate([norms, more], axis=1)
            ok = ok.all(axis=1)
            part[ok] += binned(norms[ok], shift[:norms.shape[1]])
            rest = ~ok if ok.any() else slice(None)
            for index, shift, _, upper in large if not ok.all() else ():
                cut = upper if herm[rest].all() else None
                blocks = np.take(flat[rest], index[:cut], axis=1)
                part[rest] += binned(np.linalg.svd(blocks, compute_uv=False).sum(axis=-1), shift[:cut])
        part[herm, :width // 2] = part[herm, :width // 2:-1]  # a mixed chunk took every block
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
