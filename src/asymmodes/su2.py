"""SU(2)/SO(3) representation machinery.

Conventions (fixed throughout):
  * basis ordering within a spin-j multiplet is m = j, j-1, ..., -j, so Lz is
    diagonal with descending entries and all matrix elements of Lx are real;
  * rotations are zyz Euler angles, D^j(a,b,g) = e^{-ia Lz} e^{-ib Ly} e^{-ig Lz};
  * Clebsch-Gordan coefficients are Condon-Shortley real;
  * irreducible tensor operators transform as
        U(g) T_m U(g)^dag = sum_{m'} D^mu_{m'm}(g) T_{m'},
    are Hilbert-Schmidt orthonormal, and are built from the coupling
        T^(mu)_m = sum_{ma,mb} (-1)^(jb-mb) C(ja ma; jb -mb | mu m) |ja ma><jb mb|,
    which fixes the residual per-rank phase (e.g. T^(1)_0 is a positive
    multiple of Lz and T^(1)_{+-1} = -+ c1 L_{+-}/sqrt(2)).

Half-integer quantum numbers are carried as twice-values (ints) internally.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import product
from types import MappingProxyType

import numpy as np

from .linalg import _as_matrix, sector_trace_norms


# ---------------------------------------------------------------------------
# half-integers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class HalfInteger:
    """A nonnegative-or-negative half-integer stored as twice its value."""

    twice: int

    @property
    def value(self) -> float:
        return self.twice / 2

    def __float__(self) -> float:
        return self.twice / 2

    def __str__(self) -> str:
        return str(self.twice // 2) if self.twice % 2 == 0 else f"{self.twice}/2"

    @classmethod
    def coerce(cls, x) -> "HalfInteger":
        return x if isinstance(x, HalfInteger) else cls(_twice(x))


def _twice(x) -> int:
    if isinstance(x, HalfInteger):
        return x.twice
    t = 2 * float(x)
    if not math.isfinite(t) or abs(t - round(t)) > 1e-9:
        raise ValueError(f"{x} is not a half-integer")
    return round(t)


def _spin(j) -> int:
    """Twice a spin j, which must be a half-integer >= 0."""
    tj = _twice(j)
    if tj < 0:
        raise ValueError(f"spin j must be >= 0, got {j}")
    return tj


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, locked against writes, as every cached array is."""
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# angular momentum operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngularMomentumOps:
    j: HalfInteger
    Lz: np.ndarray
    Lplus: np.ndarray
    Lminus: np.ndarray
    L2: np.ndarray

    @property
    def Lx(self) -> np.ndarray:
        return (self.Lplus + self.Lminus) / 2

    @property
    def Ly(self) -> np.ndarray:
        return (self.Lplus - self.Lminus) / 2j

    @property
    def dim(self) -> int:
        return self.j.twice + 1


@lru_cache(maxsize=128)
def _angular_momentum(tj: int) -> AngularMomentumOps:
    j = tj / 2
    m = j - np.arange(tj + 1)
    lz = np.diag(m.astype(complex))
    lp = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    l2 = j * (j + 1) * np.eye(tj + 1, dtype=complex)
    return AngularMomentumOps(HalfInteger(tj), *map(_read_only, (lz, lp, lp.conj().T, l2)))


def angular_momentum(j) -> AngularMomentumOps:
    """Ladder-convention spin-j operators, <j,m+1|L+|j,m> = sqrt(j(j+1)-m(m+1))."""
    return _angular_momentum(_spin(j))


# ---------------------------------------------------------------------------
# Clebsch-Gordan (eigenvectors of J^2 per M band, Condon-Shortley phases)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _coupling(tja: int, tjb: int) -> MappingProxyType:
    """{twice_M: C} for ja x jb, C[i, k] = <ja ma_i; jb M-ma_i | J_k M> with ma_i
    running down the M band from its top and J_k = max(|M|, |ja-jb|) + k.
    Each band is one eigh of the tridiagonal J^2 - ja(ja+1) - jb(jb+1), the
    eigenvector form of the three-term recursion (Schulten & Gordon, J. Math.
    Phys. 16, 1961 (1975)).  Phases: |J J> is positive at ma = ja, and every
    lower |J M> overlaps positively with J-|J M+1>."""
    f = np.arange(tja + 1)                                   # ma = ja - f
    lower_a = np.sqrt(f * (tja + 1.0 - f))                  # <ma|Ja-|ma+1>
    table, pad, tjmin_above = {}, np.zeros((tja + 2, 0)), tja + tjb + 2
    for tM in range(tja + tjb, -tja - tjb - 1, -2):
        lo = (tja - min(tja, tM + tjb)) // 2                 # f of the band's top
        n = (min(tja, tM + tjb) - max(-tja, tM - tjb)) // 2 + 1
        tma, tmb = tja - 2 * f[lo:lo + n], tM - tja + 2 * f[lo:lo + n]
        lower_b = np.sqrt((tjb + tmb + 2) * (tjb - tmb) / 4.0)   # <mb|Jb-|mb+1>
        off = lower_a[lo + 1:lo + n] * lower_b[:-1]
        _, c = np.linalg.eigh(np.diag(tma * tmb / 2.0) + np.diag(off, 1) + np.diag(off, -1))
        tjmin = max(abs(tM), abs(tja - tjb))
        # J- applied to band M+1 (pad holds it on the f grid shifted by one)
        lowered = lower_a[lo:lo + n, None] * pad[lo:lo + n] + lower_b[:, None] * pad[lo + 1:lo + n + 1]
        k, ka = (max(tjmin, tjmin_above) - tjmin) // 2, (max(tjmin, tjmin_above) - tjmin_above) // 2
        c[:, k:] *= np.where(np.sum(c[:, k:] * lowered[:, ka:ka + n - k], axis=0) < 0, -1, 1)
        if tM >= abs(tja - tjb) and c[0, 0] < 0:   # the new highest weight J = M
            c[:, 0] *= -1
        pad, tjmin_above = np.zeros((tja + 2, n)), tjmin
        pad[lo + 1:lo + n + 1] = c
        table[tM] = _read_only(c)
    return MappingProxyType(table)


def clebsch_gordan(j1, m1, j2, m2, J, M) -> float:
    """<j1 m1; j2 m2 | J M>, read from the coupling table of j1 x j2; returns 0
    when selection rules fail."""
    tj1, tj2, tJ = _spin(j1), _spin(j2), _spin(J)
    tm1, tm2, tM = _twice(m1), _twice(m2), _twice(M)
    if (tM != tm1 + tm2 or abs(tm1) > tj1 or abs(tm2) > tj2 or (tj1 + tm1) % 2 or (tj2 + tm2) % 2
            or (tj1 + tj2 + tJ) % 2 or not max(abs(tM), abs(tj1 - tj2)) <= tJ <= tj1 + tj2):
        return 0.0
    c = _coupling(tj1, tj2)[tM]
    return float(c[(min(tj1, tM + tj2) - tm1) // 2, (tJ - max(abs(tM), abs(tj1 - tj2))) // 2])


def _coupled(tja: int, va: np.ndarray, tjb: int, vb: np.ndarray, tjs):
    """The |J M> vectors of va x vb for the twice-J in tjs, one M band at a time:
    yields (tM, twice_Js, xs) with xs[k] = sum_ma <ja ma; jb M-ma | J_k M> va[:, ma]
    vb[:, M-ma]^T, that is |J_k M> as a (dim_a, dim_b) matrix."""
    for tM in range(max(tjs, default=-1), -max(tjs, default=-1) - 1, -2):
        js = [tJ for tJ in tjs if tJ >= abs(tM)]
        c = _coupling(tja, tjb)[tM][:, [(tJ - max(abs(tM), abs(tja - tjb))) // 2 for tJ in js]]
        ia = (tja - min(tja, tM + tjb)) // 2 + np.arange(len(c))
        yield tM, js, (va[:, ia] * c.T[:, None, :]) @ vb[:, (tja + tjb - tM) // 2 - ia].T


# ---------------------------------------------------------------------------
# Wigner rotation matrices
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _ly_eig(tj: int):
    return tuple(map(_read_only, np.linalg.eigh(_angular_momentum(tj).Ly)))


def wigner_d(j, beta: float) -> np.ndarray:
    """Little-d matrix <j m'|e^{-i beta Ly}|j m> (rows/cols ordered m = j..-j)."""
    w, v = _ly_eig(_spin(j))
    return (v * np.exp(-1j * beta * w)) @ v.conj().T


def wigner_D(j, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Unitary irrep matrix for zyz Euler angles."""
    tj = _spin(j)
    m = tj / 2 - np.arange(tj + 1)
    return np.exp(-1j * alpha * m)[:, None] * wigner_d(j, beta) * np.exp(-1j * gamma * m)[None, :]


def haar_angles(rng: np.random.Generator, n: int = 1) -> np.ndarray:
    """n Haar-distributed zyz Euler triples: alpha,gamma ~ U[0,2pi), cos(beta) ~ U[-1,1]."""
    alpha = rng.uniform(0, 2 * np.pi, n)
    beta = np.arccos(rng.uniform(-1, 1, n))
    gamma = rng.uniform(0, 2 * np.pi, n)
    return np.column_stack([alpha, beta, gamma])


def axis_to_euler(axis) -> tuple:
    """(alpha, beta) with D(alpha,beta,0) Lz D^dag = L_axis for the unit axis."""
    ax = np.asarray(axis, dtype=float)
    ax = ax / np.linalg.norm(ax)
    beta = math.acos(np.clip(ax[2], -1.0, 1.0))
    alpha = math.atan2(ax[1], ax[0])
    return alpha, beta


# ---------------------------------------------------------------------------
# representations: block form and irrep decompositions with isometries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SU2Representation:
    """Direct sum of spin blocks; block (j, mult) contributes D^j(g) x I_mult."""

    blocks: tuple  # of (twice_j, mult)

    def __post_init__(self):
        if not self.blocks or not all(float(v).is_integer() for block in self.blocks for v in block):
            raise ValueError(f"blocks must be a nonempty list of integer pairs, got {self.blocks!r}")
        norm = tuple((int(tj), int(mult)) for tj, mult in self.blocks)
        if norm != tuple(map(tuple, self.blocks)) or any(tj < 0 or mult < 1 for tj, mult in norm):
            raise ValueError(f"blocks must be integer pairs (twice_j >= 0, mult >= 1), got {self.blocks!r}")
        object.__setattr__(self, "blocks", norm)

    @classmethod
    def spin(cls, j) -> "SU2Representation":
        return cls(((_twice(j), 1),))

    @classmethod
    def of_spins(cls, js) -> "SU2Representation":
        return cls(tuple((_twice(j), 1) for j in js))

    @property
    def dim(self) -> int:
        return sum((tj + 1) * mult for tj, mult in self.blocks)

    @property
    def max_twice_j(self) -> int:
        return max(tj for tj, _ in self.blocks)

    @cached_property
    def twice_m(self) -> np.ndarray:
        """Twice the Lz eigenvalue of each basis vector: block (j, mult) runs
        m = j..-j, each m repeated mult times."""
        return _read_only(np.concatenate([np.repeat(np.arange(tj, -tj - 1, -2), m) for tj, m in self.blocks]))

    def little_d(self, beta: float) -> np.ndarray:
        """The block diagonal of d^j(beta) x I_mult; the one assembler of the block layout."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        off = 0
        for tj, mult in self.blocks:
            n = (tj + 1) * mult
            out[off:off + n, off:off + n] = np.kron(wigner_d(HalfInteger(tj), beta), np.eye(mult))
            off += n
        return out

    def unitary(self, alpha: float, beta: float, gamma: float) -> np.ndarray:
        m = self.twice_m / 2
        return np.exp(-1j * alpha * m)[:, None] * self.little_d(beta) * np.exp(-1j * gamma * m)[None, :]

    def generator_lz(self) -> np.ndarray:
        return np.diag(self.twice_m / 2).astype(complex)


@dataclass(frozen=True)
class DecomposedRep:
    """A unitary SU(2) rep presented as irrep isometries: U(g) = sum V D^j(g) V^dag."""

    dim: int
    components: tuple  # of (twice_j, isometry ndarray (dim, twice_j+1))

    @property
    def max_twice_j(self) -> int:
        return max(tj for tj, _ in self.components)

    def block_form(self) -> tuple:
        """(W, B) with U(g) = W B(g) W^dag: W stacks the isometries as columns and
        the block rep B has one multiplicity-1 block per isometry.  Built once per
        instance; W is read-only."""
        return self._block_form

    @cached_property
    def _block_form(self) -> tuple:
        w = _read_only(np.hstack([v for _, v in self.components]))
        return w, SU2Representation(tuple((tj, 1) for tj, _ in self.components))

    def unitary(self, alpha: float, beta: float, gamma: float) -> np.ndarray:
        w, block = self.block_form()
        return w @ block.unitary(alpha, beta, gamma) @ w.conj().T

    def conjugate(self) -> "DecomposedRep":
        comps = []
        for tj, v in self.components:
            y = np.flipud(np.diag((-1.0) ** np.arange(tj + 1)))   # e^{-i pi Ly}
            comps.append((tj, _read_only(v.conj() @ y)))
        return DecomposedRep(self.dim, tuple(comps))

    def tensor(self, other: "DecomposedRep") -> "DecomposedRep":
        comps = []
        for tja, va in self.components:
            for tjb, vb in other.components:
                tjs = range(abs(tja - tjb), tja + tjb + 1, 2)
                isos = {tJ: np.zeros((self.dim * other.dim, tJ + 1), dtype=complex) for tJ in tjs}
                for tM, js, xs in _coupled(tja, va, tjb, vb, tjs):
                    for tJ, x in zip(js, xs):
                        isos[tJ][:, (tJ - tM) // 2] = x.reshape(-1)
                comps += [(tJ, _read_only(v)) for tJ, v in isos.items()]
        return DecomposedRep(self.dim * other.dim, tuple(comps))


def decompose(rep) -> DecomposedRep:
    """Irrep isometries of a block-form representation (identity embeddings),
    built once per representation; isometries of decompositions are read-only."""
    return rep if isinstance(rep, DecomposedRep) else _decompose(rep)


@lru_cache(maxsize=64)
def _decompose(rep: SU2Representation) -> DecomposedRep:
    comps = []
    off = 0
    eye = np.eye(rep.dim, dtype=complex)
    for tj, mult in rep.blocks:
        for a in range(mult):
            comps.append((tj, _read_only(eye[:, off + a + mult * np.arange(tj + 1)])))
        off += (tj + 1) * mult
    return DecomposedRep(rep.dim, tuple(comps))


# ---------------------------------------------------------------------------
# irreducible tensor operator bases
# ---------------------------------------------------------------------------

def _rows(labels: tuple, *prefix) -> slice:
    """The rows of a sorted label tuple whose labels begin with prefix."""
    return slice(bisect_left(labels, prefix),
                 bisect_left(labels, prefix[:-1] + (prefix[-1] + 1,)))


def _operator(x, shape: tuple) -> np.ndarray:
    """x as a complex operator, or batch of operators, of the given shape."""
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (2, 3) or x.shape[-2:] != shape:
        raise ValueError(f"operator shape {x.shape} does not match basis shape {shape}")
    return x


def _overlaps(rows: np.ndarray, x) -> np.ndarray:
    """tr(rows[k]^dag x) for an operator x, or an (n, b) array for a batch (b, ., .);
    conjugating the product instead of the rows keeps them from being copied."""
    x = _operator(x, rows.shape[1:])
    flat = x.reshape(-1) if x.ndim == 2 else x.reshape(len(x), -1).T
    return (rows.reshape(len(rows), len(flat)) @ flat.conj()).conj()


def _expand(c: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_k c[k] rows[k]; a trailing batch axis of c gives a batch of operators."""
    flat = rows.reshape(len(rows), rows.shape[1] * rows.shape[2])
    return (c.T @ flat).reshape(c.shape[1:] + rows.shape[1:])


@dataclass(frozen=True)
class TensorOperatorBasis:
    """Orthonormal covariant operator basis between two decomposed reps.

    ops maps (twice_mu, twice_m, alpha) to a dim_left x dim_right matrix;
    alpha enumerates ordered (left-component, right-component) pairs and
    pair_labels[alpha] records their (twice_j_left, twice_j_right).

    The operators are held once: row k of stack (n, dim_left, dim_right) is
    the operator labelled labels[k], and ops holds views of these rows.  labels
    is sorted, so each mode (twice_mu, twice_m) is one contiguous slice of rows,
    modes lists the modes in that order and mode_starts their first rows (None
    when every mode has one row).  Each rank is one slice of rows, rank_rows,
    running (m ascending, alpha): 2mu+1 modes of n_alpha rows each.
    Projections go through coefficients(x) = stack.reshape(n, -1).conj() @ vec(x).
    stack is read-only, so no caller can change a cached basis.
    """

    ops: dict
    dim_left: int
    dim_right: int
    pair_labels: tuple
    rep: SU2Representation | None = None
    stack: np.ndarray | None = field(default=None, repr=False, compare=False)
    labels: tuple = field(init=False, repr=False, compare=False)
    modes: tuple = field(init=False, repr=False, compare=False)
    mode_starts: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(sorted(self.ops))
        shape = (self.dim_left, self.dim_right)
        if self.stack is None:
            if any(np.shape(t) != shape for t in self.ops.values()):
                raise ValueError(f"every operator must have shape {shape}")
            stack = np.array([self.ops[k] for k in labels], dtype=complex).reshape((-1,) + shape)
            object.__setattr__(self, "stack", stack)
        self.stack.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "modes", tuple(dict.fromkeys(label[:2] for label in labels)))
        starts = np.array([bisect_left(labels, mode) for mode in self.modes])
        object.__setattr__(self, "mode_starts", None if len(starts) == len(labels) else _read_only(starts))
        object.__setattr__(self, "ops", dict(zip(labels, self.stack)))

    @cached_property
    def rank_rows(self) -> MappingProxyType:
        """twice_mu -> its slice of rows, in ascending rank order; built once per instance."""
        tmus = [tmu for tmu, _, _ in self.labels]
        edges = [k for k in range(len(tmus) + 1) if k in (0, len(tmus)) or tmus[k] != tmus[k - 1]]
        return MappingProxyType({tmus[lo]: slice(lo, hi) for lo, hi in zip(edges, edges[1:])})

    @cached_property
    def row_trace_norms(self) -> np.ndarray:
        """||T_k||_1 of every row k of a basis on a block representation, from one
        sector_trace_norms call: row (mu, m, alpha) shifts every Lz sector by m.
        Built once per instance, read-only."""
        norms = sector_trace_norms(self.stack, self.rep.twice_m)
        shifts = [tm + norms.shape[1] // 2 for _, tm, _ in self.labels]
        return _read_only(norms[np.arange(len(norms)), shifts])

    @property
    def square(self) -> bool:
        return self.dim_left == self.dim_right

    def ranks(self) -> list:
        return list(self.rank_rows)

    def alphas_for(self, tmu: int) -> list:
        return sorted({a for mu, _, a in self.labels if mu == tmu})

    def op(self, mu, m, alpha: int = 0) -> np.ndarray:
        return self.ops[(_twice(mu), _twice(m), alpha)]

    def coefficients(self, x) -> np.ndarray:
        """tr(T_k^dag x) for every row k, in labels order ((n, b) for a batch of b)."""
        return _overlaps(self.stack, x)

    def component(self, x, mu, m) -> np.ndarray:
        """(mu,m) mode component: sum_alpha T tr(T^dag x)."""
        rows = self.stack[_rows(self.labels, _twice(mu), _twice(m))]
        return _expand(_overlaps(rows, x), rows)

    def mode_stack(self, x, rows: int | None = None) -> np.ndarray:
        """Every mode component of x as one (len(modes), dim_left, dim_right) array,
        row i holding mode modes[i].  Given rows, a row count at a mode boundary,
        only the modes of the first rows labels are projected.  A basis whose modes
        have one row each sums nothing, so it allocates no second d^4 array."""
        stack = self.stack[:rows]
        out = _overlaps(stack, _as_matrix(x))[:, None, None] * stack
        if self.mode_starts is None or not len(out):
            return out
        return np.add.reduceat(out, self.mode_starts[self.mode_starts < len(out)], axis=0)

    def components(self, x) -> dict:
        """All mode components {(twice_mu, twice_m): matrix} of x, in labels order;
        the matrices are row views of mode_stack(x)."""
        return dict(zip(self.modes, self.mode_stack(x)))

    def reconstruct(self, x) -> np.ndarray:
        return _expand(self.coefficients(x), self.stack)


_MAX_STACK_BYTES = 2**29   # bytes of the largest dense stack a basis build or the quadrature oracle allocates


def _tensor_ops_between(left: DecomposedRep, right: DecomposedRep,
                        ranks: set | None = None) -> TensorOperatorBasis:
    """Covariant basis of B(H_right -> H_left): left(g) T right(g)^dag = sum D^mu T.
    Row (mu, m, alpha) is |mu m> of the alpha-th pair of left x conj(right)
    components as an operator, times (-1)^(2 jb).  Restricting `ranks` (a set of
    twice-mu) builds only those multiplets.  Rows are filled in place; stacking
    separate matrices would double peak memory."""
    pairs = list(product(left.components, right.conjugate().components))
    tmus = [[tmu for tmu in range(abs(tja - tjb), tja + tjb + 1, 2) if ranks is None or tmu in ranks]
            for (tja, _), (tjb, _) in pairs]
    labels = sorted((tmu, tmu - 2 * im, alpha)
                    for alpha, ts in enumerate(tmus) for tmu in ts for im in range(tmu + 1))
    nbytes = 16 * len(labels) * left.dim * right.dim
    if nbytes > _MAX_STACK_BYTES:
        raise ValueError(f"a basis of {len(labels)} operators of shape {left.dim}x{right.dim} needs "
                         f"{nbytes} bytes, over the {_MAX_STACK_BYTES}-byte limit")
    stack = np.zeros((len(labels), left.dim, right.dim), dtype=complex)
    row = {label: k for k, label in enumerate(labels)}
    for alpha, (((tja, va), (tjb, vb)), ts) in enumerate(zip(pairs, tmus)):
        for tM, js, xs in _coupled(tja, va, tjb, vb, ts):
            stack[[row[(tmu, tM, alpha)] for tmu in js]] = (-1) ** tjb * xs + 0.0   # no -0.0 entries
    return TensorOperatorBasis(dict(zip(labels, stack)), left.dim, right.dim,
                               tuple((tja, tjb) for (tja, _), (tjb, _) in pairs), stack=stack)


@lru_cache(maxsize=32)
def tensor_basis_general(rep: SU2Representation) -> TensorOperatorBasis:
    """Orthonormal irreducible tensor operator basis spanning B(H) for a
    block-form representation; alpha runs over irrep-copy pairs.  The last 32
    bases are kept (cache_info() counts the hits)."""
    dec = decompose(rep)
    return replace(_tensor_ops_between(dec, dec), rep=rep)


def tensor_basis_spin_j(j) -> TensorOperatorBasis:
    """Multiplicity-free basis for a single spin-j irrep, ranks 0..2j."""
    return tensor_basis_general(SU2Representation.spin(j))


def tensor_basis_for(rep_or_dec) -> TensorOperatorBasis:
    if isinstance(rep_or_dec, SU2Representation):
        return tensor_basis_general(rep_or_dec)
    return _tensor_ops_between(rep_or_dec, rep_or_dec)


# ---------------------------------------------------------------------------
# mode projections
# ---------------------------------------------------------------------------

def so3_mode_project(x, rep, mu, m, basis: TensorOperatorBasis | None = None) -> np.ndarray:
    """(mu,m) mode component of an operator via the tensor-basis projection."""
    basis = basis or tensor_basis_for(rep)
    return basis.component(_as_matrix(x), mu, m)


def quadrature_mode_components(xs, rep, modes) -> dict:
    """Group-average oracle: (mu,m) components d_mu int dg conj(D^mu_mm(g)) U X U^dag of an
    operator or a batch (n, d, d), as {(tmu, tm): array} over modes of (twice_mu, twice_m).
    In the block form U = W B W^dag, B(a,b,g) = e^{-ia Lz} d(b) e^{-ig Lz} multiplies
    Y = W^dag X W at (a, b) by e^{-i(a+g)(ma-mb)}, so the alpha and gamma averages
    against conj(D^mu_mm) are exactly the Lz band mask P_m (keep ma - mb = m).  One
    Gauss-Legendre sum in cos(beta) is left, exact by band limitation, with no coupling table:
        X^(mu,m) = W P_m[(2mu+1)/2 sum_b w_b conj(d^mu_mm(b)) d(b) P_m(Y) d(b)^dag] W^dag,
    each product shared by the ranks of one m.  Raises ValueError over _MAX_STACK_BYTES.
    """
    xs = np.asarray(xs, dtype=complex)
    modes = [(int(a), int(b)) for a, b in modes]
    if (nbytes := 16 * len(modes) * xs.size) > _MAX_STACK_BYTES:
        raise ValueError(f"{len(modes)} mode components of operators of shape {xs.shape} need "
                         f"{nbytes} bytes, over the {_MAX_STACK_BYTES}-byte limit")
    w, block = decompose(rep).block_form()
    ys = w.conj().T @ (xs[None] if xs.ndim == 2 else xs) @ w
    band = {tm: np.subtract.outer(block.twice_m, block.twice_m) == tm for tm in {tm for _, tm in modes}}
    cos_b, w_b = np.polynomial.legendre.leggauss(block.max_twice_j + max(tmu for tmu, _ in modes) // 2 + 2)
    out = [np.zeros(ys.shape, dtype=complex) for _ in modes]
    for bb, wb in zip(np.arccos(cos_b), w_b):
        d = block.little_d(bb)
        d_mu = {tmu: wigner_d(HalfInteger(tmu), bb) for tmu in {tmu for tmu, _ in modes}}
        for tm, mask in band.items():
            rotated = d @ (ys * mask) @ d.conj().T
            for acc, (tmu, t) in zip(out, modes):
                if t == tm:
                    acc += wb * (tmu + 1) / 2 * np.conj(d_mu[tmu][(tmu - tm) // 2, (tmu - tm) // 2]) * rotated
    for i, (_, tm) in enumerate(modes):
        out[i] = w @ (out[i] * band[tm]) @ w.conj().T
    return {mode: v[0] if xs.ndim == 2 else v for mode, v in zip(modes, out)}


def so3_mode_project_quadrature(x, rep, mu, m) -> np.ndarray:
    """Single-mode quadrature oracle (cross-check for so3_mode_project)."""
    tmu, tm = _twice(mu), _twice(m)
    return quadrature_mode_components(_as_matrix(x), rep, [(tmu, tm)])[(tmu, tm)]


def twirl_state(x, rep) -> np.ndarray:
    """Exact group average int dg U(g) X U(g)^dag by commutant projection."""
    dec = decompose(rep)
    x = _as_matrix(x)
    out = np.zeros_like(x)
    by_j: dict = {}
    for tj, v in dec.components:
        by_j.setdefault(tj, []).append(v)
    for tj, vs in by_j.items():
        for va in vs:
            for vb in vs:
                out += (np.trace(va.conj().T @ x @ vb) / (tj + 1)) * (va @ vb.conj().T)
    return out


def axial_twirl(rho, j, axis=(0.0, 0.0, 1.0)) -> np.ndarray:
    """(1/2pi) int dtheta e^{-i theta L_axis} rho e^{+i theta L_axis} for spin-j:
    keeps the diagonal in the frame where L_axis is diagonal."""
    u = wigner_D(j, *axis_to_euler(axis), 0.0)
    r = u.conj().T @ _as_matrix(rho) @ u
    return u @ np.diag(np.diag(r)) @ u.conj().T


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def covariance_residual(basis: TensorOperatorBasis, left, right, angles) -> float:
    """Max |U_L T_m U_R^dag - sum_m' D^mu_{m'm} T_m'| over the basis and the
    supplied Euler triples.  A rank's rows run over (m ascending, alpha), while D
    runs over m = mu..-mu, so D's m axes are reversed to match the rows."""
    worst = 0.0
    for aa, bb, gg in np.atleast_2d(angles):
        rotated = left.unitary(aa, bb, gg) @ basis.stack @ right.unitary(aa, bb, gg).conj().T
        for tmu, rows in basis.rank_rows.items():
            shape = (tmu + 1, -1) + basis.stack.shape[1:]
            d_ascending = wigner_D(HalfInteger(tmu), aa, bb, gg)[::-1, ::-1]
            predicted = np.tensordot(d_ascending, basis.stack[rows].reshape(shape), axes=(0, 0))
            worst = max(worst, float(np.abs(rotated[rows].reshape(shape) - predicted).max()))
    return worst


def orthonormality_residual(basis: TensorOperatorBasis) -> float:
    """max |tr(T_a^dag T_b) - delta_ab| over the basis.  On a block representation,
    a row (mu, m, alpha) that is exactly zero off the band ma - mb = m is exactly
    orthogonal to every row of another m.  When every row is, the Gram is taken
    one m at a time, O(d^4) against O(d^6) for the full n x n product."""
    flat = basis.stack.reshape(len(basis.labels), -1)
    if basis.rep is not None:
        tms = np.array([tm for _, tm, _ in basis.labels])
        dm = np.subtract.outer(basis.rep.twice_m, basis.rep.twice_m).reshape(-1)
        worst = []
        for tm in np.unique(tms):
            rows = flat[tms == tm]
            if rows[:, dm != tm].any():
                break
            band = rows[:, dm == tm]
            worst.append(np.abs(band.conj() @ band.T - np.eye(len(band))).max())
        else:
            return float(max(worst))
    return float(np.abs(basis.coefficients(basis.stack) - np.eye(len(flat))).max())


@dataclass(frozen=True)
class ConjugationReport:
    residuals: dict   # (tmu, tm, alpha) -> distance of T^dag from the rank-mu span
    max_residual: float
    ok: bool


def hermitian_conjugate_mode_check(basis: TensorOperatorBasis, tol: float = 1e-10) -> ConjugationReport:
    """Checks each T^dag lies in the span of the same-rank operators (for SU(2)
    the conjugate irrep is equivalent to the irrep itself)."""
    residuals = {}
    for rank in basis.rank_rows.values():
        ts = basis.stack[rank]
        daggers = ts.conj().transpose(0, 2, 1)
        gap = daggers - _expand(_overlaps(ts, daggers), ts)
        norms = np.linalg.norm(gap.reshape(len(ts), -1), axis=1)
        residuals.update(zip(basis.labels[rank], norms.tolist()))
    worst = max(residuals.values(), default=0.0)
    return ConjugationReport(residuals, worst, worst <= tol)
