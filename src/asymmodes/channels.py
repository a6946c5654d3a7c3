"""Reduction of rotationally covariant superoperators to per-rank coefficient
matrices, superoperator mode decompositions, measurement channels, and
reference-frame channel simulation.

A covariant map E is block diagonal in irreducible tensor operator bases:
E(T_m^(mu,alpha)) = sum_beta c^(mu)_{beta alpha} S_m^(mu,beta) with c independent
of m.  On Liouville matrices the group acts as L -> (U_out x conj(U_out)) L
(U_in x conj(U_in))^dag, so superoperator modes are ordinary rectangular
tensor-basis components in that action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    Superoperator,
    _as_matrix,
    apply_superop,
    hs_norm,
    partial_trace,
    superop_from_map,
    trace_norm,
    vec,
)
from .su2 import (
    DecomposedRep,
    SU2Representation,
    TensorOperatorBasis,
    _expand,
    _tensor_ops_between,
    _twice,
    decompose,
    twirl_state,
)


# ---------------------------------------------------------------------------
# superoperator-space tensor bases
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _choi_rep(in_rep, out_rep) -> DecomposedRep:
    """Decomposition of out x conj(in), acting on Choi matrices C[(a,b),(c,d)] = E(|b><d|)_ac
    as the pair acts on maps E.  Keeps 32 block-representation pairs; others use __wrapped__."""
    return decompose(out_rep).tensor(decompose(in_rep).conjugate())


def _twirled_liouville(choi: np.ndarray, in_rep, out_rep) -> np.ndarray:
    """Liouville matrix L[(a,c),(b,d)] of the twirl of the map with Choi matrix C."""
    cached = isinstance(in_rep, SU2Representation) and isinstance(out_rep, SU2Representation)
    twirled = twirl_state(choi, (_choi_rep if cached else _choi_rep.__wrapped__)(in_rep, out_rep))
    return twirled.reshape(2 * (out_rep.dim, in_rep.dim)).transpose(0, 2, 1, 3).reshape(out_rep.dim ** 2, -1)


def superop_tensor_basis(in_rep, out_rep, ranks=None) -> TensorOperatorBasis:
    """Covariant basis of the space of superoperators B(H_in) -> B(H_out),
    optionally restricted to the given twice-mu ranks.  Bases between block-form
    representations are cached (the last 32)."""
    ranks = None if ranks is None else tuple(sorted(ranks))
    if isinstance(in_rep, SU2Representation) and isinstance(out_rep, SU2Representation):
        return _superop_basis(in_rep, out_rep, ranks)
    return _superop_basis.__wrapped__(in_rep, out_rep, ranks)


@lru_cache(maxsize=32)
def _superop_basis(in_rep, out_rep, ranks: tuple | None) -> TensorOperatorBasis:
    left, right = (_choi_rep.__wrapped__(rep, rep) for rep in (out_rep, in_rep))
    return _tensor_ops_between(left, right, ranks=None if ranks is None else set(ranks))


def superop_twirl_basis(in_rep, out_rep) -> TensorOperatorBasis:
    """Rank-0 superoperator basis: the oracle of twirl_superop, which does not read it."""
    return superop_tensor_basis(in_rep, out_rep, ranks={0})


def twirl_superop(e: Superoperator, in_rep, out_rep,
                  basis: TensorOperatorBasis | None = None) -> Superoperator:
    """Exact group average int dg U^out_g o e o U^in_{g^-1}: the commutant projection
    (twirl_state) of e's Choi matrix.  basis is not read."""
    o, i = e.out_dim, e.in_dim
    choi = e.liouville.reshape(o, o, i, i).transpose(0, 2, 1, 3).reshape(o * i, o * i)
    return Superoperator(_twirled_liouville(choi, in_rep, out_rep), i, o, trace_preserving=e.trace_preserving)


def superop_covariance_residual(e: Superoperator, in_rep, out_rep,
                                basis: TensorOperatorBasis | None = None) -> float:
    """Hilbert-Schmidt distance of the Liouville matrix from its group average (basis is not read)."""
    return hs_norm(e.liouville - twirl_superop(e, in_rep, out_rep, basis).liouville)


def superop_mode_project(e: Superoperator, in_rep, out_rep, mu, m) -> Superoperator:
    """(mu,m) modal component of a superoperator (Liouville-space masking)."""
    basis = superop_tensor_basis(in_rep, out_rep, ranks={_twice(mu)})
    return Superoperator(basis.component(e.liouville, mu, m), e.in_dim, e.out_dim)


@dataclass(frozen=True)
class SuperopModeSpectrum:
    components: dict   # (tmu, tm) -> Superoperator
    norms: dict        # (tmu, tm) -> Hilbert-Schmidt norm of the component

    def modes(self, tol: float = 1e-10) -> set:
        return {k for k, v in self.norms.items() if v > tol}


def superop_mode_spectrum(e: Superoperator, in_rep, out_rep, tol: float = 0.0,
                          keep_components: bool = True) -> SuperopModeSpectrum:
    mats = superop_tensor_basis(in_rep, out_rep).components(e.liouville)
    norms = {mode: float(np.linalg.norm(mat)) for mode, mat in mats.items()}
    norms = {mode: nrm for mode, nrm in norms.items() if nrm > tol}
    comps = {mode: Superoperator(mats[mode], e.in_dim, e.out_dim) for mode in norms} if keep_components else {}
    return SuperopModeSpectrum(comps, norms)


# ---------------------------------------------------------------------------
# block-diagonal coefficient reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovariantChannelCoefficients:
    """Per-rank matrices c^(mu)[beta, alpha] fully specifying a covariant map."""

    mu_blocks: dict
    in_basis: TensorOperatorBasis
    out_basis: TensorOperatorBasis

    def ranks(self) -> list:
        return sorted(self.mu_blocks)

    def coefficient(self, mu) -> complex:
        block = self.mu_blocks[_twice(mu)]
        if block.shape != (1, 1):
            raise ValueError("coefficient(mu) is only defined for multiplicity-free ranks")
        return complex(block[0, 0])


def _apply_blocks(c: CovariantChannelCoefficients, coeffs: np.ndarray) -> np.ndarray:
    """Out-basis coefficients of E(x) from in-basis coefficients (one column
    per operator): c^(mu) acts on the alpha axis of a rank's (m, alpha) rows."""
    ins, outs = c.in_basis.rank_rows, c.out_basis.rank_rows
    out = np.zeros((len(c.out_basis.labels),) + coeffs.shape[1:], dtype=complex)
    for tmu, block in c.mu_blocks.items():
        rows = block @ coeffs[ins[tmu]].reshape(tmu + 1, block.shape[1], -1)
        out[outs[tmu]] = rows.reshape((-1,) + coeffs.shape[1:])
    return out


def _top(rows: slice, tmu: int) -> slice:
    """The m = mu rows of a rank: the last n_alpha of its 2mu+1 modes."""
    return slice(rows.stop - (rows.stop - rows.start) // (tmu + 1), rows.stop)


def reduce_covariant(e: Superoperator, in_basis: TensorOperatorBasis,
                     out_basis: TensorOperatorBasis, tol: float = 1e-8):
    """Coefficients c^(mu)_{beta alpha} = tr(S^dag E(T)) computed at the highest
    weight m = mu and cross-checked at every m; returns (coefficients, residual)
    where residual = max_mu,m,alpha ||E(T_m^(mu,a)) - sum_b c_ba S_m^(mu,b)||_1.

    A residual above tol means e is not covariant (reported, not raised).
    """
    n_in = len(in_basis.labels)
    in_flat = in_basis.stack.reshape(n_in, e.in_dim ** 2)
    images = (in_flat @ e.liouville.T).reshape(n_in, e.out_dim, e.out_dim)
    overlaps = out_basis.coefficients(images)
    ins, outs = in_basis.rank_rows, out_basis.rank_rows
    blocks = {tmu: overlaps[_top(outs[tmu], tmu), _top(ins[tmu], tmu)].copy()
              for tmu in ins if tmu in outs}
    coeffs = CovariantChannelCoefficients(blocks, in_basis, out_basis)
    recon = _expand(_apply_blocks(coeffs, np.eye(n_in)), out_basis.stack)
    residual = float(np.linalg.svd(images - recon, compute_uv=False).sum(-1).max(initial=0.0))
    return coeffs, residual


def apply_reduced(c: CovariantChannelCoefficients, x) -> np.ndarray:
    """Reconstruct E(x) from the coefficient matrices."""
    weights = _apply_blocks(c, c.in_basis.coefficients(x))
    return _expand(weights, c.out_basis.stack)


def compose_reduced(d: CovariantChannelCoefficients,
                    c: CovariantChannelCoefficients) -> CovariantChannelCoefficients:
    """Coefficients of d after c: per-rank matrix products d^(mu) c^(mu)."""
    mid_out, mid_in = c.out_basis, d.in_basis
    if (mid_out.dim_left, mid_out.dim_right) != (mid_in.dim_left, mid_in.dim_right) \
            or mid_out.pair_labels != mid_in.pair_labels:
        raise ValueError("middle bases do not match")
    blocks = {tmu: d.mu_blocks[tmu] @ c.mu_blocks[tmu] for tmu in set(d.mu_blocks) & set(c.mu_blocks)}
    return CovariantChannelCoefficients(blocks, c.in_basis, d.out_basis)


@dataclass(frozen=True)
class CoefficientBoundsReport:
    bounds: dict        # (tmu, tm) -> trace-norm ratio bound ||T_m|| / ||S_m||
    violations: tuple   # tmu values with |c| above the binding (min over m) bound
    ok: bool


def coefficient_bounds_check(c: CovariantChannelCoefficients, tol: float = 1e-9) -> CoefficientBoundsReport:
    """Positivity/trace-preservation necessary bounds |c^(mu)| <= ||T_m||/||S_m||
    (and hence <= 1 on equal spaces); multiplicity-free bases only."""
    bounds = {}
    violations = []
    for tmu, block in c.mu_blocks.items():
        if block.shape != (1, 1):
            raise ValueError("bounds check requires multiplicity-free bases")
        ratios = (c.in_basis.row_trace_norms[c.in_basis.rank_rows[tmu]]       # rows run m ascending
                  / c.out_basis.row_trace_norms[c.out_basis.rank_rows[tmu]])
        per_m = {(tmu, tm): ratio for tm, ratio in zip(range(tmu, -tmu - 1, -2), ratios[::-1].tolist())}
        bounds.update(per_m)
        if abs(block[0, 0]) > min(per_m.values()) + tol:
            violations.append(tmu)
    return CoefficientBoundsReport(bounds, tuple(violations), not violations)


# ---------------------------------------------------------------------------
# measurement channels
# ---------------------------------------------------------------------------

def measurement_channel(povm, rep, tol: float = 0.0):
    """Channel M(X) = sum_lambda tr(X M_lambda)|lambda><lambda| into invariant
    flag states, together with its mode spectrum (which by construction equals
    the union of the POVM elements' modes)."""
    n = len(povm.elements)
    d = povm.dim
    liou = np.zeros((n * n, d * d), dtype=complex)
    liou[::n + 1] = [vec(m.T) for m in povm.elements]   # row (lam, lam): the flag |lam><lam|
    chan = Superoperator(liou, d, n, trace_preserving=True)
    out_rep = SU2Representation(((0, n),))
    spectrum = superop_mode_spectrum(chan, rep, out_rep, tol=tol, keep_components=False)
    return chan, spectrum


# ---------------------------------------------------------------------------
# simulation with a quantum reference frame
# ---------------------------------------------------------------------------

def simulate_with_frame(joint: Superoperator, frame, sys_rep, rf_rep,
                        tol: float = 1e-8) -> Superoperator:
    """Effective system channel E(X) = tr_RF(joint(X x rho_RF)) of a covariant
    joint channel; rejects joint maps whose covariance residual exceeds tol."""
    frame = _as_matrix(frame)
    dec_sys = decompose(sys_rep)
    dec_rf = decompose(rf_rep)
    d_sys, d_rf = dec_sys.dim, dec_rf.dim
    if joint.in_dim != d_sys * d_rf or joint.out_dim != d_sys * d_rf:
        raise ValueError("joint channel dimensions do not match sys x RF")
    if frame.shape != (d_rf, d_rf):
        raise ValueError("frame state dimension does not match the RF representation")
    dec_joint = dec_sys.tensor(dec_rf)
    residual = superop_covariance_residual(joint, dec_joint, dec_joint)
    if residual > tol:
        raise ValueError(f"joint channel is not covariant: residual {residual:.3e} > {tol:.1e}")

    def act(x):
        return partial_trace(apply_superop(joint, np.kron(x, frame)), (d_sys, d_rf), "A")

    return superop_from_map(act, d_sys, d_sys)


def covariant_joint_unitary(sys_rep: SU2Representation, rf_rep: SU2Representation,
                            phases) -> np.ndarray:
    """Unitary sum_J e^{i phi_J} Pi_J built from total-spin projectors of
    sys x RF; commutes with the joint representation by construction.

    phases: map from twice_J to a phase phi_J (missing entries get 0).
    """
    dec = decompose(sys_rep).tensor(decompose(rf_rep))
    u = np.zeros((dec.dim, dec.dim), dtype=complex)
    for tj, v in dec.components:
        u += np.exp(1j * phases.get(tj, 0.0)) * (v @ v.conj().T)
    return u


# ---------------------------------------------------------------------------
# state-space helpers built on the channel machinery
# ---------------------------------------------------------------------------

def _trace_correction(liouvilles, d_in: int, d_out: int) -> np.ndarray | None:
    """corr = Z^(-1/2) with Z the maps' adjoints summed at the identity, so that the maps
    after X -> corr X corr^dag sum to a channel; None unless PSD-safe."""
    z = sum(liou.conj().T @ vec(np.eye(d_out)) for liou in liouvilles).reshape(d_in, d_in)
    w, v = np.linalg.eigh((z + z.conj().T) / 2)
    if w.min() < 1e-6 * w.max():
        return None
    return (v / np.sqrt(w)) @ v.conj().T


def _precompose(liou: np.ndarray, corr: np.ndarray) -> np.ndarray:
    """L kron(corr, conj corr), the map X -> E(corr X corr^dag); the Kronecker product is
    one broadcast product (bit for bit np.kron's)."""
    d = corr.shape[0]
    return liou @ (corr[:, None, :, None] * corr.conj()[None, :, None, :]).reshape(d * d, d * d)


def _random_covariant_maps(in_rep, out_rep, rng: np.random.Generator, n_maps: int, n_kraus: int,
                           max_tries: int, kind: str) -> list:
    """Liouville matrices of n_maps twirled random CP maps, each with Choi matrix g^T conj(g) for
    n_kraus random Kraus operators as the rows of g, made to sum to a channel by one invariant
    pre-correction (redrawing them all when the correction is not PSD-safe)."""
    d_in, d_out = in_rep.dim, out_rep.dim
    for _ in range(max_tries):
        maps = []
        for _ in range(n_maps):
            g = np.array([rng.normal(size=d_out * d_in) + 1j * rng.normal(size=d_out * d_in)
                          for _ in range(n_kraus)])
            maps.append(_twirled_liouville(g.T @ g.conj(), in_rep, out_rep))
        corr = _trace_correction(maps, d_in, d_out)
        if corr is not None:
            return [_precompose(liou, corr) for liou in maps]
    raise RuntimeError(f"failed to draw a PSD-safe covariant {kind}")


def random_covariant_channel(in_rep, out_rep, rng: np.random.Generator,
                             n_kraus: int = 3, twirl_basis: TensorOperatorBasis | None = None,
                             max_tries: int = 20) -> Superoperator:
    """Random rotationally covariant channel: twirl of a random CP map, made
    trace preserving by an invariant pre-correction (resampling when the
    correction is not PSD-safe).  twirl_basis is not read."""
    liou, = _random_covariant_maps(in_rep, out_rep, rng, 1, n_kraus, max_tries, "channel")
    return Superoperator(liou, in_rep.dim, out_rep.dim, trace_preserving=True)


def random_covariant_instrument(in_rep, out_rep, rng: np.random.Generator,
                                n_outcomes: int = 2, max_tries: int = 20) -> list:
    """Covariant CP maps (one per flagged outcome) summing to a channel."""
    maps = _random_covariant_maps(in_rep, out_rep, rng, n_outcomes, 1, max_tries, "instrument")
    return [Superoperator(liou, in_rep.dim, out_rep.dim) for liou in maps]


@dataclass(frozen=True)
class MissingModeReport:
    """Direct-sum reference frame whose rank-1 m = +-1 modes vanish identically
    even though the state is rotation sensitive."""

    amplitudes: np.ndarray
    rep: SU2Representation
    rank1_norms: dict        # tm -> F_{1,m}
    f_mu0_example: tuple     # (twice_mu, value) with value > 0, mu > 0
    min_rotation_overlap: float
    beta_at_min: float


def missing_mode_family(n: int, beta_points: int = 72, max_dim: int = 200) -> MissingModeReport:
    """States (1/sqrt N) sum_k |j=N^2+2k, m=N^2+k> on the direct sum of those
    irreps: adjacent js differ by 2, so no rank-1 m=+-1 component survives."""
    if n < 1:
        raise ValueError("n must be >= 1")
    tjs = [2 * (n * n + 2 * k) for k in range(1, n + 1)]
    rep = SU2Representation(tuple((tj, 1) for tj in tjs))
    if rep.dim > max_dim:
        raise ValueError(f"representation dimension {rep.dim} exceeds the {max_dim} limit")
    psi = np.zeros(rep.dim, dtype=complex)
    off = 0
    for k, tj in enumerate(tjs, start=1):
        tm = 2 * (n * n + k)
        psi[off + (tj - tm) // 2] = 1 / np.sqrt(n)
        off += tj + 1
    rho = np.outer(psi, psi.conj())

    dec = decompose(rep)
    rank1 = _tensor_ops_between(dec, dec, ranks={2})
    rank1_norms = {tm: trace_norm(rank1.component(rho, 1, tm / 2)) for tm in (-2, 0, 2)}

    betas = np.linspace(0, np.pi, beta_points)
    overlaps = np.array([abs(np.vdot(psi, rep.little_d(b) @ psi)) ** 2 for b in betas])
    imin = int(np.argmin(overlaps))
    return MissingModeReport(psi, rep, rank1_norms, (2, rank1_norms[0]),
                             float(overlaps[imin]), float(betas[imin]))
