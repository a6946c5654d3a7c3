import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

import asymmodes.su2 as su2_module
from asymmodes import (
    DecomposedRep,
    HalfInteger,
    SU2Representation,
    angular_momentum,
    axial_twirl,
    clebsch_gordan,
    covariance_residual,
    haar_angles,
    hermitian_conjugate_mode_check,
    hs_inner,
    mode_monotone_table,
    orthonormality_residual,
    so3_mode_project,
    so3_mode_project_quadrature,
    superop_tensor_basis,
    tensor_basis_general,
    tensor_basis_spin_j,
    trace_norm,
    twirl_state,
    wigner_D,
    wigner_d,
)
from asymmodes.su2 import (
    TensorOperatorBasis,
    _coupling,
    _rows,
    _tensor_ops_between,
    decompose,
    quadrature_mode_components,
    tensor_basis_for,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def cg_oracle_table(j1, j2):
    """Clebsch-Gordan table built independently of the Racah sum: highest-weight
    states by Gram-Schmidt (Condon-Shortley positivity on the m1 = j1 component)
    and the rest by explicit lowering."""
    tj1, tj2 = int(round(2 * j1)), int(round(2 * j2))
    d1, d2 = tj1 + 1, tj2 + 1
    a1, a2 = angular_momentum(j1), angular_momentum(j2)
    lower = np.kron(a1.Lminus, np.eye(d2)) + np.kron(np.eye(d1), a2.Lminus)

    def idx(tm1, tm2):
        return ((tj1 - tm1) // 2) * d2 + (tj2 - tm2) // 2

    coupled = {}
    for tJ in range(tj1 + tj2, abs(tj1 - tj2) - 1, -2):
        v = np.zeros(d1 * d2, dtype=complex)
        if tJ == tj1 + tj2:
            v[idx(tj1, tj2)] = 1.0
        else:
            # nullspace of the higher-J states within the M = J subspace
            sub = [idx(tm1, tJ - tm1)
                   for tm1 in range(max(-tj1, tJ - tj2), min(tj1, tJ + tj2) + 1, 2)]
            higher = np.array([coupled[(tJp, tJ)][sub]
                               for tJp in range(tJ + 2, tj1 + tj2 + 1, 2)])
            _, _, vh = np.linalg.svd(higher)
            v_sub = vh[-1].conj()
            v = np.zeros(d1 * d2, dtype=complex)
            v[sub] = v_sub
            top = v[idx(min(tj1, tJ + tj2), tJ - min(tj1, tJ + tj2))]
            v *= np.exp(-1j * np.angle(top)) if abs(top) > 1e-12 else 1.0
            if v[idx(min(tj1, tJ + tj2), tJ - min(tj1, tJ + tj2))].real < 0:
                v = -v
        coupled[(tJ, tJ)] = v
        for tM in range(tJ - 2, -tJ - 1, -2):
            v = lower @ v
            v /= np.linalg.norm(v)
            coupled[(tJ, tM)] = v

    def cg(tm1, tm2, tJ, tM):
        return coupled[(tJ, tM)][idx(tm1, tm2)].real

    return cg


@lru_cache(maxsize=None)
def _factorial(n: int) -> int:
    return math.factorial(n)


def cg_racah_exact(tj1, tm1, tj2, tm2, tJ, tM) -> float:
    """<j1 m1; j2 m2 | J M> from Racah's formula over Python integers (twice-values
    in), independent of the library's eigen-solved table: the squared prefactor and
    the alternating sum are exact rationals, and the square root is taken at the end."""
    def f(t):
        return _factorial(t // 2)
    pref = Fraction((tJ + 1) * f(tj1 + tj2 - tJ) * f(tj1 - tj2 + tJ) * f(tJ + tj2 - tj1)
                    * f(tj1 + tm1) * f(tj1 - tm1) * f(tj2 + tm2) * f(tj2 - tm2) * f(tJ + tM) * f(tJ - tM),
                    f(tj1 + tj2 + tJ + 2))
    total = sum(Fraction((-1) ** (t // 2), f(t) * f(tj1 + tj2 - tJ - t) * f(tj1 - tm1 - t) * f(tj2 + tm2 - t)
                         * f(tJ - tj2 + tm1 + t) * f(tJ - tj1 - tm2 + t))
                for t in range(max(0, tj2 - tJ - tm1, tj1 - tJ + tm2),
                               min(tj1 + tj2 - tJ, tj1 - tm1, tj2 + tm2) + 1, 2))
    return math.copysign(math.sqrt(total * total * pref), total)


def su2_euler_compose(g1, g2):
    """Euler angles of the product rotation, via the defining 2x2 matrices."""
    r = wigner_D(0.5, *g1) @ wigner_D(0.5, *g2)
    beta = 2 * np.arctan2(abs(r[1, 0]), abs(r[0, 0]))
    sum_half = -np.angle(r[0, 0]) if abs(r[0, 0]) > 1e-12 else 0.0
    diff_half = np.angle(r[1, 0]) if abs(r[1, 0]) > 1e-12 else 0.0
    return sum_half + diff_half, beta, sum_half - diff_half


# ---------------------------------------------------------------------------
# angular momentum
# ---------------------------------------------------------------------------

def test_half_integer():
    assert HalfInteger.coerce(1.5).twice == 3
    assert HalfInteger.coerce(2).value == 2
    assert str(HalfInteger(3)) == "3/2"
    with pytest.raises(ValueError):
        HalfInteger.coerce(0.3)


def test_angular_momentum_small_spins():
    half = angular_momentum(0.5)
    assert np.allclose(half.Lz, np.diag([0.5, -0.5]))
    assert np.allclose(half.Lx, np.array([[0, 0.5], [0.5, 0]]))
    one = angular_momentum(1)
    assert np.allclose(one.Lz, np.diag([1.0, 0.0, -1.0]))
    assert np.allclose(one.Lplus[0, 1], np.sqrt(2))


@pytest.mark.parametrize("twice_j", range(1, 13))
def test_angular_momentum_algebra(twice_j):
    ops = angular_momentum(twice_j / 2)
    comm = ops.Lx @ ops.Ly - ops.Ly @ ops.Lx
    assert np.abs(comm - 1j * ops.Lz).max() < 1e-12
    total = ops.Lx @ ops.Lx + ops.Ly @ ops.Ly + ops.Lz @ ops.Lz
    assert np.abs(total - ops.L2).max() < 1e-12
    assert np.abs(ops.Lx.imag).max() == 0


# ---------------------------------------------------------------------------
# Clebsch-Gordan
# ---------------------------------------------------------------------------

def test_cg_known_values():
    assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(1 / np.sqrt(2))
    assert clebsch_gordan(0.5, -0.5, 0.5, 0.5, 0, 0) == pytest.approx(-1 / np.sqrt(2))
    assert clebsch_gordan(1.5, 1.5, 2, 2, 3.5, 3.5) == pytest.approx(1.0)
    assert clebsch_gordan(1, 1, 1, -1, 0, 0) == pytest.approx(1 / np.sqrt(3))


def test_cg_selection_rules_and_errors():
    assert clebsch_gordan(1, 0, 1, 0, 2, 1) == 0.0
    assert clebsch_gordan(1, 1, 1, 1, 1, 2) == 0.0
    assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 2, 1) == 0.0
    with pytest.raises(ValueError):
        clebsch_gordan(0.4, 0.4, 1, 0, 1, 0)


@pytest.mark.parametrize("j1,j2", [(0.5, 0.5), (1, 0.5), (1.5, 1)])
def test_cg_against_lowering_oracle(j1, j2):
    oracle = cg_oracle_table(j1, j2)
    tj1, tj2 = int(2 * j1), int(2 * j2)
    for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
        for tM in range(-tJ, tJ + 1, 2):
            for tm1 in range(-tj1, tj1 + 1, 2):
                tm2 = tM - tm1
                if abs(tm2) > tj2:
                    continue
                got = clebsch_gordan(j1, tm1 / 2, j2, tm2 / 2, tJ / 2, tM / 2)
                assert got == pytest.approx(oracle(tm1, tm2, tJ, tM), abs=1e-12)


@pytest.mark.parametrize("j1,j2", [(1.5, 1), (3, 2.5), (3, 3)])
def test_cg_orthogonality(j1, j2):
    tj1, tj2 = int(2 * j1), int(2 * j2)
    pairs = [(tJ, tM) for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
             for tM in range(-tJ, tJ + 1, 2)]
    for tJ, tM in pairs:
        for tJp, tMp in pairs:
            s = sum(
                clebsch_gordan(j1, tm1 / 2, j2, tm2 / 2, tJ / 2, tM / 2)
                * clebsch_gordan(j1, tm1 / 2, j2, tm2 / 2, tJp / 2, tMp / 2)
                for tm1 in range(-tj1, tj1 + 1, 2)
                for tm2 in range(-tj2, tj2 + 1, 2)
            )
            expected = 1.0 if (tJ, tM) == (tJp, tMp) else 0.0
            assert s == pytest.approx(expected, abs=1e-12)


def test_cg_inputs_that_are_not_spins_raise():
    for args in [(-1, 0, 1, 0, 0, 0), (1, 0, -1, 0, 0, 0), (1, 0, 1, 0, -2, 0),
                 (float("inf"), 0, 1, 0, 1, 0), (1, float("nan"), 1, 0, 1, 0)]:
        with pytest.raises(ValueError, match="spin j must be >= 0|is not a half-integer"):
            clebsch_gordan(*args)


@pytest.mark.parametrize("tja,tjb", [(40, 40), (80, 80), (120, 120), (120, 15)])
def test_coupling_table_matches_exact_racah(tja, tjb):
    """Every column whose ma = ja entry is below 1e-12 (where a sign taken from that
    edge entry would be noise) is checked at its largest entry, and a 2% sample of
    the other columns at the edge, the largest and one random entry."""
    table = _coupling(tja, tjb)
    rng = np.random.default_rng(tja + tjb)
    worst, n_faint = 0.0, 0
    for tM, c in table.items():
        assert c.shape[0] == c.shape[1] and not c.flags.writeable
        top, tjmin = min(tja, tM + tjb), max(abs(tM), abs(tja - tjb))
        for k in range(c.shape[1]):
            faint = abs(c[0, k]) < 1e-12
            n_faint += faint
            if faint:
                rows = {int(np.argmax(np.abs(c[:, k])))}
            elif rng.random() < 0.02:
                rows = {0, int(np.argmax(np.abs(c[:, k]))), int(rng.integers(len(c)))}
            else:
                continue
            for i in rows:
                tma = top - 2 * i
                exact = cg_racah_exact(tja, tma, tjb, tM - tma, tjmin + 2 * k, tM)
                worst = max(worst, abs(c[i, k] - exact))
    assert worst <= 1e-13
    assert (n_faint > 0) == (tja >= 80 and tjb >= 80)   # 316 and 1654 faint columns
    with pytest.raises(TypeError):
        table[0] = None


def test_clebsch_gordan_matches_exact_racah():
    for args in [(3, 1, 2, 0, 3, 1), (5, -5, 5, 5, 8, 0), (120, 60, 15, -7, 115, 53), (7, 1, 4, 2, 9, 3)]:
        assert clebsch_gordan(*(t / 2 for t in args)) == pytest.approx(cg_racah_exact(*args), abs=1e-14)


# ---------------------------------------------------------------------------
# Wigner matrices
# ---------------------------------------------------------------------------

def test_wigner_rejects_negative_spin():
    for call in (lambda: wigner_d(-1, 0.3), lambda: wigner_D(-0.5, 0, 0.3, 0), lambda: angular_momentum(-1)):
        with pytest.raises(ValueError, match="spin j must be >= 0"):
            call()


def test_wigner_beta_zero_is_phases():
    d = wigner_D(1.5, 0.4, 0.0, 1.1)
    m = np.array([1.5, 0.5, -0.5, -1.5])
    assert np.abs(d - np.diag(np.exp(-1j * m * 1.5))).max() < 1e-12
    assert np.abs(wigner_D(2, 0, 0, 0) - np.eye(5)).max() < 1e-14


@pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 3])
def test_wigner_unitarity(j):
    rng = np.random.default_rng(20)
    for a, b, g in haar_angles(rng, 5):
        u = wigner_D(j, a, b, g)
        assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < 1e-12


@pytest.mark.parametrize("j", [1, 1.5, 2])
def test_wigner_homomorphism(j):
    rng = np.random.default_rng(21)
    for _ in range(5):
        g1, g2 = haar_angles(rng, 2)
        prod = wigner_D(j, *g1) @ wigner_D(j, *g2)
        direct = wigner_D(j, *su2_euler_compose(g1, g2))
        err = min(np.abs(prod - direct).max(), np.abs(prod + direct).max())
        assert err < 1e-10


def test_wigner_schur_orthogonality():
    n_ag, (cos_b, wbetas) = 13, np.polynomial.legendre.leggauss(7)
    betas = np.arccos(cos_b)
    angles = 4 * np.pi * np.arange(n_ag) / n_ag
    for tmu, tnu in [(2, 2), (2, 4), (3, 3), (4, 4), (1, 3)]:
        acc = np.zeros((3, 3), dtype=complex)
        checks = [(0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 0, 1)]
        vals = np.zeros(len(checks), dtype=complex)
        for aa in angles:
            for gg in angles:
                for bb, wb in zip(betas, wbetas):
                    dmu = wigner_D(tmu / 2, aa, bb, gg)
                    dnu = wigner_D(tnu / 2, aa, bb, gg)
                    for i, (a, b, c, d) in enumerate(checks):
                        vals[i] += wb * np.conj(dmu[a, b]) * dnu[c, d]
        vals /= 2 * n_ag * n_ag
        for i, (a, b, c, d) in enumerate(checks):
            expected = (1.0 / (tmu + 1)) if (tmu == tnu and a == c and b == d) else 0.0
            assert abs(vals[i] - expected) < 1e-6


# ---------------------------------------------------------------------------
# tensor operator bases
# ---------------------------------------------------------------------------

def test_spin_half_basis_closed_form():
    basis = tensor_basis_spin_j(0.5)
    assert len(basis.ops) == 4
    sz = np.diag([1.0, -1.0]).astype(complex)
    assert np.abs(basis.op(1, 0) - sz / np.sqrt(2)).max() < 1e-12
    assert np.abs(basis.op(0, 0) - np.eye(2) / np.sqrt(2)).max() < 1e-12


def test_spin_one_basis_count_and_ranks():
    basis = tensor_basis_spin_j(1)
    assert len(basis.ops) == 9
    assert basis.ranks() == [0, 2, 4]   # twice-mu


@pytest.mark.parametrize("j", [1, 1.5, 2])
def test_spin_j_closed_forms_condon_shortley(j):
    basis = tensor_basis_spin_j(j)
    ops = angular_momentum(j)
    lz, lp, lm = ops.Lz, ops.Lplus, ops.Lminus

    def assert_positive_multiple(t, ref):
        c = hs_inner(ref, t) / hs_inner(ref, ref)
        assert np.abs(t - c * ref).max() < 1e-12
        assert c.imag == pytest.approx(0, abs=1e-12)
        assert c.real > 0

    assert_positive_multiple(basis.op(0, 0), np.eye(ops.dim))
    assert_positive_multiple(basis.op(1, 0), lz)
    assert_positive_multiple(basis.op(1, 1), -lp / np.sqrt(2))
    assert_positive_multiple(basis.op(1, -1), lm / np.sqrt(2))
    assert_positive_multiple(basis.op(2, 2), lp @ lp / 2)
    assert_positive_multiple(basis.op(2, -2), lm @ lm / 2)
    assert_positive_multiple(basis.op(2, 1), -(lp @ lz + lz @ lp) / 2)
    assert_positive_multiple(basis.op(2, -1), (lm @ lz + lz @ lm) / 2)
    assert_positive_multiple(basis.op(2, 0), (3 * lz @ lz - ops.L2) / np.sqrt(6))

    # covariance forces the -+ sign on the odd-m components: the printed-sign
    # variants +L+/sqrt2 and +(L+Lz+LzL+)/2 are orthogonal to the actual ops
    assert hs_inner(basis.op(1, 1), lp).real < 0
    assert hs_inner(basis.op(2, 1), lp @ lz + lz @ lp).real < 0


@pytest.mark.parametrize("j", [0.5, 1, 2])
def test_spin_j_basis_covariance_and_gram(j):
    rep = SU2Representation.spin(j)
    basis = tensor_basis_spin_j(j)
    angles = haar_angles(np.random.default_rng(30), 20)
    assert covariance_residual(basis, rep, rep, angles) < 1e-10
    assert orthonormality_residual(basis) < 1e-12


def test_spin_25_basis_gram_and_covariance():
    """The spin-25 Gram residual, one m at a time: row (mu, m) is exactly zero off
    the band ma - mb = m, so rows of different m are exactly orthogonal."""
    rep = SU2Representation.spin(25)
    basis = tensor_basis_for(decompose(rep))   # uncached: the 108 MB stack is freed after the test
    flat = basis.stack.reshape(len(basis.labels), -1)
    tms = np.array([tm for _, tm, _ in basis.labels])
    dm = np.subtract.outer(rep.twice_m, rep.twice_m).reshape(-1)
    worst = 0.0
    for tm in range(-50, 51, 2):
        rows = flat[tms == tm]
        assert not rows[:, dm != tm].any()
        band = rows[:, dm == tm]
        worst = max(worst, float(np.abs(band.conj() @ band.T - np.eye(len(band))).max()))
    assert worst <= 1e-13
    assert covariance_residual(basis, rep, rep, haar_angles(np.random.default_rng(44), 1)) <= 1e-10


def test_oversized_basis_raises_before_allocating():
    dec = decompose(SU2Representation.spin(60))   # a 3.4 GB stack of 121^4 complex entries
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"needs 3429742096 bytes, over the \d+-byte limit"):
            tensor_basis_for(dec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_oversized_quadrature_raises_before_allocating():
    rep = SU2Representation.spin(40)
    modes = [(tmu, tmu - 2 * im) for tmu in range(0, 161, 2) for im in range(tmu + 1)]
    x = np.eye(rep.dim, dtype=complex)
    message = r"6561 mode components .* need 688747536 bytes, over the \d+-byte limit"   # of 81 x 81: 688 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            quadrature_mode_components(x, rep, modes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_basis_build_conjugates_the_right_rep_once(monkeypatch):
    calls = []
    conjugate = DecomposedRep.conjugate
    monkeypatch.setattr(DecomposedRep, "conjugate", lambda self: calls.append(self) or conjugate(self))
    dec = decompose(SU2Representation(((1, 2), (3, 1))))
    _tensor_ops_between(dec, dec)
    assert calls == [dec]


@pytest.mark.parametrize("make_pair", [
    lambda: (SU2Representation.spin(1.5), SU2Representation.spin(1.5)),
    lambda: (SU2Representation.spin(1), SU2Representation(((1, 2), (4, 1)))),
    lambda: (SU2Representation(((2, 2),)), SU2Representation.spin(0.5)),
    lambda: (decompose(SU2Representation.spin(0.5)).tensor(decompose(SU2Representation.spin(1))),
             SU2Representation.spin(1)),
], ids=["square", "rectangular", "multiplicity", "nested"])
def test_basis_rows_are_the_coupling_of_left_and_conjugate_right(make_pair):
    """Row (mu, m, alpha) of a basis is |mu m> of the alpha-th irrep pair of
    left x conj(right), reshaped to an operator and multiplied by (-1)^(2 jb)."""
    left, right = map(decompose, make_pair())
    basis = _tensor_ops_between(left, right)
    coupled = iter(left.tensor(right.conjugate()).components)   # pair-major, J ascending
    expected = {}
    for alpha, (tja, tjb) in enumerate(basis.pair_labels):
        for tmu in range(abs(tja - tjb), tja + tjb + 1, 2):
            tj, iso = next(coupled)
            assert tj == tmu
            for im in range(tmu + 1):   # column im holds m = mu - im
                expected[(tmu, tmu - 2 * im, alpha)] = (-1) ** tjb * iso[:, im].reshape(left.dim, right.dim)
    assert expected.keys() == basis.ops.keys()
    assert max(float(np.abs(basis.ops[key] - op).max()) for key, op in expected.items()) <= 1e-15


def test_representation_rejects_non_integer_and_empty_blocks():
    assert SU2Representation(((2.0, np.int64(1)), (np.float64(3), 2))).blocks == ((2, 1), (3, 2))
    for bad in (((1.5, 1),), ((2, 1.9),), ((2, 1), (0.5, 1)), (), ((float("nan"), 1),),
                ((float("inf"), 1),), (("4", 1),), ((-2, 1),), ((2, 0),)):
        with pytest.raises(ValueError):
            SU2Representation(bad)


def test_general_basis_single_irrep_matches_spin_basis():
    basis_a = tensor_basis_spin_j(1.5)
    basis_b = tensor_basis_general(SU2Representation.spin(1.5))
    for tmu in basis_a.ranks():
        for im in range(tmu + 1):
            tm = tmu - 2 * im
            pa = sum(np.outer(basis_a.ops[(tmu, tm, a)].reshape(-1),
                              basis_a.ops[(tmu, tm, a)].reshape(-1).conj())
                     for a in basis_a.alphas_for(tmu))
            pb = sum(np.outer(basis_b.ops[(tmu, tm, a)].reshape(-1),
                              basis_b.ops[(tmu, tm, a)].reshape(-1).conj())
                     for a in basis_b.alphas_for(tmu))
            assert np.abs(pa - pb).max() < 1e-10


def test_general_basis_multiplicity_two():
    rep = SU2Representation(((2, 2),))   # two copies of spin-1
    basis = tensor_basis_general(rep)
    assert len(basis.ops) == rep.dim ** 2
    for tmu in (0, 2, 4):
        assert len(basis.alphas_for(tmu)) == 4
    eye = np.eye(rep.dim, dtype=complex)
    recon = np.zeros_like(eye)
    for a in basis.alphas_for(0):
        t = basis.ops[(0, 0, a)]
        recon += t * np.vdot(t, eye)
    assert np.abs(recon - eye).max() < 1e-12


@pytest.mark.parametrize("blocks", [((0, 1), (2, 1)), ((1, 1), (2, 1)), ((1, 2), (4, 1))])
def test_general_basis_reducible_covariance(blocks):
    rep = SU2Representation(blocks)
    basis = tensor_basis_general(rep)
    angles = haar_angles(np.random.default_rng(31), 15)
    assert covariance_residual(basis, rep, rep, angles) < 1e-10
    assert orthonormality_residual(basis) < 1e-12
    assert len(basis.ops) == rep.dim ** 2


def test_orthonormality_residual_off_band_rows_take_the_full_gram():
    """Rows on a block representation that leave their band ma - mb = m can overlap
    rows of another m, which a per-m Gram would miss."""
    rep = SU2Representation.spin(1)
    basis = tensor_basis_general(rep)
    u = wigner_D(1, 0.3, 1.1, -0.4)
    rotated = {k: u @ t @ u.conj().T for k, t in basis.ops.items()}
    assert orthonormality_residual(TensorOperatorBasis(rotated, 3, 3, basis.pair_labels, rep=rep)) < 1e-12
    mixed = dict(basis.ops)
    mixed[(2, 0, 0)] = mixed[(2, 0, 0)] + 0.5 * mixed[(2, 2, 0)]
    assert orthonormality_residual(TensorOperatorBasis(mixed, 3, 3, basis.pair_labels, rep=rep)) == pytest.approx(0.5)


@pytest.mark.parametrize("blocks", [((1, 2), (3, 1)), ((4, 2), (3, 1), (2, 1), (0, 2))])
def test_block_rep_keeps_the_block_layout(blocks):
    """unitary and generator_lz are block diagonals of D^j x I_mult and Lz x I_mult."""
    rep = SU2Representation(blocks)

    def block_diagonal(parts):
        out = np.zeros((rep.dim, rep.dim), dtype=complex)
        off = 0
        for (tj, mult), part in zip(blocks, parts):
            n = (tj + 1) * mult
            out[off:off + n, off:off + n] = np.kron(part, np.eye(mult))
            off += n
        return out

    for a, b, g in haar_angles(np.random.default_rng(39), 4):
        want = block_diagonal([wigner_D(tj / 2, a, b, g) for tj, _ in blocks])
        assert np.array_equal(rep.unitary(a, b, g), want)
    lz = block_diagonal([angular_momentum(tj / 2).Lz for tj, _ in blocks])
    assert np.array_equal(rep.generator_lz(), lz)


def _rotated_isometries(dec, rng):
    u, _ = np.linalg.qr(rng.normal(size=(dec.dim, dec.dim)) + 1j * rng.normal(size=(dec.dim, dec.dim)))
    return DecomposedRep(dec.dim, tuple((tj, u @ v) for tj, v in dec.components))


@pytest.mark.parametrize("make_rep", [
    lambda rng: decompose(SU2Representation.spin(0.5)).tensor(decompose(SU2Representation.spin(1))),
    lambda rng: _rotated_isometries(decompose(SU2Representation(((1, 1), (2, 1)))), rng),
], ids=["half-x-one", "rotated-1x1.2x1"])
def test_decomposed_rep_oracle_covariance_and_unitary(make_rep):
    rng = np.random.default_rng(40)
    rep = make_rep(rng)
    for a, b, g in haar_angles(rng, 4):
        want = sum(v @ wigner_D(tj / 2, a, b, g) @ v.conj().T for tj, v in rep.components)
        assert np.abs(rep.unitary(a, b, g) - want).max() < 1e-13
    basis = tensor_basis_for(rep)
    assert covariance_residual(basis, rep, rep, haar_angles(rng, 10)) < 1e-10
    xs = rng.normal(size=(3, rep.dim, rep.dim)) + 1j * rng.normal(size=(3, rep.dim, rep.dim))
    quad = quadrature_mode_components(xs, rep, basis.modes)
    for tmu, tm in basis.modes:
        for x, q in zip(xs, quad[(tmu, tm)]):
            assert np.abs(basis.component(x, tmu / 2, tm / 2) - q).max() < 1e-10


def test_mode_project_examples():
    rep = SU2Representation.spin(1)
    eye = np.eye(3, dtype=complex)
    assert np.abs(so3_mode_project(eye, rep, 0, 0) - eye).max() < 1e-12
    lz = angular_momentum(1).Lz
    assert np.abs(so3_mode_project(lz, rep, 1, 0) - lz).max() < 1e-12
    assert np.abs(so3_mode_project(lz, rep, 1, 1)).max() < 1e-14
    assert np.abs(so3_mode_project(lz, rep, 1, -1)).max() < 1e-14


def test_mode_project_quadrature_dual_path():
    rng = np.random.default_rng(32)
    rep = SU2Representation.spin(1.5)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    for mu, m in [(0, 0), (1, 1), (2, 0), (3, -2)]:
        a = so3_mode_project(x, rep, mu, m)
        b = so3_mode_project_quadrature(x, rep, mu, m)
        assert np.abs(a - b).max() < 1e-8


@pytest.mark.parametrize("make_rep", [
    lambda rng: SU2Representation.spin(1),
    lambda rng: SU2Representation.spin(1.5),
    lambda rng: SU2Representation(((1, 1), (2, 1))),
    lambda rng: _rotated_isometries(decompose(SU2Representation(((1, 1), (2, 1)))), rng),
], ids=["spin-1", "spin-3/2", "1x1.2x1", "rotated-1x1.2x1"])
def test_quadrature_matches_the_literal_three_angle_average(make_rep, monkeypatch):
    """The oracle's alpha and gamma band masks against the average they replace:
    U X U^dag weighted by conj(D^mu_mm) on a uniform alpha, gamma x Gauss-Legendre
    beta grid, exact because the integrand's twice-frequencies are at most t_band."""
    rng = np.random.default_rng(45)
    rep = make_rep(rng)
    basis = tensor_basis_for(rep)
    xs = rng.normal(size=(2, rep.dim, rep.dim)) + 1j * rng.normal(size=(2, rep.dim, rep.dim))
    t_band = 2 * rep.max_twice_j + max(basis.ranks())
    angles = 4 * np.pi * np.arange(t_band + 1) / (t_band + 1)
    cos_b, w_b = np.polynomial.legendre.leggauss(t_band // 2 + 2)
    want = {mode: np.zeros_like(xs) for mode in basis.modes}
    for aa in angles:
        for bb, wb in zip(np.arccos(cos_b), w_b):
            for gg in angles:
                u = rep.unitary(aa, bb, gg)
                rotated = u @ xs @ u.conj().T
                d_mu = {tmu: wigner_D(tmu / 2, aa, bb, gg) for tmu in basis.ranks()}
                for tmu, tm in basis.modes:
                    k = (tmu - tm) // 2
                    want[(tmu, tm)] += (tmu + 1) / 2 * wb * np.conj(d_mu[tmu][k, k]) * rotated
    monkeypatch.delattr(su2_module, "_coupling")   # the oracle is independent of the coupling table
    got = quadrature_mode_components(xs, rep, basis.modes)
    for mode in basis.modes:
        assert np.abs(want[mode] / len(angles) ** 2 - got[mode]).max() < 1e-12


def test_quadrature_peak_memory_is_near_its_output():
    rep = SU2Representation(((4, 2), (3, 1), (2, 1), (0, 2)))
    modes = tensor_basis_general(rep).modes
    rng = np.random.default_rng(46)
    xs = rng.normal(size=(50, rep.dim, rep.dim)) + 1j * rng.normal(size=(50, rep.dim, rep.dim))
    quadrature_mode_components(xs[:1], rep, modes)   # warms the cached decomposition and little-d
    tracemalloc.start()
    try:
        out = quadrature_mode_components(xs, rep, modes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sum(v.nbytes for v in out.values())


def test_mode_reconstruction_and_parseval():
    rng = np.random.default_rng(33)
    rep = SU2Representation(((1, 1), (2, 1)))
    basis = tensor_basis_general(rep)
    x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert np.abs(basis.reconstruct(x) - x).max() < 1e-12
    total = 0.0
    for tmu in basis.ranks():
        for im in range(tmu + 1):
            tm = tmu - 2 * im
            total += np.linalg.norm(basis.component(x, tmu / 2, tm / 2)) ** 2
    assert total == pytest.approx(np.linalg.norm(x) ** 2, rel=1e-12)


def test_hermitian_conjugate_mode_check():
    basis = tensor_basis_spin_j(1)
    report = hermitian_conjugate_mode_check(basis)
    assert report.ok
    t10 = basis.op(1, 0)
    assert np.abs(t10 - t10.conj().T).max() < 1e-12
    tp = basis.op(1, 1).conj().T
    tm = basis.op(1, -1)
    c = np.vdot(tm, tp) / np.vdot(tm, tm)
    assert np.abs(tp - c * tm).max() < 1e-12
    for j in (0.5, 1.5, 2, 3):
        assert hermitian_conjugate_mode_check(tensor_basis_spin_j(j)).ok


def test_hermitian_conjugate_mode_check_multiplicity_and_broken_basis():
    multiplicity = tensor_basis_general(SU2Representation(((1, 2), (3, 1))))
    assert hermitian_conjugate_mode_check(multiplicity).ok
    ops = dict(tensor_basis_spin_j(1).ops)
    ops[(2, 2, 0)] = np.eye(3, dtype=complex) / np.sqrt(3)
    report = hermitian_conjugate_mode_check(TensorOperatorBasis(ops, 3, 3, ((2, 2),)))
    assert not report.ok
    # I/sqrt(3) is its own conjugate, but T(1,-1)^dag lies along the removed T(1,1)
    assert report.residuals[(2, 2, 0)] < 1e-12
    assert report.residuals[(2, -2, 0)] > 0.5
    assert report.max_residual == report.residuals[(2, -2, 0)]


def _unsorted_spin_one_basis():
    base = tensor_basis_spin_j(1)
    ops = {key: base.ops[key].copy() for key in reversed(base.labels)}
    return TensorOperatorBasis(ops, 3, 3, base.pair_labels)


@pytest.mark.parametrize("make_basis", [
    lambda: tensor_basis_spin_j(3),
    lambda: tensor_basis_general(SU2Representation(((1, 2), (3, 1)))),
    lambda: tensor_basis_general(SU2Representation(((4, 2), (3, 1), (2, 1), (0, 2)))),
    lambda: superop_tensor_basis(SU2Representation.spin(0.5), SU2Representation.spin(1)),
    _unsorted_spin_one_basis,
], ids=["spin-3", "mult-1x2.3", "d19", "superop-half-to-one", "unsorted-dict"])
def test_projection_kernel_matches_per_operator_loop(make_basis):
    basis = make_basis()
    rng = np.random.default_rng(37)
    shape = (basis.dim_left, basis.dim_right)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)

    # reference: one vdot per operator, accumulated per mode
    expected_coeffs = np.array([np.vdot(basis.ops[key], x) for key in basis.labels])
    expected = {}
    for (tmu, tm, _), t in basis.ops.items():
        expected.setdefault((tmu, tm), np.zeros(shape, dtype=complex))
        expected[(tmu, tm)] += t * np.vdot(t, x)

    assert list(basis.labels) == sorted(basis.ops)
    assert basis.stack.shape == (len(basis.labels),) + shape
    assert np.abs(basis.coefficients(x) - expected_coeffs).max() < 1e-12
    batch = basis.coefficients(np.stack([x, 2j * x]))
    assert np.abs(batch - np.column_stack([expected_coeffs, 2j * expected_coeffs])).max() < 1e-12
    comps = basis.components(x)
    assert list(comps) == sorted(expected)
    stacked = next(iter(comps.values())).base   # the components are rows of one array
    assert stacked.shape == (len(comps),) + shape
    assert all(np.shares_memory(c, stacked) for c in comps.values())
    for (tmu, tm), ref in expected.items():
        assert np.abs(comps[(tmu, tm)] - ref).max() < 1e-12
        assert np.abs(basis.component(x, tmu / 2, tm / 2) - ref).max() < 1e-12
    assert np.abs(basis.reconstruct(x) - sum(expected.values())).max() < 1e-12
    for k, key in enumerate(basis.labels):
        assert np.shares_memory(basis.ops[key], basis.stack)
        assert np.array_equal(basis.ops[key], basis.stack[k])

    wrong = np.zeros((basis.dim_left + 1, basis.dim_right), dtype=complex)
    for project in (basis.coefficients, basis.components, basis.reconstruct,
                    lambda y: basis.component(y, 0, 0)):
        with pytest.raises(ValueError):
            project(wrong)
    if basis.dim_left != basis.dim_right:
        with pytest.raises(ValueError):   # a transposed operator is rejected, not reshaped
            TensorOperatorBasis({(0, 0, 0): np.zeros(shape[::-1])}, *shape, ((0, 0),))


def test_cached_bases_are_read_only():
    rep = SU2Representation.spin(1)
    up = np.diag([1.0, 0, 0]).astype(complex)
    before = mode_monotone_table(up, rep).entries
    with pytest.raises(ValueError):
        tensor_basis_spin_j(1).ops[(2, 0, 0)][...] = 0
    for basis in (tensor_basis_general(rep), superop_tensor_basis(SU2Representation.spin(0.5), rep)):
        with pytest.raises(ValueError):
            basis.stack[...] = 0
        assert not any(view.flags.writeable for view in basis.ops.values())
    assert mode_monotone_table(up, rep).entries == before
    assert before[(2, 0)] == pytest.approx(1.0)


def test_cached_decompositions_are_read_only():
    rep = SU2Representation(((1, 2), (2, 1)))
    dec = decompose(rep)
    assert decompose(SU2Representation(((1, 2), (2, 1)))) is dec
    w, block = dec.block_form()
    assert dec.block_form()[0] is w
    coupled = dec.tensor(decompose(SU2Representation.spin(1)))
    cached = [v for _, v in dec.components] + [w, block.twice_m, rep.twice_m, angular_momentum(1).Lz]
    for array in cached + [v for _, v in coupled.components + dec.conjugate().components]:
        with pytest.raises(ValueError):
            array[...] = 0
    assert np.array_equal(w, np.eye(rep.dim)[:, [0, 2, 1, 3, 4, 5, 6]])


def test_evicted_basis_rebuilds_bit_for_bit():
    rep = SU2Representation(((2, 2), (1, 1)))
    first = tensor_basis_general(rep)
    stack = first.stack.tobytes()
    # distinct spin-0 / spin-1/2 block sequences push rep out of the bounded cache
    for i in range(2, 2 + tensor_basis_general.cache_info().maxsize):
        tensor_basis_general(SU2Representation(tuple((int(bit), 1) for bit in f"{i:b}")))
    rebuilt = tensor_basis_general(rep)
    assert rebuilt is not first
    assert rebuilt.labels == first.labels
    assert rebuilt.stack.tobytes() == stack


@pytest.mark.parametrize("blocks", [((6, 1),), ((1, 2), (3, 1)), ((4, 2), (3, 1), (2, 1), (0, 2))],
                         ids=["spin-3", "mult-1x2.3", "d19"])
def test_mode_stack_of_a_row_prefix(blocks):
    basis = tensor_basis_general(SU2Representation(blocks))
    rng = np.random.default_rng(42)
    d = basis.dim_left
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if len(basis.modes) == len(basis.labels):
        assert basis.mode_starts is None   # nothing to sum per mode
    else:
        assert [basis.labels[i][:2] for i in basis.mode_starts] == list(basis.modes)
    full = basis.mode_stack(x)
    assert full.shape == (len(basis.modes), d, d)
    for tmu in basis.ranks():
        n = sum(1 for mode in basis.modes if mode[0] <= tmu)
        prefix = basis.mode_stack(x, _rows(basis.labels, tmu).stop)
        assert prefix.shape == (n, d, d)
        assert np.abs(prefix - full[:n]).max() < 1e-14


@pytest.mark.parametrize("j", [1, 1.5])
def test_wigner_eckart_reduced_element(j):
    basis = tensor_basis_spin_j(j)
    tj = int(2 * j)
    for tmu in basis.ranks():
        if tmu == 0:
            continue
        ratios = []
        t_by_m = {tm: basis.ops[(tmu, tm, 0)] for tm in range(-tmu, tmu + 1, 2)}
        for tm1 in range(-tmu, tmu + 1, 2):
            for tm2 in range(-tj, tj + 1, 2):
                for tm3 in range(-tj, tj + 1, 2):
                    c = clebsch_gordan(tmu / 2, tm1 / 2, tj / 2, tm2 / 2, tj / 2, tm3 / 2)
                    if abs(c) < 1e-8:
                        continue
                    elem = t_by_m[tm1][(tj - tm3) // 2, (tj - tm2) // 2]
                    ratios.append(elem / c)
        ratios = np.array(ratios)
        assert np.abs(ratios - ratios[0]).max() < 1e-9


def test_cg_composition_closure():
    # rank-1 x rank-1 -> rank-2 operator products stay covariant
    rep = SU2Representation.spin(1)
    base = tensor_basis_spin_j(1)
    t1 = {tm: base.ops[(2, tm, 0)] for tm in (-2, 0, 2)}
    s_ops = {}
    for tm in range(-4, 5, 2):
        s = np.zeros((3, 3), dtype=complex)
        for tm1 in (-2, 0, 2):
            tm2 = tm - tm1
            if abs(tm2) > 2:
                continue
            c = clebsch_gordan(1, tm1 / 2, 1, tm2 / 2, 2, tm / 2)
            s += c * (t1[tm1] @ t1[tm2])
        s_ops[(4, tm, 0)] = s
    composed = TensorOperatorBasis(s_ops, 3, 3, ((2, 2),))
    angles = haar_angles(np.random.default_rng(34), 10)
    assert covariance_residual(composed, rep, rep, angles) < 1e-9


@pytest.mark.parametrize("j", [0.5, 1, 1.5, 2, 3])
def test_conjugation_intertwiner(j):
    rng = np.random.default_rng(35)
    y = wigner_d(j, np.pi)
    for a, b, g in haar_angles(rng, 5):
        u = wigner_D(j, a, b, g)
        assert np.abs(u.conj() - y @ u @ y.conj().T).max() < 1e-12


def test_twirl_state_matches_zero_mode():
    rng = np.random.default_rng(36)
    rep = SU2Representation(((1, 1), (2, 1)))
    x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    tw = twirl_state(x, rep)
    zero_modes = np.zeros_like(x)
    basis = tensor_basis_general(rep)
    for a in basis.alphas_for(0):
        t = basis.ops[(0, 0, a)]
        zero_modes += t * np.vdot(t, x)
    assert np.abs(tw - zero_modes).max() < 1e-12
    a, b, g = haar_angles(np.random.default_rng(1), 1)[0]
    u = rep.unitary(a, b, g)
    assert np.abs(u @ tw @ u.conj().T - tw).max() < 1e-12


def test_axial_twirl():
    rng = np.random.default_rng(37)
    j = 1.5
    rho = np.random.default_rng(38).normal(size=(4, 4))
    rho = rho @ rho.T
    rho = (rho / np.trace(rho)).astype(complex)
    lz = angular_momentum(j).Lz
    sym = axial_twirl(rho, j)
    # invariant under rotations about z, same Lz moments
    theta = 1.3
    u = np.diag(np.exp(-1j * theta * np.diag(lz)))
    assert np.abs(u @ sym @ u.conj().T - sym).max() < 1e-12
    for k in (1, 2, 3):
        assert np.trace(np.linalg.matrix_power(lz, k) @ sym) == pytest.approx(
            np.trace(np.linalg.matrix_power(lz, k) @ rho), abs=1e-12)
    # along a tilted axis the axis moments are preserved as well
    ax = np.array([1.0, -2.0, 0.5])
    ax /= np.linalg.norm(ax)
    ops = angular_momentum(j)
    ln = ax[0] * ops.Lx + ax[1] * ops.Ly + ax[2] * ops.Lz
    sym2 = axial_twirl(rho, j, ax)
    assert np.trace(ln @ sym2) == pytest.approx(np.trace(ln @ rho), abs=1e-11)


@pytest.mark.parametrize("blocks", [((1, 1),), ((6, 1),), ((1, 2),), ((0, 1), (2, 1)), ((2, 2), (4, 1))],
                         ids=lambda b: "+".join(f"{tj}x{m}" for tj, m in b))
def test_rank_rows_and_row_trace_norms(blocks):
    basis = tensor_basis_general(SU2Representation(blocks))
    assert basis.rank_rows is basis.rank_rows   # built once per instance
    assert list(basis.rank_rows) == basis.ranks() == sorted({tmu for tmu, _, _ in basis.labels})
    for tmu, rows in basis.rank_rows.items():
        assert rows == _rows(basis.labels, tmu)
        n_alpha = len(basis.alphas_for(tmu))
        # (m ascending, alpha): 2mu+1 modes of n_alpha rows each
        assert [label[1:] for label in basis.labels[rows]] == [
            (tm, a) for tm in range(-tmu, tmu + 1, 2) for a in basis.alphas_for(tmu)]
        assert rows.stop - rows.start == (tmu + 1) * n_alpha
    with pytest.raises(TypeError):
        basis.rank_rows[0] = slice(0, 0)
    norms = basis.row_trace_norms
    assert norms is basis.row_trace_norms
    np.testing.assert_allclose(norms, [trace_norm(t) for t in basis.stack], rtol=1e-13, atol=0)
    with pytest.raises(ValueError):
        norms[0] = 0.0
