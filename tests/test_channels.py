import numpy as np
import pytest

from asymmodes import (
    POVM,
    SU2Representation,
    Superoperator,
    apply_reduced,
    apply_superop,
    channel_from_kraus,
    coefficient_bounds_check,
    compose_reduced,
    compose_superops,
    conjugation_superop,
    covariant_joint_unitary,
    decompose,
    identity_superop,
    measurement_channel,
    missing_mode_family,
    mode_monotone_table,
    random_covariant_channel,
    random_density_matrix,
    reduce_covariant,
    simulate_with_frame,
    superop_covariance_residual,
    superop_from_map,
    superop_mode_project,
    superop_mode_spectrum,
    superop_tensor_basis,
    tensor_basis_general,
    trace_norm,
    twirl_state,
    twirl_superop,
    wigner_D,
)
from asymmodes.channels import CovariantChannelCoefficients, _apply_blocks, _precompose
from asymmodes.su2 import _rows

REP_HALF = SU2Representation.spin(0.5)
REP_ONE = SU2Representation.spin(1)


def depolarizing(lam):
    skip = np.sqrt(1 - 3 * lam / 4)
    s = np.sqrt(lam / 4)
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]])]
    return channel_from_kraus([skip * paulis[0]] + [s * p for p in paulis[1:]])


def twirl_channel(rep):
    return superop_from_map(lambda x: twirl_state(x, rep), rep.dim, rep.dim)


def choi_matrix(e):
    left = e.liouville.reshape(e.out_dim, e.out_dim, e.in_dim, e.in_dim)
    return left.transpose(0, 2, 1, 3).reshape(e.out_dim * e.in_dim, e.out_dim * e.in_dim)


def test_reduce_identity_channel():
    for j in (0.5, 1, 1.5):
        rep = SU2Representation.spin(j)
        basis = tensor_basis_general(rep)
        coeffs, residual = reduce_covariant(identity_superop(rep.dim), basis, basis)
        assert residual < 1e-12
        for tmu in coeffs.ranks():
            assert coeffs.coefficient(tmu / 2) == pytest.approx(1.0, abs=1e-12)


def test_reduce_twirl_channel():
    basis = tensor_basis_general(REP_ONE)
    coeffs, residual = reduce_covariant(twirl_channel(REP_ONE), basis, basis)
    assert residual < 1e-12
    assert coeffs.coefficient(0) == pytest.approx(1.0, abs=1e-12)
    for tmu in (2, 4):
        assert abs(coeffs.coefficient(tmu / 2)) < 1e-12


def test_reduce_depolarizing():
    lam = 0.35
    chan = depolarizing(lam)
    basis = tensor_basis_general(REP_HALF)
    coeffs, residual = reduce_covariant(chan, basis, basis)
    assert residual < 1e-12
    assert coeffs.coefficient(0) == pytest.approx(1.0)
    assert coeffs.coefficient(1) == pytest.approx(1 - lam)
    # hand evaluation of tr(T^(1)dag E(T^(1)))
    t = basis.ops[(2, 2, 0)]
    assert np.vdot(t, apply_superop(chan, t)) == pytest.approx(1 - lam)


def test_reduce_residual_of_noncovariant_map():
    rng = np.random.default_rng(38)
    basis = tensor_basis_general(REP_ONE)
    kraus = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3)]
    w, v = np.linalg.eigh(sum(k.conj().T @ k for k in kraus))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    chan = channel_from_kraus([k @ inv_sqrt for k in kraus])
    assert chan.trace_preserving
    coeffs, residual = reduce_covariant(chan, basis, basis)

    # reference: the definition, one operator at a time
    expected = 0.0
    for (tmu, tm, a), t in basis.ops.items():
        alphas = basis.alphas_for(tmu)
        img = apply_superop(chan, t)
        hi = apply_superop(chan, basis.ops[(tmu, tmu, a)])
        recon = np.zeros_like(img)
        for jb, b in enumerate(alphas):
            c = np.vdot(basis.ops[(tmu, tmu, b)], hi)
            assert abs(coeffs.mu_blocks[tmu][jb, alphas.index(a)] - c) < 1e-12
            recon += c * basis.ops[(tmu, tm, b)]
        expected = max(expected, trace_norm(img - recon))
    assert residual > 1e-2
    assert abs(residual - expected) < 1e-12
    with pytest.raises(ValueError):
        apply_reduced(coeffs, np.eye(2))


def test_apply_reduced_examples():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    basis = tensor_basis_general(REP_ONE)
    ident, _ = reduce_covariant(identity_superop(3), basis, basis)
    assert np.abs(apply_reduced(ident, x) - x).max() < 1e-12
    tw, _ = reduce_covariant(twirl_channel(REP_ONE), basis, basis)
    assert np.abs(apply_reduced(tw, x) - twirl_state(x, REP_ONE)).max() < 1e-12
    chan = random_covariant_channel(REP_ONE, REP_ONE, rng)
    coeffs, residual = reduce_covariant(chan, basis, basis)
    assert residual < 1e-10
    assert np.abs(apply_reduced(coeffs, x) - apply_superop(chan, x)).max() < 1e-10


def test_compose_reduced():
    rng = np.random.default_rng(1)
    basis = tensor_basis_general(REP_ONE)
    e1 = random_covariant_channel(REP_ONE, REP_ONE, rng)
    e2 = random_covariant_channel(REP_ONE, REP_ONE, rng)
    c1, _ = reduce_covariant(e1, basis, basis)
    c2, _ = reduce_covariant(e2, basis, basis)
    ident, _ = reduce_covariant(identity_superop(3), basis, basis)

    composed = compose_reduced(c2, c1)
    direct, _ = reduce_covariant(compose_superops(e2, e1), basis, basis)
    for tmu in composed.ranks():
        assert composed.mu_blocks[tmu] == pytest.approx(direct.mu_blocks[tmu], abs=1e-10)
    with_id = compose_reduced(ident, c1)
    for tmu in c1.ranks():
        assert with_id.mu_blocks[tmu] == pytest.approx(c1.mu_blocks[tmu], abs=1e-12)

    tw, _ = reduce_covariant(twirl_channel(REP_ONE), basis, basis)
    twtw = compose_reduced(tw, tw)
    assert twtw.coefficient(0) == pytest.approx(1.0)
    assert abs(twtw.coefficient(1)) < 1e-12


def test_multiplicity_free_channels_commute():
    rng = np.random.default_rng(2)
    e1 = random_covariant_channel(REP_ONE, REP_ONE, rng)
    e2 = random_covariant_channel(REP_ONE, REP_ONE, rng)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ab = apply_superop(e1, apply_superop(e2, x))
    ba = apply_superop(e2, apply_superop(e1, x))
    assert np.abs(ab - ba).max() < 1e-10


def test_coefficient_bounds_check():
    basis_half = tensor_basis_general(REP_HALF)
    coeffs, _ = reduce_covariant(depolarizing(0.4), basis_half, basis_half)
    report = coefficient_bounds_check(coeffs)
    assert report.ok
    assert all(b == pytest.approx(1.0) for b in report.bounds.values())

    bad = CovariantChannelCoefficients({0: np.array([[1.0]]), 2: np.array([[1.2]])},
                                       basis_half, basis_half)
    report = coefficient_bounds_check(bad)
    assert not report.ok
    assert report.violations == (2,)

    basis_one = tensor_basis_general(REP_ONE)
    cross = random_covariant_channel(REP_ONE, REP_HALF, np.random.default_rng(3))
    ccross, _ = reduce_covariant(cross, basis_one, basis_half)
    rep_cross = coefficient_bounds_check(ccross)
    assert rep_cross.ok
    for (tmu, tm), bound in rep_cross.bounds.items():
        expected = trace_norm(basis_one.ops[(tmu, tm, 0)]) / trace_norm(basis_half.ops[(tmu, tm, 0)])
        assert bound == pytest.approx(expected)


def test_twirl_superop():
    rng = np.random.default_rng(4)
    cov = random_covariant_channel(REP_ONE, REP_ONE, rng)
    assert np.abs(twirl_superop(cov, REP_ONE, REP_ONE).liouville - cov.liouville).max() < 1e-10

    arbitrary = channel_from_kraus([np.linalg.qr(rng.normal(size=(3, 3))
                                                 + 1j * rng.normal(size=(3, 3)))[0]])
    twirled = twirl_superop(arbitrary, REP_ONE, REP_ONE)
    basis = tensor_basis_general(REP_ONE)
    _, residual = reduce_covariant(twirled, basis, basis)
    assert residual < 1e-10

    rot = conjugation_superop(wigner_D(1, 0.3, 1.1, -0.4))
    rot_twirled = twirl_superop(rot, REP_ONE, REP_ONE)
    assert np.abs(rot.liouville - rot_twirled.liouville).max() > 1e-2


def test_superop_modes_of_covariant_map():
    rng = np.random.default_rng(5)
    cov = random_covariant_channel(REP_ONE, REP_ONE, rng)
    spec = superop_mode_spectrum(cov, REP_ONE, REP_ONE, tol=1e-10)
    assert spec.modes() == {(0, 0)}


def test_superop_modes_of_z_rotation():
    rot = conjugation_superop(wigner_D(0.5, 0.9, 0.0, 0.0))
    spec = superop_mode_spectrum(rot, REP_HALF, REP_HALF, tol=1e-12)
    assert spec.modes() <= {(0, 0), (2, 0), (4, 0)}
    assert (2, 0) in spec.modes()
    for (tmu, tm) in spec.norms:
        assert tm == 0


def test_superop_mode_project_matches_group_average_quadrature():
    # independent path: e^(mu,m) = d_mu int dg conj(u^mu_mm) W_out(g) L W_in(g)^dag
    # with W = U x conj(U), on a band-limit-exact Euler grid
    rng = np.random.default_rng(40)
    e = channel_from_kraus([rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                            for _ in range(2)])
    n_ag = 13
    xs, ws = np.polynomial.legendre.leggauss(6)
    betas = np.arccos(xs)
    for mu, m in [(0, 0), (1, 0), (1, 1), (2, -1)]:
        acc = np.zeros_like(e.liouville)
        for ia in range(n_ag):
            aa = 4 * np.pi * ia / n_ag
            for ig in range(n_ag):
                gg = 4 * np.pi * ig / n_ag
                for bb, wb in zip(betas, ws):
                    u = wigner_D(0.5, aa, bb, gg)
                    w = np.kron(u, u.conj())
                    val = wigner_D(mu, aa, bb, gg)[mu - m, mu - m]
                    acc += wb * np.conj(val) * (w @ e.liouville @ w.conj().T)
        acc *= (2 * mu + 1) / (2 * n_ag * n_ag)
        direct = superop_mode_project(e, REP_HALF, REP_HALF, mu, m)
        assert np.abs(acc - direct.liouville).max() < 1e-10


def test_superop_band_limit():
    # superoperators between spin-j1 and spin-j2 stop at rank 2(j1+j2)
    basis = superop_tensor_basis(REP_HALF, REP_HALF)
    assert max(basis.ranks()) == 4
    basis12 = superop_tensor_basis(REP_HALF, REP_ONE)
    assert max(basis12.ranks()) == 2 * (1 + 2)


def test_superop_mode_reconstruction():
    rng = np.random.default_rng(6)
    e = channel_from_kraus([np.linalg.qr(rng.normal(size=(2, 2))
                                         + 1j * rng.normal(size=(2, 2)))[0]])
    spec = superop_mode_spectrum(e, REP_HALF, REP_HALF)
    total = sum(s.liouville for s in spec.components.values())
    assert np.abs(total - e.liouville).max() < 1e-12
    proj = superop_mode_project(e, REP_HALF, REP_HALF, 1, 0)
    assert np.abs(proj.liouville - spec.components[(2, 0)].liouville).max() < 1e-12


def test_measurement_channel():
    povm_trivial = POVM.from_elements([np.eye(2)])
    chan, spec = measurement_channel(povm_trivial, REP_HALF, tol=1e-10)
    assert set(spec.norms) == {(0, 0)}

    sz_povm = POVM.from_elements([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    chan, spec = measurement_channel(sz_povm, REP_HALF, tol=1e-10)
    assert set(spec.norms) == {(0, 0), (2, 0)}
    rho = random_density_matrix(2, np.random.default_rng(7))
    out = apply_superop(chan, rho)
    assert out[0, 0] == pytest.approx(rho[0, 0])
    assert abs(out[0, 1]) < 1e-12

    rng = np.random.default_rng(8)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    m1 = g @ g.conj().T
    m1 = m1 / np.linalg.eigvalsh(m1).max() * 0.9
    povm_rand = POVM.from_elements([m1, np.eye(3) - m1])
    _, spec1 = measurement_channel(povm_rand, REP_ONE, tol=1e-10)
    assert all(tmu <= 4 for (tmu, tm) in spec1.norms)   # mu <= 2l with l = 1


def test_measurement_modes_match_povm_element_modes():
    rng = np.random.default_rng(9)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m1 = g @ g.conj().T
    m1 = m1 / np.linalg.eigvalsh(m1).max() * 0.8
    povm = POVM.from_elements([m1, np.eye(2) - m1])
    _, spec = measurement_channel(povm, REP_HALF, tol=1e-10)
    basis = tensor_basis_general(REP_HALF)
    element_modes = set()
    for m in povm.elements:
        element_modes |= {label[:2] for label, c in zip(basis.labels, basis.coefficients(m))
                          if abs(c) > 1e-10}
    assert spec.modes() == element_modes


def test_simulate_with_frame_symmetric_frame_gives_covariant_channel():
    rng = np.random.default_rng(10)
    dec_joint = decompose(REP_HALF).tensor(decompose(REP_ONE))
    joint = random_covariant_channel(dec_joint, dec_joint, rng)
    eff = simulate_with_frame(joint, np.eye(3, dtype=complex) / 3, REP_HALF, REP_ONE)
    spec = superop_mode_spectrum(eff, REP_HALF, REP_HALF, tol=1e-10)
    assert spec.modes() == {(0, 0)}


def test_simulate_with_frame_polarized_frame_unlocks_rank_one():
    u = covariant_joint_unitary(REP_HALF, REP_ONE, {1: 1.3, 3: -0.6})
    joint = channel_from_kraus([u])
    frame = np.zeros((3, 3), dtype=complex)
    frame[0, 0] = 1.0   # |j=1, m=1>
    eff = simulate_with_frame(joint, frame, REP_HALF, REP_ONE)
    spec = superop_mode_spectrum(eff, REP_HALF, REP_HALF, tol=1e-10)
    assert (2, 0) in spec.modes()
    assert np.trace(apply_superop(eff, np.eye(2) / 2)) == pytest.approx(1.0)


def test_simulate_with_frame_rejects_noncovariant_joint():
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    joint = channel_from_kraus([q])
    with pytest.raises(ValueError, match="not covariant"):
        simulate_with_frame(joint, np.eye(3, dtype=complex) / 3, REP_HALF, REP_ONE)


def test_frame_mode_containment_random_pairs():
    rng = np.random.default_rng(12)
    dec_joint = decompose(REP_HALF).tensor(decompose(REP_ONE))
    for _ in range(100):
        joint = random_covariant_channel(dec_joint, dec_joint, rng)
        frame = random_density_matrix(3, rng, rank=int(rng.integers(1, 4)))
        eff = simulate_with_frame(joint, frame, REP_HALF, REP_ONE)
        spec = superop_mode_spectrum(eff, REP_HALF, REP_HALF, tol=0.0)
        frame_table = mode_monotone_table(frame, REP_ONE)
        for (tmu, tm), nrm in spec.norms.items():
            if (tmu, tm) == (0, 0):
                continue
            if frame_table.entries.get((tmu, tm), 0.0) <= 1e-12:
                assert nrm < 1e-9


def test_random_covariant_channel_is_cptp_and_covariant():
    rng = np.random.default_rng(13)
    for in_rep, out_rep in [(REP_HALF, REP_HALF), (REP_ONE, REP_HALF),
                            (SU2Representation(((0, 1), (2, 1))), REP_ONE)]:
        chan = random_covariant_channel(in_rep, out_rep, rng)
        assert superop_covariance_residual(chan, in_rep, out_rep) < 1e-10
        rho = random_density_matrix(in_rep.dim, rng)
        assert np.trace(apply_superop(chan, rho)) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(choi_matrix(chan)).min() > -1e-10


def test_parameter_count_spin_half_channel():
    rng = np.random.default_rng(14)
    basis = tensor_basis_general(REP_HALF)
    chan = random_covariant_channel(REP_HALF, REP_HALF, rng)
    coeffs, _ = reduce_covariant(chan, basis, basis)
    assert coeffs.ranks() == [0, 2]
    assert coeffs.coefficient(0) == pytest.approx(1.0, abs=1e-10)
    assert abs(coeffs.coefficient(1).imag) < 1e-10
    # the single real coefficient reproduces the channel exactly
    rebuilt = CovariantChannelCoefficients(
        {0: np.array([[1.0]]), 2: np.array([[coeffs.coefficient(1).real]])}, basis, basis)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert np.abs(apply_reduced(rebuilt, x) - apply_superop(chan, x)).max() < 1e-9


def test_parameter_count_cross_spin():
    rng = np.random.default_rng(15)
    rep1, rep2 = REP_ONE, SU2Representation.spin(2)
    b1, b2 = tensor_basis_general(rep1), tensor_basis_general(rep2)
    chan = random_covariant_channel(rep1, rep2, rng)
    coeffs, _ = reduce_covariant(chan, b1, b2)
    free = [tmu for tmu in coeffs.ranks() if tmu > 0]
    assert len(free) == 2 * min(1, 2)
    rebuilt = CovariantChannelCoefficients(
        {tmu: np.array([[coeffs.mu_blocks[tmu][0, 0].real]]) for tmu in coeffs.ranks()},
        b1, b2)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.abs(apply_reduced(rebuilt, x) - apply_superop(chan, x)).max() < 1e-9


def test_missing_mode_family_n1():
    report = missing_mode_family(1)
    assert report.rep.blocks == ((6, 1),)
    table = mode_monotone_table(np.outer(report.amplitudes, report.amplitudes.conj()), report.rep)
    for (tmu, tm), v in table.entries.items():
        if tm != 0:
            assert v < 1e-12
    assert report.rank1_norms[2] < 1e-12
    assert report.rank1_norms[-2] < 1e-12
    assert report.rank1_norms[0] > 0.1


def test_missing_mode_family_n2():
    report = missing_mode_family(2)
    assert report.rank1_norms[2] < 1e-12
    assert report.rank1_norms[-2] < 1e-12
    assert report.f_mu0_example[1] > 0.1
    assert report.min_rotation_overlap < 0.99


def test_missing_mode_family_size_guard():
    with pytest.raises(ValueError, match="exceeds"):
        missing_mode_family(4, max_dim=50)


@pytest.mark.parametrize("d_in, d_out", [(2, 3), (4, 2), (3, 3), (1, 4)])
def test_precompose_matches_kron_product(d_in, d_out):
    rng = np.random.default_rng(10 * d_in + d_out)
    liou = rng.normal(size=(d_out**2, d_in**2)) + 1j * rng.normal(size=(d_out**2, d_in**2))
    corr = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
    np.testing.assert_array_equal(_precompose(liou, corr), liou @ np.kron(corr, corr.conj()))
    x = rng.normal(size=(d_in, d_in)) + 1j * rng.normal(size=(d_in, d_in))
    e = Superoperator(_precompose(liou, corr), d_in, d_out)
    direct = apply_superop(Superoperator(liou, d_in, d_out), corr @ x @ corr.conj().T)
    assert np.abs(apply_superop(e, x) - direct).max() < 1e-12


def _apply_blocks_per_mode(c, coeffs):
    """The per-(mu, m) loop that one product per rank replaces."""
    ins, outs = c.in_basis.labels, c.out_basis.labels
    out = np.zeros((len(outs),) + coeffs.shape[1:], dtype=complex)
    for tmu, block in c.mu_blocks.items():
        for tm in range(-tmu, tmu + 1, 2):
            out[_rows(outs, tmu, tm)] = block @ coeffs[_rows(ins, tmu, tm)]
    return out


@pytest.mark.parametrize("blocks_in, blocks_out", [
    (((1, 2),), ((1, 1), (3, 1))), (((2, 2),), ((2, 2),)), (((2, 1),), ((4, 1),)), (((4, 1),), ((2, 1),)),
], ids=["1x2->1+3", "2x2->2x2", "1->2", "2->1"])
def test_per_rank_blocks_match_per_mode_loop(blocks_in, blocks_out):
    a, b = SU2Representation(blocks_in), SU2Representation(blocks_out)
    rng = np.random.default_rng(a.dim * 10 + b.dim)
    chan = random_covariant_channel(a, b, rng)
    in_basis, out_basis = tensor_basis_general(a), tensor_basis_general(b)
    coeffs, residual = reduce_covariant(chan, in_basis, out_basis)
    assert residual < 1e-10
    # the blocks are the highest-weight (m = mu) overlaps, also of a map that is not covariant
    arbitrary = channel_from_kraus([rng.normal(size=(b.dim, a.dim)) + 1j * rng.normal(size=(b.dim, a.dim))])
    for e in (chan, arbitrary):
        overlaps = out_basis.coefficients(np.array([apply_superop(e, t) for t in in_basis.stack]))
        blocks = reduce_covariant(e, in_basis, out_basis)[0].mu_blocks
        assert set(blocks) == set(in_basis.ranks()) & set(out_basis.ranks())
        for tmu, block in blocks.items():
            want = overlaps[_rows(out_basis.labels, tmu, tmu), _rows(in_basis.labels, tmu, tmu)]
            np.testing.assert_allclose(block, want, rtol=0, atol=1e-14)
    xs = rng.normal(size=(3, a.dim, a.dim)) + 1j * rng.normal(size=(3, a.dim, a.dim))
    for x in (xs[0], xs):
        weights = in_basis.coefficients(x)
        np.testing.assert_allclose(_apply_blocks(coeffs, weights), _apply_blocks_per_mode(coeffs, weights),
                                   rtol=0, atol=1e-14)
        rebuilt = apply_reduced(coeffs, x)
        direct = np.array([apply_superop(chan, y) for y in np.reshape(x, (-1, a.dim, a.dim))])
        assert rebuilt.shape == np.shape(x)[:-2] + (b.dim, b.dim)
        assert np.abs(rebuilt - direct.reshape(rebuilt.shape)).max() < 1e-12
