import numpy as np
import pytest

from asymmodes import (
    DegradationModel,
    FourierWeights,
    SU2Representation,
    U1Representation,
    angular_momentum,
    apply_superop,
    channel_from_kraus,
    degrade_trajectory,
    degrade_via_channel,
    gaussian_weights,
    identity_superop,
    misalignment_state,
    mode_project,
    random_covariant_channel,
    random_density_matrix,
    reduce_covariant,
    so3_mode_project,
    superop_from_map,
    tensor_basis_general,
    twirl_state,
)


def coefficients_of(channel, rep):
    basis = tensor_basis_general(rep)
    coeffs, residual = reduce_covariant(channel, basis, basis)
    assert residual < 1e-9
    return {tmu // 2: coeffs.mu_blocks[tmu][0, 0].real for tmu in coeffs.mu_blocks}


def test_degradation_model_validation():
    model = DegradationModel(2, {1: 0.9, 2: 0.5})
    assert model.coefficient(0) == 1.0
    assert model.coefficient(5) == 0.0
    with pytest.raises(ValueError):
        DegradationModel(2, {1: 1.2})
    with pytest.raises(ValueError):
        DegradationModel(2, {0: 0.9})


def test_degrade_trajectory_geometric_law():
    rng = np.random.default_rng(0)
    rho0 = random_density_matrix(3, rng)
    lz = angular_momentum(1).Lz
    scale = np.trace(lz @ rho0).real
    model = DegradationModel(2, {1: 0.9, 2: 0.5})
    traj = degrade_trajectory(rho0, model, 4)
    assert traj.steps[2].lz_mean == pytest.approx(0.81 * scale)
    # <Lz^2> saturates to j(j+1)/3 = 2/3
    lz2 = np.trace(lz @ lz @ rho0).real
    expected = 0.25 * lz2 + 0.75 * 2 / 3
    assert traj.steps[2].lz2_mean == pytest.approx(expected)
    long = degrade_trajectory(rho0, model, 80)
    assert long.steps[-1].lz2_mean == pytest.approx(2 / 3, abs=1e-9)
    gaps = [abs(s.lz2_mean - 2 / 3) for s in long.steps]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def test_degrade_trajectory_constant_when_all_one():
    rng = np.random.default_rng(1)
    rho0 = random_density_matrix(4, rng)
    model = DegradationModel(3, {1: 1.0, 2: 1.0, 3: 1.0})
    traj = degrade_trajectory(rho0, model, 5)
    for step in traj.steps:
        for key, v in step.tensor_expectations.items():
            assert v == pytest.approx(traj.steps[0].tensor_expectations[key])


def test_degrade_via_channel_matches_closed_form():
    rng = np.random.default_rng(2)
    rep = SU2Representation.spin(1.5)
    chan = random_covariant_channel(rep, rep, rng)
    rho0 = random_density_matrix(4, rng)
    model = DegradationModel(3, coefficients_of(chan, rep))
    t_closed = degrade_trajectory(rho0, model, 10)
    t_chan = degrade_via_channel(rho0, chan, 10)
    for a, b in zip(t_closed.steps, t_chan.steps):
        for key in a.tensor_expectations:
            assert abs(a.tensor_expectations[key] - b.tensor_expectations[key]) < 1e-9
        assert a.lz_mean == pytest.approx(b.lz_mean, abs=1e-9)
        assert a.lz2_mean == pytest.approx(b.lz2_mean, abs=1e-9)


def test_closed_trajectory_matches_per_step_loop():
    rng = np.random.default_rng(5)
    rho0 = random_density_matrix(5, rng)
    model = DegradationModel(4, {1: 0.9, 2: -0.55, 3: 0.3, 4: 0.7})
    traj = degrade_trajectory(rho0, model, 9)
    basis = tensor_basis_general(SU2Representation.spin(2))
    e0 = {(tmu, tm): complex(c) for (tmu, tm, _), c in zip(basis.labels, basis.coefficients(rho0))}
    lz = angular_momentum(2).Lz
    lz_mean0, lz2_mean0 = np.trace(lz @ rho0).real, np.trace(lz @ lz @ rho0).real
    assert [step.k for step in traj.steps] == list(range(10))
    for k, step in enumerate(traj.steps):   # the same arithmetic, one step at a time
        assert step.tensor_expectations == {key: model.coefficient(key[0] // 2) ** k * v
                                            for key, v in e0.items()}
        assert step.lz_mean == 0.9 ** k * lz_mean0
        assert step.lz2_mean == (-0.55) ** k * lz2_mean0 + (1 - (-0.55) ** k) * 2
        assert type(step.lz_mean) is float


@pytest.mark.parametrize("j", [1.5, 3])
def test_batched_degrade_via_channel_matches_closed_form(j):
    rng = np.random.default_rng(6)
    rep = SU2Representation.spin(j)
    chan = random_covariant_channel(rep, rep, rng)
    rho0 = random_density_matrix(rep.dim, rng)
    closed = degrade_trajectory(rho0, DegradationModel(rep.dim - 1, coefficients_of(chan, rep)), 12)
    iterated = degrade_via_channel(rho0, chan, 12)
    assert [step.k for step in iterated.steps] == list(range(13))
    for a, b in zip(closed.steps, iterated.steps):
        assert list(a.tensor_expectations) == list(b.tensor_expectations)
        assert all(type(v) is complex for v in b.tensor_expectations.values())
        assert max(abs(v - b.tensor_expectations[key]) for key, v in a.tensor_expectations.items()) < 1e-12
        assert abs(a.lz_mean - b.lz_mean) < 1e-12
        assert abs(a.lz2_mean - b.lz2_mean) < 1e-12
        assert type(b.lz_mean) is float and type(b.lz2_mean) is float


def test_degrade_via_channel_twirl_and_identity():
    rng = np.random.default_rng(3)
    rep = SU2Representation.spin(1)
    rho0 = random_density_matrix(3, rng)
    tw = superop_from_map(lambda x: twirl_state(x, rep), 3, 3)
    traj = degrade_via_channel(rho0, tw, 3)
    for step in traj.steps[1:]:
        for (tmu, tm), v in step.tensor_expectations.items():
            if tmu > 0:
                assert abs(v) < 1e-12
    const = degrade_via_channel(rho0, identity_superop(3), 3)
    for step in const.steps:
        assert step.lz_mean == pytest.approx(const.steps[0].lz_mean)


def test_degrade_via_channel_rejects_noncovariant():
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    with pytest.raises(ValueError, match="not covariant"):
        degrade_via_channel(np.eye(3, dtype=complex) / 3, channel_from_kraus([q]), 2)


def test_per_mode_independence_along_trajectory():
    rng = np.random.default_rng(5)
    rep = SU2Representation.spin(1)
    chan = random_covariant_channel(rep, rep, rng)
    rho = random_density_matrix(3, rng)
    for _ in range(4):
        out = apply_superop(chan, rho)
        for tmu in (0, 2, 4):
            for tm in range(-tmu, tmu + 1, 2):
                lhs = so3_mode_project(out, rep, tmu / 2, tm / 2)
                rhs = apply_superop(chan, so3_mode_project(rho, rep, tmu / 2, tm / 2))
                assert np.abs(lhs - rhs).max() < 1e-10
        rho = out


def test_monotone_decay_along_trajectory():
    rng = np.random.default_rng(6)
    rep = SU2Representation.spin(1.5)
    chan = random_covariant_channel(rep, rep, rng)
    traj = degrade_via_channel(random_density_matrix(4, rng), chan, 8)
    for key in traj.steps[0].tensor_expectations:
        series = np.abs(traj.series(key[0] / 2, key[1] / 2))
        assert all(b <= a + 1e-10 for a, b in zip(series, series[1:]))


def test_axial_symmetry_preserved():
    rng = np.random.default_rng(7)
    rep = SU2Representation.spin(1.5)
    chan = random_covariant_channel(rep, rep, rng)
    rho0 = np.diag(rng.dirichlet(np.ones(4))).astype(complex)   # z-invariant
    traj = degrade_via_channel(rho0, chan, 6)
    for step in traj.steps:
        for (tmu, tm), v in step.tensor_expectations.items():
            if tm != 0:
                assert abs(v) < 1e-10


def test_misalignment_gaussian():
    rep = U1Representation((0, 1, 2, 3))
    rng = np.random.default_rng(8)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    rho /= rho.trace()

    w = gaussian_weights(0.01)
    assert abs(w.coefficient(1)) >= 0.9999
    out = misalignment_state(rho, rep, w)
    assert np.abs(out - rho).max() < 1e-3

    wide = misalignment_state(rho, rep, gaussian_weights(50.0))
    assert np.abs(wide - mode_project(rho, rep, 0)).max() < 1e-12

    exact = misalignment_state(rho, rep, FourierWeights.gaussian(0.0))
    assert np.abs(exact - rho).max() < 1e-15
