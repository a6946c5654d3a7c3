import numpy as np
import pytest

import asymmodes.monotones as monotones_module
from asymmodes import (
    DecomposedRep,
    SU2Representation,
    angular_momentum,
    angular_momentum_monotone,
    apply_superop,
    axial_symmetrization,
    channel_from_kraus,
    distinguish_success_probability,
    ensemble_bound_g,
    equal_moment_equivalence_check,
    mode_monotone_table,
    random_covariant_channel,
    random_density_matrix,
    second_moment_monotone,
    simulation_parameter_report,
    spin_j_mode_monotone,
    tensor_basis_spin_j,
    trace_norm,
    trace_sqrt_lz_sq,
    wigner_D,
)
from asymmodes.channels import random_covariant_instrument
from asymmodes.linalg import sector_trace_norms
from asymmodes.su2 import decompose, tensor_basis_for

REP_HALF = SU2Representation.spin(0.5)


def test_table_completely_mixed():
    for j in (0.5, 1, 2):
        rep = SU2Representation.spin(j)
        table = mode_monotone_table(np.eye(rep.dim, dtype=complex) / rep.dim, rep)
        assert table.nonzero(tol=1e-12) == {(0, 0)}


def test_table_spin_half_up():
    up = np.diag([1.0, 0.0]).astype(complex)
    table = mode_monotone_table(up, REP_HALF)
    assert table.value(1, 0) == pytest.approx(1.0)
    assert table.value(1, 1) == pytest.approx(0.0, abs=1e-14)
    assert table.value(1, -1) == pytest.approx(0.0, abs=1e-14)


def test_table_matches_closed_form_spin2():
    rng = np.random.default_rng(0)
    rep = SU2Representation.spin(2)
    for _ in range(5):
        rho = random_density_matrix(5, rng)
        table = mode_monotone_table(rho, rep)
        for (tmu, tm), v in table.entries.items():
            assert v == pytest.approx(spin_j_mode_monotone(rho, 2, tmu / 2, tm / 2), abs=1e-12)


def test_ensemble_bound_g_trivial_and_scaled():
    rng = np.random.default_rng(1)
    rep = SU2Representation.spin(1)
    rho = random_density_matrix(3, rng)
    residuals, feasible = ensemble_bound_g(rho, [(rho, 1.0)], rep)
    assert feasible
    assert all(abs(v) < 1e-12 for v in residuals.values())

    p = 0.4
    residuals, feasible = ensemble_bound_g(rho, [(rho, p)], rep)
    assert feasible
    table = mode_monotone_table(rho, rep)
    for mode, v in residuals.items():
        assert v == pytest.approx((1 - p) * table.entries[mode], abs=1e-12)

    with pytest.raises(ValueError):
        ensemble_bound_g(rho, [(rho, 0.7), (rho, 0.7)], rep)


def test_ensemble_bound_g_covariant_instrument():
    rng = np.random.default_rng(2)
    rep = SU2Representation.spin(1.5)
    for _ in range(5):
        rho = random_density_matrix(4, rng)
        instrument = random_covariant_instrument(rep, rep, rng, n_outcomes=3)
        ensemble = []
        for op in instrument:
            out = apply_superop(op, rho)
            p = out.trace().real
            if p > 1e-10:
                ensemble.append((out / p, p))
        residuals, feasible = ensemble_bound_g(rho, ensemble, rep, tol=1e-10)
        assert feasible, min(residuals.values())


def test_trace_sqrt_lz_sq_cases():
    assert trace_sqrt_lz_sq(1) == pytest.approx(2.0)     # j(j+1)
    assert trace_sqrt_lz_sq(0.5) == pytest.approx(1.0)   # (j+1/2)^2
    assert trace_sqrt_lz_sq(2.5) == pytest.approx(9.0)
    for j in (1, 1.5, 2, 2.5):
        lz = angular_momentum(j).Lz
        assert trace_sqrt_lz_sq(j) == pytest.approx(np.abs(np.diag(lz)).sum())


def test_angular_momentum_monotone_values():
    up = np.diag([1.0, 0.0]).astype(complex)
    assert angular_momentum_monotone(up, 0.5) == pytest.approx(1.0)
    table = mode_monotone_table(up, REP_HALF)
    assert angular_momentum_monotone(up, 0.5) == pytest.approx(table.value(1, 0))
    mixed = np.eye(4, dtype=complex) / 4
    assert angular_momentum_monotone(mixed, 1.5) == pytest.approx(0.0)
    rng = np.random.default_rng(3)
    for j in (1, 1.5, 3):
        rho = random_density_matrix(int(2 * j) + 1, rng)
        val = angular_momentum_monotone(rho, j)
        assert val <= 1.5 + 1e-12
        rep = SU2Representation.spin(j)
        assert val == pytest.approx(mode_monotone_table(rho, rep).value(1, 0), abs=1e-10)


def test_angular_momentum_monotone_axis_rotation():
    rng = np.random.default_rng(4)
    j = 1.5
    rho = random_density_matrix(4, rng)
    alpha, beta = 0.7, 1.1
    axis = (np.sin(beta) * np.cos(alpha), np.sin(beta) * np.sin(alpha), np.cos(beta))
    u = wigner_D(j, alpha, beta, 0.0)
    rotated = u @ rho @ u.conj().T
    assert angular_momentum_monotone(rotated, j, axis) == pytest.approx(
        angular_momentum_monotone(rho, j), abs=1e-11)


def test_monotones_reject_wrong_block():
    mixed = np.eye(4, dtype=complex) / 4
    with pytest.raises(ValueError, match="single spin"):
        angular_momentum_monotone(mixed, 1)
    with pytest.raises(ValueError, match="single spin"):
        second_moment_monotone(mixed, 2)
    with pytest.raises(ValueError, match="single spin"):
        distinguish_success_probability(mixed, 1)


def test_second_moment_monotone_values():
    mixed = np.eye(3, dtype=complex) / 3
    assert second_moment_monotone(mixed, 1) == pytest.approx(0.0, abs=1e-12)
    for j in (1, 2):
        dim = int(2 * j) + 1
        top = np.zeros((dim, dim), dtype=complex)
        top[0, 0] = 1.0   # |j, j>
        assert second_moment_monotone(top, j) == pytest.approx(abs(j * j - j * (j + 1) / 3))


def test_monotones_nonincreasing_under_covariant_channels():
    rng = np.random.default_rng(5)
    for _ in range(30):
        j = rng.choice([0.5, 1, 1.5])
        rep = SU2Representation.spin(j)
        chan = random_covariant_channel(rep, rep, rng)
        rho = random_density_matrix(rep.dim, rng)
        out = apply_superop(chan, rho)
        before = mode_monotone_table(rho, rep)
        after = mode_monotone_table(out, rep)
        for mode, v in after.entries.items():
            assert v <= before.entries[mode] + 1e-9
        assert angular_momentum_monotone(out, j) <= angular_momentum_monotone(rho, j) + 1e-9
        assert second_moment_monotone(out, j) <= second_moment_monotone(rho, j) + 1e-9


def test_sign_flip_with_magnitude_decrease():
    # E(rho) = (X rho X + Y rho Y + Z rho Z)/3 is covariant with c^(1) = -1/3
    paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
              np.array([[1, 0], [0, -1]])]
    chan = channel_from_kraus([p / np.sqrt(3) for p in paulis])
    lz = angular_momentum(0.5).Lz
    rho = np.diag([0.2, 0.8]).astype(complex)   # <Lz> = -0.3
    out = apply_superop(chan, rho)
    before, after = np.trace(lz @ rho).real, np.trace(lz @ out).real
    assert before < 0 < after
    assert abs(after) <= abs(before) + 1e-12
    assert after == pytest.approx(-before / 3)


def test_cross_space_angular_momentum_bound():
    rng = np.random.default_rng(6)
    rep1, rep2 = SU2Representation.spin(1), SU2Representation.spin(2)
    lz1, lz2 = angular_momentum(1).Lz, angular_momentum(2).Lz
    for _ in range(10):
        chan = random_covariant_channel(rep1, rep2, rng)
        rho = random_density_matrix(3, rng)
        sigma = apply_superop(chan, rho)
        lhs = abs(np.trace(lz2 @ sigma).real) / (2 + 0.5)
        rhs = abs(np.trace(lz1 @ rho).real) / (1 + 0.5)
        assert lhs <= rhs + 1e-10


def test_psucc_examples():
    mixed = np.eye(2, dtype=complex) / 2
    assert distinguish_success_probability(mixed, 0.5).formula == pytest.approx(0.5)
    up = np.diag([1.0, 0.0]).astype(complex)
    res = distinguish_success_probability(up, 0.5, oracle=True)
    assert res.formula == pytest.approx(0.75)
    assert res.oracle == pytest.approx(0.75, abs=1e-10)
    assert not res.discrepant

    dim = 41   # j = 20 coherent |j, j>
    top = np.zeros((dim, dim), dtype=complex)
    top[0, 0] = 1.0
    assert distinguish_success_probability(top, 20).formula >= 0.987


def test_psucc_oracle_coupling_is_read_only():
    coupled = monotones_module._half_coupled(5)
    assert monotones_module._half_coupled(5) is coupled
    assert [tj for tj, _ in coupled.components] == [4, 6]
    for _, v in coupled.components:
        with pytest.raises(ValueError):
            v[...] = 0


def test_psucc_oracle_same_on_cache_miss_and_hit():
    rng = np.random.default_rng(11)
    for j in (0.5, 1.5, 3):
        rho = random_density_matrix(int(2 * j) + 1, rng)
        monotones_module._half_coupled.cache_clear()
        miss = distinguish_success_probability(rho, j, oracle=True)
        hit = distinguish_success_probability(rho, j, oracle=True)
        assert monotones_module._half_coupled.cache_info().hits == 1
        assert hit == miss


@pytest.mark.parametrize("j", [0.5, 1, 1.5, 2])
def test_psucc_formula_matches_twirl_oracle(j):
    rng = np.random.default_rng(7)
    for _ in range(3):
        rho = random_density_matrix(int(2 * j) + 1, rng)
        res = distinguish_success_probability(rho, j, oracle=True)
        assert res.delta < 1e-8


def test_simulation_parameter_report_counts():
    rng = np.random.default_rng(8)
    rho = random_density_matrix(5, rng)   # spin-2 frame
    meas = simulation_parameter_report(rho, 2, 0.5, "measurement")
    assert meas.count == 3
    assert len(meas.values) == 3
    chan = simulation_parameter_report(rho, 2, 0.5, "channel")
    assert chan.count == 8
    assert len(chan.values) == 8
    axial = simulation_parameter_report(rho, 2, 1, "measurement", axial_axis=(0, 0, 1))
    assert axial.count == 2
    assert len(axial.values) == 2
    lz = angular_momentum(2).Lz
    assert axial.values[0] == pytest.approx(np.trace(lz @ rho).real)
    assert axial.values[1] == pytest.approx(np.trace(lz @ lz @ rho).real)


def test_report_blind_to_higher_ranks():
    # adding a rank-3 tensor component leaves every l=1/2 channel parameter fixed
    rng = np.random.default_rng(9)
    rho = random_density_matrix(5, rng)
    t30 = tensor_basis_spin_j(2).op(3, 0)
    rho2 = rho + 0.01 * t30   # T^(3)_0 is Hermitian and traceless
    assert np.abs(rho2 - rho2.conj().T).max() < 1e-12
    assert np.abs(rho - rho2).max() > 1e-3
    verdict = equal_moment_equivalence_check(rho, rho2, 2, 0.5, "channel")
    assert verdict.equivalent


def test_equivalence_rho_vs_axial_symmetrization():
    rng = np.random.default_rng(10)
    j = 1.5
    rho = random_density_matrix(4, rng)
    ops = angular_momentum(j)
    pol = np.array([np.trace(ops.Lx @ rho).real, np.trace(ops.Ly @ rho).real,
                    np.trace(ops.Lz @ rho).real])
    axis = pol / np.linalg.norm(pol)
    sym = axial_symmetrization(rho, j, axis)
    assert np.abs(sym - rho).max() > 1e-3
    verdict = equal_moment_equivalence_check(rho, sym, j, 0.5, "measurement")
    assert verdict.equivalent


def test_equivalence_fails_for_rotated_state():
    rng = np.random.default_rng(11)
    rho = random_density_matrix(4, rng)
    u = wigner_D(1.5, 0.0, 1.2, 0.0)
    rotated = u @ rho @ u.conj().T
    verdict = equal_moment_equivalence_check(rho, rotated, 1.5, 0.5, "measurement")
    assert not verdict.equivalent


def test_equivalence_from_matched_axial_moments():
    # two distinct diagonal spin-3/2 states with equal <Lz>, <Lz^2> simulate the
    # same channels on a spin-1/2 system in the axially symmetric setting
    m = np.array([1.5, 0.5, -0.5, -1.5])
    p0 = np.array([0.4, 0.3, 0.2, 0.1])
    a = np.vstack([np.ones(4), m, m * m])
    null = np.linalg.svd(a)[2][-1]
    p1 = p0 + 0.1 * null / np.abs(null).max()
    assert (p1 > 0).all()
    rho0, rho1 = np.diag(p0).astype(complex), np.diag(p1).astype(complex)
    assert np.abs(rho0 - rho1).max() > 1e-3
    verdict = equal_moment_equivalence_check(rho0, rho1, 1.5, 0.5, "channel",
                                             axial_axis=(0, 0, 1))
    assert verdict.equivalent
    full = equal_moment_equivalence_check(rho0, rho1, 1.5, 1.5, "channel",
                                          axial_axis=(0, 0, 1))
    assert not full.equivalent


def _dense_table(rho, rep):
    """One dense SVD per mode component, the route the sector kernel replaces."""
    return {mode: trace_norm(c) for mode, c in tensor_basis_for(rep).components(rho).items()}


def _assert_tables_close(got, want):
    assert got.keys() == want.keys()
    for mode, v in want.items():
        assert got[mode] == pytest.approx(v, rel=1e-12, abs=1e-12), mode


@pytest.mark.parametrize("blocks", [((tj, 1),) for tj in range(1, 13)]
                         + [((1, 2),), ((2, 2),), ((1, 1), (3, 1)), ((4, 2), (3, 1), (2, 1), (0, 2))],
                         ids=lambda b: "+".join(f"{tj}x{m}" for tj, m in b))
def test_table_matches_dense_trace_norms(blocks):
    rep = SU2Representation(blocks)
    rng = np.random.default_rng(sum(tj * m for tj, m in blocks))
    for rho in (random_density_matrix(rep.dim, rng), random_density_matrix(rep.dim, rng, rank=1)):
        _assert_tables_close(mode_monotone_table(rho, rep).entries, _dense_table(rho, rep))


@pytest.mark.parametrize("blocks", [((1, 2),), ((2, 2),), ((0, 1), (2, 1)), ((1, 1), (3, 1))],
                         ids=lambda b: "+".join(f"{tj}x{m}" for tj, m in b))
def test_table_takes_no_svd_on_multiplicity_blocks_up_to_2x2(monkeypatch, blocks):
    # every Lz sector has at most 2 states, so every block has a closed form
    rep = SU2Representation(blocks)
    rho = random_density_matrix(rep.dim, np.random.default_rng(43))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a[0].shape) or svd(*a, **k))
    table = mode_monotone_table(rho, rep).entries
    assert calls == []
    monkeypatch.setattr(np.linalg, "svd", svd)
    _assert_tables_close(table, _dense_table(rho, rep))


def test_table_of_decomposed_reps():
    rng = np.random.default_rng(29)
    dec = decompose(SU2Representation.spin(0.5)).tensor(decompose(SU2Representation(((2, 1), (1, 1)))))
    rho = random_density_matrix(dec.dim, rng)
    table = mode_monotone_table(rho, dec).entries
    _assert_tables_close(table, _dense_table(rho, dec))
    # isometries rotated by a unitary U: the table of U rho U^dag is the table of rho
    u, _ = np.linalg.qr(rng.normal(size=(dec.dim, dec.dim)) + 1j * rng.normal(size=(dec.dim, dec.dim)))
    rotated = DecomposedRep(dec.dim, tuple((tj, u @ v) for tj, v in dec.components))
    _assert_tables_close(mode_monotone_table(u @ rho @ u.conj().T, rotated).entries, table)


def test_table_max_rank_keeps_the_lower_ranks():
    rep = SU2Representation(((1, 2), (4, 1)))
    rho = random_density_matrix(rep.dim, np.random.default_rng(8))
    full = mode_monotone_table(rho, rep).entries
    for max_rank in (0, 0.5, 1, 2.5):
        capped = mode_monotone_table(rho, rep, max_rank=max_rank).entries
        assert capped == {mode: v for mode, v in full.items() if mode[0] <= 2 * max_rank}
    for bad in (np.eye(rep.dim - 1), np.eye(rep.dim)[:, :-1]):
        with pytest.raises(ValueError, match="does not match"):
            mode_monotone_table(bad, rep)
    with pytest.raises(ValueError):
        mode_monotone_table(np.ones(rep.dim), rep)


def _sector_route_table(rho, rep, max_rank=None):
    """The multi-row route (mode components through sector_trace_norms), taken on every basis."""
    w, block = decompose(rep).block_form()
    frame = tensor_basis_for(block)
    rows = None if max_rank is None else sum(1 for tmu, _, _ in frame.labels if tmu <= 2 * max_rank)
    norms = sector_trace_norms(frame.mode_stack(w.conj().T @ rho @ w, rows), block.twice_m)
    return {mode: row[mode[1] + len(row) // 2] for mode, row in zip(frame.modes, norms)}


@pytest.mark.parametrize("tj", range(1, 13))
def test_single_irrep_closed_form_table_matches_sector_route(tj):
    rep = SU2Representation(((tj, 1),))
    rng = np.random.default_rng(100 + tj)
    for rho in (random_density_matrix(rep.dim, rng), random_density_matrix(rep.dim, rng, rank=1)):
        for max_rank in (None, 0, 1, (tj // 2) / 2):
            got = mode_monotone_table(rho, rep, max_rank=max_rank).entries
            want = _sector_route_table(rho, rep, max_rank)
            assert list(got) == list(want)
            np.testing.assert_array_max_ulp(np.array(list(got.values())), np.array(list(want.values())), maxulp=4)


def test_psucc_oracle_twirls_once():
    rng = np.random.default_rng(41)
    for tj in range(1, 9):
        j = tj / 2
        dec = monotones_module._half_coupled(tj)
        for _ in range(2):
            rho = random_density_matrix(tj + 1, rng)
            up, down = (np.kron(np.diag(p).astype(complex), rho) for p in ([1.0, 0.0], [0.0, 1.0]))
            two_twirls = 0.5 + 0.25 * trace_norm(monotones_module.twirl_state(up, dec)
                                                 - monotones_module.twirl_state(down, dec))
            oracle = monotones_module._psucc_twirl_oracle(rho, j)
            assert oracle == pytest.approx(two_twirls, abs=1e-14)
            assert oracle == pytest.approx(distinguish_success_probability(rho, j).formula, abs=1e-12)
