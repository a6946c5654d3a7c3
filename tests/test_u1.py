import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asymmodes import (
    DensityMatrix,
    FourierWeights,
    U1Representation,
    alignment_accessible_state,
    amplifier_envelope,
    apply_superop,
    coherent_state,
    ensemble_bound,
    joint_mode_component,
    joint_representation,
    mode_monotone,
    mode_norms,
    mode_project,
    mode_project_dft,
    mode_spectrum,
    modes_of,
    pure_mode_norm,
    transition_bound,
    trace_norm,
    weighted_twirl,
)
from asymmodes.u1 import random_covariant_channel, random_covariant_instrument


def rand_state(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / rho.trace()


def psi_n_state(n):
    rep = U1Representation(tuple(range(1, n + 1)))
    psi = np.full(n, 1 / np.sqrt(n), dtype=complex)
    return np.outer(psi, psi.conj()), rep


def test_mode_project_diagonal_is_symmetric():
    rep = U1Representation((0, 1, 2))
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    assert np.allclose(mode_project(rho, rep, 1), 0)
    assert np.allclose(mode_project(rho, rep, 0), rho)


def test_mode_project_pure_mode_unchanged():
    rep = U1Representation((0, 1))
    x = np.zeros((2, 2), dtype=complex)
    x[1, 0] = 1.0
    assert np.allclose(mode_project(x, rep, 1), x)
    assert np.allclose(mode_project(x, rep, -1), 0)


def test_mode_project_matches_dft_oracle():
    rng = np.random.default_rng(0)
    rep = U1Representation((0, 1, 1, 3, 4))
    for _ in range(5):
        rho = rand_state(rng, 5)
        for k in (-3, -1, 0, 2, 4):
            assert np.abs(mode_project(rho, rep, k) - mode_project_dft(rho, rep, k)).max() < 1e-10


def test_mode_project_transformation_rule():
    rng = np.random.default_rng(1)
    rep = U1Representation((0, 2, 3))
    rho = rand_state(rng, 3)
    theta = 0.71
    u = rep.unitary(theta)
    for k in (-2, 1, 3):
        comp = mode_project(rho, rep, k)
        assert np.allclose(u @ comp @ u.conj().T, np.exp(1j * k * theta) * comp)


def test_mode_reconstruction_exact():
    rng = np.random.default_rng(2)
    rep = U1Representation((0, 1, 1, 2, 5))
    x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    total = sum(mode_project(x, rep, k) for k in range(-rep.spread, rep.spread + 1))
    assert np.array_equal(total, x)


def test_hermitian_inputs_conjugate_modes():
    rng = np.random.default_rng(3)
    rep = U1Representation((0, 1, 2, 2))
    rho = rand_state(rng, 4)
    for k in (1, 2):
        assert np.allclose(mode_project(rho, rep, -k), mode_project(rho, rep, k).conj().T)


def test_modes_of():
    rep3 = U1Representation((0, 1, 2))
    assert modes_of(np.diag([0.2, 0.5, 0.3]).astype(complex), rep3) == {0}
    rho4, rep4 = psi_n_state(4)
    assert modes_of(rho4, rep4) == set(range(-3, 4))
    psi = np.array([1, 1, 0], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    mset = modes_of(rho, rep3)
    assert mset == {-1, 0, 1}
    assert 2 not in mset


def test_mode_monotone_psi_n():
    for n in (2, 4, 7):
        rho, rep = psi_n_state(n)
        for k in range(-n, n + 1):
            assert mode_monotone(rho, rep, k) == pytest.approx(1 - abs(k) / n, abs=1e-12)
    rho4, rep4 = psi_n_state(4)
    assert mode_monotone(rho4, rep4, 1) == pytest.approx(0.75)


def test_mode_monotone_k0_is_one_for_states():
    rng = np.random.default_rng(4)
    for charges in [(0, 1, 2, 3), (0, 0, 1, 1, 2)]:
        rep = U1Representation(charges)
        rho = rand_state(rng, rep.dim)
        assert mode_monotone(rho, rep, 0) == pytest.approx(1.0, abs=1e-10)


def test_mode_monotone_superposition_half():
    for n in (1, 3):
        rep = U1Representation(tuple(range(n + 1)))
        psi = np.zeros(n + 1, dtype=complex)
        psi[0] = psi[n] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert mode_monotone(rho, rep, n) == pytest.approx(0.5, abs=1e-12)
        assert pure_mode_norm(psi, n) == pytest.approx(0.5, abs=1e-12)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_mode_monotone_ceiling_for_pure_states(d, seed):
    rng = np.random.default_rng(seed)
    rep = U1Representation(tuple(range(d)))
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    for k in range(-d + 1, d):
        assert mode_monotone(rho, rep, k) <= 1 + 1e-10


def test_weighted_twirl_uniform_and_delta():
    rng = np.random.default_rng(5)
    rep = U1Representation((0, 1, 3))
    rho = rand_state(rng, 3)
    assert np.allclose(weighted_twirl(rho, rep, FourierWeights.uniform()),
                       mode_project(rho, rep, 0))
    assert np.allclose(weighted_twirl(rho, rep, FourierWeights.delta()), rho)


def test_weighted_twirl_kills_targeted_mode():
    rng = np.random.default_rng(6)
    ell = 2
    rep = U1Representation((0, 1, 2, 3))
    rho = rand_state(rng, 4)
    weights = FourierWeights.from_point_masses(
        [0.0, np.pi / ell, -np.pi / ell], [0.5, 0.25, 0.25])
    assert abs(weights.coefficient(ell)) < 1e-12
    sigma = weighted_twirl(rho, rep, weights)
    assert trace_norm(mode_project(sigma, rep, ell)) < 1e-12
    DensityMatrix.from_array(sigma)


def test_weighted_twirl_matches_entrywise_reference_bit_for_bit():
    rng = np.random.default_rng(7)
    weights = FourierWeights.gaussian(0.4, mean=0.3)
    for charges in [(0, 1, 3), (2, -1, 2, 0, -1, 5), tuple(range(12))]:
        rep = U1Representation(charges)
        rho = rand_state(rng, rep.dim)
        expected = np.array([[weights.coefficient(-(nr - nc)) for nc in charges] for nr in charges]) * rho
        for _ in range(2):   # the second call reuses the cached difference classes
            assert np.array_equal(weighted_twirl(rho, rep, weights), expected)


def test_weighted_twirl_rejects_bad_normalization():
    with pytest.raises(ValueError):
        FourierWeights.from_map({0: 0.7})


def test_fourier_weights_from_samples():
    thetas = np.linspace(0, 2 * np.pi, 4001)
    pdf = np.full_like(thetas, 1 / (2 * np.pi))
    weights, err = FourierWeights.from_samples(thetas, pdf)
    assert err < 1e-9
    assert abs(weights.coefficient(1)) < 1e-6


def test_transition_bound_self_and_prop1_violation():
    rng = np.random.default_rng(7)
    rep = U1Representation((0, 1, 2))
    rho = rand_state(rng, 3)
    self_bound = transition_bound(rho, rho, rep)
    assert self_bound.overall == pytest.approx(1.0)
    assert all(v == pytest.approx(1.0) for v in self_bound.per_mode.values())

    diag = np.diag([0.5, 0.3, 0.2]).astype(complex)
    psi = np.array([1, 1, 1], dtype=complex) / np.sqrt(3)
    coh = np.outer(psi, psi.conj())
    bound = transition_bound(diag, coh, rep)
    assert bound.overall == 0.0
    assert not bound.feasible


def test_transition_bound_coherent_amplifier_chain():
    src = coherent_state(1.0, 60)
    dst = coherent_state(1.5, 60)
    rep = src.representation
    bound = transition_bound(src.density, dst.density, rep, tol=0.0)
    ks = range(1, 46)
    ratios = {k: pure_mode_norm(src.amplitudes, k) / pure_mode_norm(dst.amplitudes, k) for k in ks}
    for k in ks:
        assert bound.per_mode[k] == pytest.approx(min(1.0, ratios[k]), rel=1e-12)
        assert bound.per_mode[k] <= amplifier_envelope(1.0, 1.5, k) + 1e-10
    bounds_seq = [bound.per_mode[k] for k in ks]
    assert all(b2 < b1 for b1, b2 in zip(bounds_seq, bounds_seq[1:]))
    assert bound.per_mode[42] > 1e-7
    assert bound.per_mode[43] < 1e-7


def test_ensemble_bound_trivial_and_symmetric():
    rng = np.random.default_rng(8)
    rep = U1Representation((0, 1, 2))
    rho = rand_state(rng, 3)
    residuals, feasible = ensemble_bound(rho, [(rho, 1.0)], rep)
    assert feasible
    assert all(abs(v) < 1e-12 for v in residuals.values())

    sym = np.diag(np.diag(rho))
    residuals, feasible = ensemble_bound(rho, [(sym, 0.5), (sym, 0.5)], rep)
    assert feasible
    for k, v in residuals.items():
        if k != 0:
            assert v == pytest.approx(mode_monotone(rho, rep, k))


def test_ensemble_bound_covariant_instrument():
    rng = np.random.default_rng(9)
    rep = U1Representation((0, 1, 2, 4))
    rho = rand_state(rng, 4)
    for _ in range(5):
        instrument = random_covariant_instrument(rep, rng, n_outcomes=3)
        ensemble = []
        for op in instrument:
            out = apply_superop(op, rho)
            p = out.trace().real
            if p > 1e-12:
                ensemble.append((out / p, p))
        residuals, feasible = ensemble_bound(rho, ensemble, rep, tol=1e-10)
        assert feasible, min(residuals.values())


def test_ensemble_bound_rejects_wrong_shape_state():
    rep = U1Representation((0, 1, 2))
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    with pytest.raises(ValueError):
        ensemble_bound(rho, [(np.eye(1), 1.0)], rep)


def test_ensemble_bound_rejects_bad_probabilities():
    rep = U1Representation((0, 1))
    rho = np.diag([0.5, 0.5]).astype(complex)
    with pytest.raises(ValueError):
        ensemble_bound(rho, [(rho, 0.8), (rho, 0.4)], rep)


def test_joint_mode_component():
    rng = np.random.default_rng(10)
    rep1 = U1Representation((0, 1))
    rep2 = U1Representation((0, 2))
    d1 = np.diag([0.4, 0.6]).astype(complex)
    d2 = np.diag([0.7, 0.3]).astype(complex)
    assert np.allclose(joint_mode_component(d1, rep1, d2, rep2, 0), np.kron(d1, d2))
    assert np.allclose(joint_mode_component(d1, rep1, d2, rep2, 9), 0)

    def summed(r1, rep1, r2, rep2, j):  # (rho1 x rho2)^(j) = sum_k rho1^(k) x rho2^(j-k)
        return sum(np.kron(mode_project(r1, rep1, k), mode_project(r2, rep2, j - k))
                   for k in range(-rep1.spread, rep1.spread + 1))

    gapped = (U1Representation((0, 3, 7)), U1Representation((-2, 0, 0, 5)))
    for (a, b), js in (((rep1, rep2), range(-3, 4)), (gapped, range(-15, 16))):
        r1, r2 = rand_state(rng, a.dim), rand_state(rng, b.dim)
        for j in js:
            np.testing.assert_array_equal(joint_mode_component(r1, a, r2, b, j), summed(r1, a, r2, b, j))
    # the factors are checked one by one, even where their Kronecker product fits the joint rep
    with pytest.raises(ValueError):
        joint_mode_component(np.eye(4), gapped[0], np.eye(3), gapped[1], 0)


def test_coherent_state():
    vac = coherent_state(0.0, 5)
    assert np.allclose(vac.amplitudes, np.eye(6)[0])
    st1 = coherent_state(1.0, 30)
    assert st1.tail < 1e-30
    assert np.linalg.norm(st1.amplitudes) == pytest.approx(1.0)
    assert st1.truncation_ok
    assert not coherent_state(5.0, 3).truncation_ok


def test_alignment_accessible_state():
    rng = np.random.default_rng(11)
    rep_rf = U1Representation((0, 1))
    rep_s = U1Representation((0, 1, 2))
    tau = rand_state(rng, 2)
    rho = rand_state(rng, 3)

    assert np.allclose(alignment_accessible_state(tau, rep_rf, rho, rep_s, FourierWeights.delta()),
                       np.kron(tau, rho))

    sym_tau = np.diag(np.diag(tau))
    acc = alignment_accessible_state(sym_tau, rep_rf, rho, rep_s, FourierWeights.uniform())
    assert np.allclose(acc, np.kron(sym_tau, mode_project(rho, rep_s, 0)), atol=1e-12)


def test_alignment_qubit_frame_cannot_serve_mode_two():
    # frame (|0>+|1>)/sqrt(2) lacks mode 2, so the phase of |0>+e^{i phi}|2>
    # is invisible: the accessible state is phi-independent under a uniform prior
    rep_rf = U1Representation((0, 1))
    rep_s = U1Representation((0, 1, 2))
    tau = np.full((2, 2), 0.5, dtype=complex)
    uniform = FourierWeights.uniform()

    def accessible(phi):
        psi = np.zeros(3, dtype=complex)
        psi[0] = 1 / np.sqrt(2)
        psi[2] = np.exp(1j * phi) / np.sqrt(2)
        return alignment_accessible_state(tau, rep_rf, np.outer(psi, psi.conj()), rep_s, uniform)

    assert np.abs(accessible(0.0) - accessible(1.1)).max() < 1e-12


def test_covariance_transport():
    rng = np.random.default_rng(12)
    rep = U1Representation((0, 1, 2, 3))
    for _ in range(5):
        chan = random_covariant_channel(rep, rng)
        rho = rand_state(rng, 4)
        out = apply_superop(chan, rho)
        for k in range(-3, 4):
            transported = apply_superop(chan, mode_project(rho, rep, k))
            assert np.abs(transported - mode_project(out, rep, k)).max() < 1e-10


def test_subgroup_symmetry_detection():
    rng = np.random.default_rng(13)
    ell = 2
    rep = U1Representation((0, 1, 2, 3, 4))
    rho = rand_state(rng, 5)
    u = rep.unitary(2 * np.pi / ell)
    sym = (rho + u @ rho @ u.conj().T) / 2
    assert all(k % ell == 0 for k in modes_of(sym, rep))
    assert np.abs(u @ sym @ u.conj().T - sym).max() < 1e-12
    # a state with a mode outside ell*Z is not invariant under U(2pi/ell)
    assert any(k % ell for k in modes_of(rho, rep))
    assert np.abs(u @ rho @ u.conj().T - rho).max() > 1e-3


def test_summed_monotone_nonincreasing():
    rng = np.random.default_rng(14)
    rep = U1Representation((0, 1, 2, 3))

    def summed(r):
        return sum(mode_monotone(r, rep, k) for k in range(-3, 4))

    for _ in range(10):
        chan = random_covariant_channel(rep, rng)
        rho = rand_state(rng, 4)
        assert summed(apply_superop(chan, rho)) <= summed(rho) + 1e-9


def test_mode_spectrum_consistency():
    rng = np.random.default_rng(15)
    rep = U1Representation((0, 1, 2))
    rho = rand_state(rng, 3)
    spec = mode_spectrum(rho, rep)
    assert np.abs(sum(spec.components.values()) - rho).max() < 1e-15
    for k, comp in spec.components.items():
        assert spec.norms[k] == pytest.approx(trace_norm(comp))


def test_mode_spectrum_components_are_built_when_read():
    rng = np.random.default_rng(17)
    rep = U1Representation((0, 0, 1, 3, 4))
    x = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    x[rep.charge_diffs() == 2] = 0
    spec = mode_spectrum(x, rep, tol=1e-12)
    assert 2 not in spec.norms and len(spec.norms) == 8
    assert list(spec.components) == list(spec.norms)
    assert len(spec.components) == len(spec.norms)
    for k in spec.norms:
        np.testing.assert_array_equal(spec.components[k], mode_project(x, rep, k))
    for missing in (2, 9):
        with pytest.raises(KeyError):
            spec.components[missing]
    with pytest.raises(TypeError):
        spec.components[0] = x
    want = {k: mode_project(x, rep, k) for k in spec.norms}
    x[...] = 0  # the caller reuses its input
    spec.components[0][...] = 7  # and writes into a component it was given
    for k in spec.norms:
        np.testing.assert_array_equal(spec.components[k], want[k])


def test_representation_rejects_non_integer_and_empty_charges():
    assert U1Representation((0, 2.0, np.int64(-3))).charges == (0, 2, -3)
    for bad in ((0, 0.5, 1.7), (1.5,), (), (float("nan"),), (float("inf"),)):
        with pytest.raises(ValueError):
            U1Representation(bad)


def dense_mode_norms(x, rep):
    return np.array([mode_monotone(x, rep, k) for k in range(-rep.spread, rep.spread + 1)])


@settings(deadline=None, max_examples=40)
@given(st.lists(st.integers(min_value=-4, max_value=6), min_size=1, max_size=24),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_mode_norms_match_dense_route(charges, seed):
    rng = np.random.default_rng(seed)
    rep = U1Representation(charges)
    x = rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim))
    norms = mode_norms(x, rep)
    assert norms.shape == (2 * rep.spread + 1,)
    np.testing.assert_allclose(norms, dense_mode_norms(x, rep), rtol=1e-12, atol=0)


def test_mode_norms_named_reps():
    rng = np.random.default_rng(16)
    reps = [
        U1Representation((0, 0, 1, 1, 1, 2, 4, 4)),  # degenerate
        U1Representation((0, 3, 7, 8, 15)),  # gapped
        U1Representation((-3, -1, -1, 0, 2, 2, 2)),  # negative
        U1Representation((5,)),  # one state
        joint_representation(U1Representation(range(5)), U1Representation(range(4))),  # two modes
    ]
    for rep in reps:
        d = rep.dim
        for x in (rand_state(rng, d), rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))):
            np.testing.assert_allclose(mode_norms(x, rep), dense_mode_norms(x, rep), rtol=1e-12, atol=0)


def test_mode_norms_takes_one_svd_per_pair_of_size_classes(monkeypatch):
    # the (8,8) two-mode rep has sectors of sizes 1..9, in the classes ceil(log2 s) = 0..4
    rep = joint_representation(U1Representation(range(9)), U1Representation(range(9)))
    x = rand_state(np.random.default_rng(3), rep.dim)
    want = dense_mode_norms(x, rep)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a[0].shape) or svd(*a, **k))
    norms = mode_norms(x, rep)
    assert 0 < len(calls) <= 25
    np.testing.assert_allclose(norms, want, rtol=1e-12, atol=0)


def test_mode_norms_rejects_wrong_shape():
    rep = U1Representation((0, 1, 2))
    for bad in (np.eye(2), np.ones((3, 2)), np.ones(3)):
        with pytest.raises(ValueError):
            mode_norms(bad, rep)


def test_twirled_coherent_spectrum_mode_by_mode():
    # |p_k| = e^{-k^2 dt^2/2} scales every mode of a pure state, whose mode-k
    # norm is pure_mode_norm; modes far below 1e-14 must keep their relative accuracy
    coh = coherent_state(3.0 * np.exp(0.3j), 100)
    rep, dt = coh.representation, 0.3
    sigma = weighted_twirl(coh.density, rep, FourierWeights.gaussian(dt))
    spec = mode_spectrum(sigma, rep)
    assert set(spec.norms) == set(range(-rep.spread, rep.spread + 1))
    for k, v in spec.norms.items():
        want = np.exp(-0.5 * (k * dt) ** 2) * pure_mode_norm(coh.amplitudes, k)
        assert v == pytest.approx(want, rel=1e-12, abs=0)
