import math
import timeit
import tracemalloc
from collections import Counter

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
from asymmodes import DEFAULT_TOL, u1
from asymmodes.linalg import _sector_plan, sector_trace_norms
from asymmodes.u1 import random_covariant_channel, random_covariant_instrument
from test_linalg import degenerate_charges


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


@settings(deadline=None, max_examples=30, derandomize=True)
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


@pytest.mark.parametrize("pdf", [np.zeros(401), np.r_[np.inf, np.ones(400)], np.r_[np.nan, np.ones(400)],
                                 np.full(401, -1 / (2 * np.pi)), np.r_[-1e-3, np.ones(400)]],
                         ids=["zero", "inf", "nan", "negative", "one-negative"])
def test_fourier_weights_from_samples_rejects_what_is_no_density(pdf):
    with pytest.raises(ValueError, match="density samples"):
        FourierWeights.from_samples(np.linspace(0, 2 * np.pi, 401), pdf)


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


@settings(deadline=None, max_examples=40, derandomize=True)
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


def test_mode_norms_takes_one_svd_per_block_shape(monkeypatch):
    # the (8,8) two-mode rep has 17 sectors of sizes 1..9; a mixed state takes one batched SVD per
    # block shape r x c (r <= c, a tall block transposed) with r > 1 other than 2x2: 45 shapes less
    # the 1x1, the eight side-1 and the 2x2 leave 35 calls, holding the 221 blocks, none padded
    rep = joint_representation(U1Representation(range(9)), U1Representation(range(9)))
    x = rand_state(np.random.default_rng(3), rep.dim)
    want = dense_mode_norms(x, rep)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a[0].shape) or svd(*a, **k))
    norms = mode_norms(x, rep)
    sizes = np.bincount(rep.charges)
    shapes = Counter(tuple(sorted((a, b))) for a in sizes for b in sizes if min(a, b) > 1 and (a, b) != (2, 2))
    assert len(calls) == len(shapes) == 35 and sum(shapes.values()) == 221
    assert {shape[2:]: shape[1] for shape in calls} == shapes and all(shape[0] == 1 for shape in calls)
    np.testing.assert_allclose(norms, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("cutoff", [6, 8])
def test_mode_norms_takes_no_svd_on_two_mode_pure_states_and_twirls(monkeypatch, cutoff):
    # every sector block of a pure state, and of its twirl, is rank one
    a, b = (coherent_state(0.7 * np.exp(1j * phase), cutoff).amplitudes for phase in (0.3, 2.2))
    psi = np.kron(a, b)
    rep = joint_representation(U1Representation(range(cutoff + 1)), U1Representation(range(cutoff + 1)))
    rho = np.outer(psi, psi.conj())
    xs = (rho, weighted_twirl(rho, rep, FourierWeights.gaussian(0.25)))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a[0].shape) or svd(*a, **k))
    norms = [mode_norms(x, rep) for x in xs]
    assert calls == []
    monkeypatch.setattr(np.linalg, "svd", svd)
    for x, got in zip(xs, norms):
        np.testing.assert_allclose(got, dense_mode_norms(x, rep), rtol=1e-12, atol=0)


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


def test_twirled_two_mode_spectrum_mode_by_mode():
    # a two-mode product psi has rank-1 blocks P_{q+k} psi psi^dag P_q, so its
    # mode-k norm is pure_mode_norm of the per-sector norms ||P_q psi||; the
    # kernel takes modes k and -k from their own blocks, and both must stay exact
    a = coherent_state(0.9 * np.exp(0.4j), 8)
    b = coherent_state(0.7 * np.exp(1.1j), 8)
    rep = joint_representation(a.representation, b.representation)
    psi = np.kron(a.amplitudes, b.amplitudes)
    sectors = np.sqrt(np.bincount(rep.charges, weights=np.abs(psi) ** 2))
    dt = 0.3
    sigma = weighted_twirl(np.outer(psi, psi.conj()), rep, FourierWeights.gaussian(dt))
    spec = mode_spectrum(sigma, rep)
    assert set(spec.norms) == set(range(-rep.spread, rep.spread + 1))
    for k, v in spec.norms.items():
        want = np.exp(-0.5 * (k * dt) ** 2) * pure_mode_norm(sectors, k)
        assert v == pytest.approx(want, rel=1e-12, abs=0)


def test_modes_of_builds_no_mode_components(monkeypatch):
    rng = np.random.default_rng(12)
    rep = joint_representation(U1Representation(range(4)), U1Representation(range(3)))
    x = rand_state(rng, rep.dim)
    x[np.abs(rep.charge_diffs()) == 2] = 0
    want = {k for k, v in mode_spectrum(x, rep).norms.items() if v > 1e-10}
    assert 2 not in want and 1 in want

    def refuse(*args):
        raise AssertionError("modes_of built _ModeComponents")

    monkeypatch.setattr(u1, "_ModeComponents", refuse)
    assert modes_of(x, rep) == want
    assert modes_of(x, rep, tol=10.0) == set()


def test_pure_mode_norm_matches_complex_formula_bit_for_bit():
    def complex_formula(psi, k):
        psi = np.abs(np.asarray(psi, dtype=complex).reshape(-1))
        k = abs(int(k))
        return 0.0 if k >= psi.size else float(np.add.reduce(psi[k:] * psi[: psi.size - k]))

    rng = np.random.default_rng(13)
    real = rng.normal(size=23)
    amplitudes = [
        real, real.astype(np.float32), real[:, None],
        real + 1j * rng.normal(size=23), (real + 1j * rng.normal(size=23)).astype(np.complex64),
        rng.integers(-9, 10, size=23), [3, 0, -1, 2], [10**10, 3 * 10**9], [True, False, True],
    ]
    for psi in amplitudes:
        n = np.size(psi)
        for k in range(-n - 1, n + 2):
            assert pure_mode_norm(psi, k) == complex_formula(psi, k)


def _two_mode_pure_state(n):
    """An (n,n) two-mode coherent product psi psi^dag, its representation and sector norms."""
    a, b = (coherent_state(0.9 * np.exp(1j * phase), n) for phase in (0.4, 1.1))
    rep = joint_representation(a.representation, b.representation)
    psi = np.kron(a.amplitudes, b.amplitudes)
    return np.outer(psi, psi.conj()), rep, np.sqrt(np.bincount(rep.charges, weights=np.abs(psi) ** 2))


@pytest.mark.parametrize("n, seconds, mib", [(12, 0.005, 4), (20, 0.03, 16), (30, 0.12, 64)])
def test_mode_norms_of_large_two_mode_pure_states_within_budget(monkeypatch, n, seconds, mib):
    # one O(d^2) shared-factor test per call: no padded copy and no SVD, at d = 169, 441 and 961
    # (best of five warm calls, 2-vCPU VM: 0.6, 6 and 26 ms, and 1.0, 6.2 and 29 MiB traced)
    rho, rep, sectors = _two_mode_pure_state(n)
    mode_norms(rho, rep)
    best = min(timeit.repeat(lambda: mode_norms(rho, rep), number=1, repeat=5))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a[0].shape) or svd(*a, **k))
    tracemalloc.start()
    try:
        norms = mode_norms(rho, rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [] and best <= seconds and peak <= mib * 2**20
    want = [pure_mode_norm(sectors, k) for k in range(-rep.spread, rep.spread + 1)]
    np.testing.assert_allclose(norms, want, rtol=1e-12, atol=0)


def test_mode_norms_of_a_two_mode_mixed_state_within_budget(monkeypatch):
    # g g^dag / tr fails the shared-factor test, so every block is gathered straight from the
    # operator, with no padded copy: at d = 441 one batched SVD per block shape over 2x2, 209
    # (best of five warm calls, 2-vCPU VM: 25-30 ms, 6.2 MiB traced, the shared-factor test's)
    rep = joint_representation(U1Representation(range(21)), U1Representation(range(21)))
    rng = np.random.default_rng(20)
    g = rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim))
    x = g @ g.conj().T / np.linalg.norm(g) ** 2
    mode_norms(x, rep)
    best = min(timeit.repeat(lambda: mode_norms(x, rep), number=1, repeat=5))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a[0].shape) or svd(*a, **k))
    tracemalloc.start()
    try:
        norms = mode_norms(x, rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(calls) == 209 and best <= 0.15 and peak <= 16 * 2**20
    diffs = rep.charge_diffs()
    for k in (-40, -7, 0, 1, 25):
        assert norms[k + rep.spread] == pytest.approx(trace_norm(np.where(diffs == k, x, 0)), rel=1e-12, abs=0)


def test_mode_norms_over_a_huge_charge_spread_raise_before_allocating():
    # an (n, 2 spread + 1) output over 2**41 modes would need 16 TiB
    rho = np.eye(2, dtype=complex) / 2
    start = timeit.default_timer()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"need 17592186044424 bytes, over the \d+-byte limit"):
            modes_of(rho, U1Representation((0, 2**40)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert timeit.default_timer() - start <= 0.1 and peak <= 2**20


def test_mode_norms_at_fock_cutoff_2000_build_no_plan():
    # consecutive charges take the skew sum of |x|: no sector plan, one d x 2d buffer
    coh = coherent_state(6.0 * np.exp(0.7j), 2000)
    rho, rep = coh.density, coh.representation
    before = _sector_plan.cache_info()
    start = timeit.default_timer()
    tracemalloc.start()
    try:
        norms = mode_norms(rho, rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert timeit.default_timer() - start <= 1.0 and peak <= 80 * 2**20  # a 61 MiB buffer
    assert _sector_plan.cache_info() == before
    ks = (-2000, -37, 0, 5, 200, 1999)
    np.testing.assert_allclose(norms[[k + 2000 for k in ks]], [pure_mode_norm(coh.amplitudes, k) for k in ks],
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("cutoff", [1, 2, 5, 56, 200])
def test_fock_path_equals_the_plan_path_bit_for_bit(cutoff):
    # charges 0, 2, 4, ... have the same 1x1 blocks as 0, 1, 2, ... but take the sector
    # plan; their even columns hold the modes
    rng = np.random.default_rng(cutoff)
    coh = coherent_state(1.7 * np.exp(2.1j), cutoff)
    fock, even = coh.representation, U1Representation(range(0, 2 * cutoff + 1, 2))
    g = rng.normal(size=coh.density.shape) + 1j * rng.normal(size=coh.density.shape)
    xs = np.stack([coh.density, weighted_twirl(coh.density, fock, FourierWeights.gaussian(0.3)), g, rand_state(rng, cutoff + 1)])
    for x in xs:
        np.testing.assert_array_equal(mode_norms(x, fock), mode_norms(x, even)[::2])
    np.testing.assert_array_equal(sector_trace_norms(xs, fock.charges), sector_trace_norms(xs, even.charges)[:, ::2])


def test_mode_project_dft_over_a_huge_charge_spread_raises_before_its_loop():
    # 2 * 2**40 + 1 samples of 2 x 2 operators: the loop would run for years
    start = timeit.default_timer()
    with pytest.raises(ValueError, match=r"2199023255553 samples of 2x2 operators hold 8796093022212 entries, "
                                         r"over the 33554432-entry limit"):
        mode_project_dft(np.eye(2) / 2, U1Representation((0, 2**40)), 1)
    assert timeit.default_timer() - start <= 0.1


@pytest.mark.parametrize("corrupt", ["rho", "sigma"])
def test_a_nan_mode_makes_the_bounds_nan_and_infeasible(corrupt):
    # rho[0, 1] sits in mode -1; the other state is diagonal, so its mode -1 is 0, below tol
    rep = U1Representation((0, 1, 2))
    states = {"rho": rand_state(np.random.default_rng(21), 3), "sigma": np.diag([0.5, 0.3, 0.2]).astype(complex)}
    if corrupt == "sigma":
        states = {"rho": states["sigma"], "sigma": states["rho"]}
    states[corrupt][0, 1] = np.nan
    bound = transition_bound(states["rho"], states["sigma"], rep)
    assert math.isnan(bound.per_mode[-1]) and math.isnan(bound.overall) and not bound.feasible
    assert not any(math.isnan(v) for k, v in bound.per_mode.items() if k != -1)
    residuals, feasible = ensemble_bound(states["rho"], [(states["sigma"], 0.5)], rep)
    assert math.isnan(residuals[-1]) and not feasible
    assert not any(math.isnan(v) for k, v in residuals.items() if k != -1)


def _modes_of_oracle(x, rep, tol):
    return {k for k, nrm in zip(range(-rep.spread, rep.spread + 1), mode_norms(x, rep).tolist()) if nrm > tol}


def _mode_spectrum_oracle(x, rep, tol):
    return {k: nrm for k, nrm in zip(range(-rep.spread, rep.spread + 1), mode_norms(x, rep).tolist()) if nrm > tol}


def _transition_bound_oracle(rho, sigma, rep, tol):
    ks = range(-rep.spread, rep.spread + 1)
    per = {k: 0.0 if nr <= tol else min(1.0, nr / ns)
           for k, nr, ns in zip(ks, mode_norms(rho, rep).tolist(), mode_norms(sigma, rep).tolist())
           if ns > tol}
    return per, min(per.values(), default=1.0)


def _ensemble_bound_oracle(rho, ensemble, rep, tol):
    ks = range(-rep.spread, rep.spread + 1)
    r = mode_norms(rho, rep)
    s = sum((p * mode_norms(sig, rep) for sig, p in ensemble), np.zeros_like(r))
    residuals = {k: rk - sk for k, rk, sk in zip(ks, r.tolist(), s.tolist()) if rk > tol or sk > tol}
    return residuals, all(v >= -tol for v in residuals.values())


@settings(deadline=None, max_examples=20, derandomize=True)
@given(degenerate_charges, st.integers(min_value=0, max_value=2**32 - 1))
def test_mode_masks_equal_the_per_mode_comprehensions_bit_for_bit(charges, seed):
    # repr tells every float bit apart (-0.0 too) and keeps the dict order
    rng = np.random.default_rng(seed)
    rep = U1Representation(charges)
    psi = rng.normal(size=rep.dim) + 1j * rng.normal(size=rep.dim)
    pure = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    mixed = rand_state(rng, rep.dim)
    gapped = np.where(np.abs(rep.charge_diffs()) == 1, 0, mixed)  # modes +-1 exactly 0
    states = (pure, mixed, gapped, weighted_twirl(pure, rep, FourierWeights.gaussian(0.7)))
    for tol in (0.0, DEFAULT_TOL, 10.0):
        for x in states:
            assert modes_of(x, rep, tol) == _modes_of_oracle(x, rep, tol)
            assert repr(mode_spectrum(x, rep, tol).norms) == repr(_mode_spectrum_oracle(x, rep, tol))
            for y in states:
                bound = transition_bound(x, y, rep, tol)
                assert repr((bound.per_mode, bound.overall)) == repr(_transition_bound_oracle(x, y, rep, tol))
                ensemble = [(y, 0.6), (pure, 0.3)]
                assert repr(ensemble_bound(x, ensemble, rep, tol)) == repr(_ensemble_bound_oracle(x, ensemble, rep, tol))


def _every_fourier_weights():
    thetas = np.linspace(0, 2 * np.pi, 401)
    return {"from_map": FourierWeights.from_map({0: 1.0, 2: 0.25j, -3: 0.5}), "uniform": FourierWeights.uniform(),
            "delta": FourierWeights.delta(0.9), "gaussian": FourierWeights.gaussian(0.35, mean=-1.2),
            "from_point_masses": FourierWeights.from_point_masses([0.3, 2.0], [0.25, 0.75]),
            "from_samples": FourierWeights.from_samples(thetas, np.exp(np.cos(thetas)))[0]}


@pytest.mark.parametrize("name", sorted(_every_fourier_weights()))
def test_fourier_weights_coefficient_reads_one_entry_of_coefficients(name):
    weights = _every_fourier_weights()[name]
    ks = np.arange(-60, 61)
    table = weights.coefficients(ks)
    assert table.dtype == complex and table.shape == ks.shape
    singles = np.array([weights.coefficient(k) for k in ks.tolist()])
    assert table.tobytes() == singles.tobytes()
    assert all(weights.coefficient(k) == weights.coefficients([k])[0] for k in ks.tolist())


@pytest.mark.parametrize("delta_theta, mean", [(0.3, 0.0), (0.35, -1.2), (1e-3, 2.5), (2.0, 0.4)])
def test_gaussian_and_delta_weights_equal_the_scalar_formulas_bit_for_bit(delta_theta, mean):
    # the scalar formulas on Python ints; k ** 2 is libm pow, as float_power is
    ks = range(-200, 201)
    gaussian = [complex(np.exp(-1j * k * mean - 0.5 * (k * delta_theta) ** 2)) for k in ks]
    delta = [complex(np.exp(-1j * k * mean)) for k in ks]
    assert FourierWeights.gaussian(delta_theta, mean).coefficients(ks).tobytes() == np.array(gaussian).tobytes()
    assert FourierWeights.delta(mean).coefficients(ks).tobytes() == np.array(delta).tobytes()


def test_weighted_twirl_calls_the_weight_function_once():
    calls = []
    weights = FourierWeights(lambda ks: calls.append(ks.copy()) or np.exp(-0.5 * np.float_power(0.3 * ks, 2)))
    rep = joint_representation(U1Representation(range(4)), U1Representation((0, 2, 3)))
    rho = rand_state(np.random.default_rng(22), rep.dim)
    calls.clear()
    sigma = weighted_twirl(rho, rep, weights)
    assert len(calls) == 1
    np.testing.assert_array_equal(np.sort(calls[0]), np.unique(rep.charge_diffs()))
    np.testing.assert_array_equal(sigma, np.exp(-0.5 * np.float_power(0.3 * -rep.charge_diffs(), 2)) * rho)
    ks, inverse = u1._diff_classes(rep.charges)
    assert not ks.flags.writeable and not inverse.flags.writeable


@pytest.mark.parametrize("call, mib", [("modes_of", 40), ("mode_spectrum", 40), ("transition_bound", 48)])
def test_mode_selection_over_a_million_modes_within_budget(call, mib):
    # 2 * 10**6 + 1 mode norms, of which three are nonzero: one mask selects them.  A norm row is
    # 16 MB and the kernel holds two while it builds one (30.5 MiB traced); transition_bound keeps
    # rho's row while it builds sigma's (45.8 MiB).  A Python float per mode took 0.23 s and 76 MiB
    rep = U1Representation((0, 10**6))
    rho = np.full((2, 2), 0.5, dtype=complex)
    run = {"modes_of": lambda: modes_of(rho, rep), "mode_spectrum": lambda: mode_spectrum(rho, rep).norms,
           "transition_bound": lambda: transition_bound(rho, rho, rep).per_mode}[call]
    best = min(timeit.repeat(run, number=1, repeat=3))
    tracemalloc.start()
    try:
        got = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert best <= 0.1 and peak <= mib * 2**20
    assert sorted(got) == [-10**6, 0, 10**6]
