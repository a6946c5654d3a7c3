import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from asymmodes import (
    POVM,
    DensityMatrix,
    SU2Representation,
    apply_superop,
    FourierWeights,
    channel_from_kraus,
    coherent_state,
    compose_superops,
    hs_inner,
    identity_superop,
    joint_representation,
    mode_monotone_table,
    partial_trace,
    random_covariant_channel,
    random_density_matrix,
    reduce_covariant,
    tensor_basis_general,
    tensor_product,
    trace_norm,
    U1Representation,
    unvec,
    vec,
    weighted_twirl,
)
from asymmodes import linalg
from asymmodes.linalg import _sector_plan, _shared_factors, sector_trace_norms

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_cptp_kraus(rng, d, n_kraus=3):
    g = random_complex(rng, (n_kraus * d, d))
    q, _ = np.linalg.qr(g)
    return [q[i * d:(i + 1) * d, :] for i in range(n_kraus)]


def test_hs_inner_identity_and_paulis():
    assert hs_inner(I2, I2) == pytest.approx(2)
    assert hs_inner(SZ, SZ) == pytest.approx(2)


def test_hs_inner_positive_and_conjugate_symmetric():
    rng = np.random.default_rng(0)
    a = random_complex(rng, (4, 4))
    b = random_complex(rng, (4, 4))
    self_inner = hs_inner(a, a)
    assert self_inner.imag == pytest.approx(0, abs=1e-12)
    assert self_inner.real >= 0
    assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))


def test_hs_inner_shape_mismatch():
    with pytest.raises(ValueError):
        hs_inner(I2, np.eye(3))


def test_trace_norm_basics():
    assert trace_norm(I2) == pytest.approx(2)
    assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2)
    with pytest.raises(ValueError):
        trace_norm(np.ones((2, 3)))


def test_trace_norm_tiny_nilpotent():
    # within 1e-13 of Hermitian, yet its singular values are 4e-14 and 3e-14
    a = np.array([[0, 3e-14, 0], [0, 0, 4e-14], [0, 0, 0]], dtype=complex)
    assert trace_norm(a) == pytest.approx(7e-14, rel=1e-12, abs=0)


def test_trace_norm_vs_eigendecomposition_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = random_complex(rng, (5, 5))
        evals = np.linalg.eigvalsh(a.conj().T @ a)
        assert trace_norm(a) == pytest.approx(np.sqrt(np.clip(evals, 0, None)).sum(), abs=1e-10)


def test_trace_norm_unitary_invariance_and_triangle():
    rng = np.random.default_rng(2)
    a = random_complex(rng, (4, 4))
    b = random_complex(rng, (4, 4))
    q, _ = np.linalg.qr(random_complex(rng, (4, 4)))
    assert trace_norm(q @ a @ q.conj().T) == pytest.approx(trace_norm(a), abs=1e-10)
    assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-10


def test_trace_norm_monotone_under_channels():
    rng = np.random.default_rng(3)
    for trial in range(200):
        d = int(rng.integers(2, 5))
        chan = channel_from_kraus(random_cptp_kraus(rng, d))
        assert chan.trace_preserving
        x = random_complex(rng, (d, d))
        assert trace_norm(apply_superop(chan, x)) <= trace_norm(x) + 1e-10


def test_tensor_product():
    assert np.allclose(tensor_product(I2, I2), np.eye(4))
    assert np.allclose(tensor_product(SZ, I2), np.diag([1, 1, -1, -1]))
    rng = np.random.default_rng(4)
    a, b = random_complex(rng, (3, 3)), random_complex(rng, (2, 2))
    assert np.trace(tensor_product(a, b)) == pytest.approx(np.trace(a) * np.trace(b))


def test_partial_trace():
    rng = np.random.default_rng(5)
    rho = random_density_matrix(2, rng)
    tau = random_density_matrix(3, rng)
    assert np.allclose(partial_trace(np.kron(rho, tau), (2, 3), "A"), rho)
    assert np.allclose(partial_trace(np.kron(rho, tau), (2, 3), "B"), tau)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    assert np.allclose(partial_trace(np.outer(bell, bell.conj()), (2, 2), "A"), I2 / 2)
    x = random_complex(rng, (6, 6))
    assert np.trace(partial_trace(x, (2, 3), "B")) == pytest.approx(np.trace(x))
    with pytest.raises(ValueError):
        partial_trace(x, (2, 2), "A")


def test_channel_from_kraus():
    ident = channel_from_kraus([I2])
    assert np.allclose(ident.liouville, np.eye(4))
    assert ident.trace_preserving
    flip = channel_from_kraus([SX])
    rng = np.random.default_rng(6)
    rho = random_density_matrix(2, rng)
    assert np.allclose(apply_superop(flip, rho), SX @ rho @ SX)
    kraus = random_cptp_kraus(rng, 3)
    chan = channel_from_kraus(kraus)
    x = random_complex(rng, (3, 3))
    direct = sum(k @ x @ k.conj().T for k in kraus)
    assert np.abs(apply_superop(chan, x) - direct).max() < 1e-12
    with pytest.raises(ValueError):
        channel_from_kraus([I2, np.eye(3)])


@pytest.mark.parametrize("shape, n", [((3, 2), 3), ((2, 5), 4), ((4, 4), 1), ((3, 3), 3)])
def test_channel_from_kraus_matches_kron_sum(shape, n):
    rng = np.random.default_rng(sum(shape) + n)
    kraus = [random_complex(rng, shape) for _ in range(n)]
    chan = channel_from_kraus(kraus)
    np.testing.assert_array_equal(chan.liouville, sum(np.kron(k, k.conj()) for k in kraus))
    assert (chan.out_dim, chan.in_dim) == shape
    assert chan.trace_preserving is False
    # an isometry's Kraus set: V^dag V = 1 on the smaller side, so it is trace preserving there
    v = np.linalg.qr(random_complex(rng, (max(shape), max(shape))))[0][:, :min(shape)]
    iso = channel_from_kraus([v])
    np.testing.assert_array_equal(iso.liouville, np.kron(v, v.conj()))
    assert iso.trace_preserving is True
    assert channel_from_kraus([k / np.sqrt(2) for k in (v, v)]).trace_preserving is True


def test_apply_superop_identity_zero_composition():
    rng = np.random.default_rng(7)
    x = random_complex(rng, (3, 3))
    assert np.allclose(apply_superop(identity_superop(3), x), x)
    zero = channel_from_kraus([np.zeros((3, 3))])
    assert np.allclose(apply_superop(zero, x), 0)
    e1 = channel_from_kraus(random_cptp_kraus(rng, 3))
    e2 = channel_from_kraus(random_cptp_kraus(rng, 3))
    assert np.allclose(apply_superop(e2, apply_superop(e1, x)),
                       apply_superop(compose_superops(e2, e1), x))


def test_vec_convention_row_stacking():
    d = 3
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d))
            e[i, j] = 1
            v = vec(e)
            assert v[i * d + j] == 1
            assert np.count_nonzero(v) == 1


@settings(deadline=None, max_examples=25, derandomize=True)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_vec_unvec_roundtrip(rows, cols, seed):
    rng = np.random.default_rng(seed)
    x = random_complex(rng, (rows, cols))
    assert np.array_equal(unvec(vec(x), (rows, cols)), x)


def test_partial_trace_of_tensor_recovers_factors():
    rng = np.random.default_rng(8)
    a = random_complex(rng, (3, 3))
    b = random_complex(rng, (2, 2))
    ab = tensor_product(a, b)
    assert np.allclose(partial_trace(ab, (3, 2), "A"), a * np.trace(b))
    assert np.allclose(partial_trace(ab, (3, 2), "B"), b * np.trace(a))


def test_density_matrix_validation():
    rng = np.random.default_rng(9)
    rho = DensityMatrix.from_array(random_density_matrix(3, rng))
    assert rho.dim == 3
    with pytest.raises(ValueError):
        DensityMatrix.from_array(np.diag([0.9, 0.3]))
    with pytest.raises(ValueError):
        DensityMatrix.from_array(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        DensityMatrix.from_array(np.diag([1.5, -0.5]))


def test_povm_validation():
    p = POVM.from_elements([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], labels=("up", "down"))
    assert p.dim == 2
    with pytest.raises(ValueError):
        POVM.from_elements([np.diag([1.0, 0.0])])
    with pytest.raises(ValueError):
        POVM.from_elements([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])])


def _dense_shift_norms(x, charges):
    """Per-shift trace norms of x masked to the entries with q_row - q_col = k."""
    q = np.asarray(charges)
    diffs = q[:, None] - q[None, :]
    spread = q.max() - q.min()
    return np.array([trace_norm(np.where(diffs == k, x, 0)) for k in range(-spread, spread + 1)])


@pytest.mark.parametrize("charges", [
    (3,) * 12 + (0, 1, 2, 4, 5, 6),  # one sector of 12 beside singletons
    (4, -2, 4, 9, -2, 0, 9, 9, -7),  # gapped, negative and unsorted
    (1, 1, 0, 0, 0, 2, 2, 2, 2, 2, 3),  # sizes 2, 3, 5, 1 in four size classes
    (5,),
], ids=["skewed", "gapped-negative", "size-classes", "one-state"])
def test_sector_trace_norms_match_dense_masks(charges):
    rng = np.random.default_rng(61)
    d = len(charges)
    xs = random_complex(rng, (4, d, d))
    norms = sector_trace_norms(xs, charges)
    assert norms.shape == (4, 2 * (max(charges) - min(charges)) + 1)
    for x, row in zip(xs, norms):
        np.testing.assert_allclose(row, _dense_shift_norms(x, charges), rtol=1e-12, atol=0)
        np.testing.assert_array_equal(sector_trace_norms(x, charges), row)


def test_sector_trace_norms_rejects_wrong_shapes():
    for bad in (np.eye(2), np.ones((2, 3, 2)), np.ones(3), np.ones((1, 1, 3, 3))):
        with pytest.raises(ValueError):
            sector_trace_norms(bad, (0, 1, 1))


def _two_mode_state(phases=(0.4, 1.1)):
    """An (8,8) two-mode coherent product |psi><psi| (np.outer: Hermitian to
    rounding) on its 17 charge sectors of sizes 1..9..1, and its charges."""
    a, b = (coherent_state(0.5 * np.exp(1j * phase), 8).amplitudes for phase in phases)
    psi = np.kron(a, b)
    rep = joint_representation(U1Representation(range(9)), U1Representation(range(9)))
    return np.outer(psi, psi.conj()), rep


def _svd_blocks(monkeypatch):
    """Count the blocks that reach np.linalg.svd: the sum of its batch sizes."""
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **k: seen.append(np.prod(a.shape[:-2])) or svd(a, **k))
    return seen


def test_sector_trace_norms_plus_and_minus_k_agree_on_hermitian_states():
    # X_ba = X_ab^dag for Hermitian x, so modes k and -k have the same trace norm: on a pure
    # state and its twirl (rank-one blocks), a rank-2 mixture made Hermitian exactly, and the
    # same mixture left as the sum of two np.outer terms (Hermitian only to rounding)
    rho, rep = _two_mode_state()
    mixture = (rho + _two_mode_state((2.0, -0.7))[0]) / 2
    inputs = ((rho, 1), (weighted_twirl(rho, rep, FourierWeights.gaussian(0.3)), 1),
              ((mixture + mixture.conj().T) / 2, 2), (mixture, 2))
    spread = rep.spread
    for x, rank in inputs:
        norms = sector_trace_norms(x, rep.charges)
        np.testing.assert_allclose(norms[:spread], norms[:spread:-1], rtol=16 * np.finfo(float).eps * np.sqrt(rank),
                                   atol=0)
        np.testing.assert_allclose(norms, _dense_shift_norms(x, rep.charges), rtol=1e-12, atol=0)


@pytest.mark.parametrize("pair", [(8, 6), (13, 12)], ids=["large-block", "block-near-1e-14"])
def test_sector_trace_norms_full_path_for_perturbed_hermitian(monkeypatch, pair):
    # an anti-Hermitian change i H of 1e-3 of the entries of one sector pair
    # (a, b) breaks X_ba = X_ab^dag, and ||X_ab + i H_ab||_1 != ||X_ab - i H_ab||_1
    rho, rep = _two_mode_state()
    q = np.asarray(rep.charges)
    block = (q[:, None] == pair[0]) & (q[None, :] == pair[1])
    assert 1e-15 < np.abs(rho[block]).max() < (1e-13 if pair == (13, 12) else 1.0)
    h = np.where(block, np.abs(rho) * np.random.default_rng(5).normal(size=rho.shape), 0)
    x = rho + 1e-3j * (h + h.T)
    seen = _svd_blocks(monkeypatch)
    sector_trace_norms(random_complex(np.random.default_rng(4), x.shape), rep.charges)
    full = sum(seen)
    seen.clear()
    norms = sector_trace_norms(x, rep.charges)
    # of the 17 x 17 blocks, the two sectors of size 1 give 2 x 2 that are 1x1 and 2 x 2 x 15
    # with one side 1, and the two of size 2 give four 2x2: 289 - 4 - 60 - 4 = 221 take the SVD
    assert sum(seen) == full == 221
    np.testing.assert_allclose(norms, _dense_shift_norms(x, rep.charges), rtol=1e-12, atol=0)


def test_sector_trace_norms_mixed_batch_matches_single_calls():
    rho, rep = _two_mode_state()
    g = random_complex(np.random.default_rng(9), rho.shape)
    for batch in ([rho, g], [g, rho], [rho, rho, g]):
        want = [sector_trace_norms(x, rep.charges) for x in batch]
        np.testing.assert_array_equal(sector_trace_norms(np.stack(batch), rep.charges), want)


def test_sector_trace_norms_inf_in_a_two_by_two_block_reads_nan_in_its_mode():
    x = np.eye(4, dtype=complex)
    x[0, 0] = np.inf  # the closed form of the 2x2 block of mode 0 reads NaN, with no RuntimeWarning
    norms = sector_trace_norms(x, (0, 0, 1, 1))
    assert np.isnan(norms[1]) and norms[0] == norms[2] == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_sector_trace_norms_non_finite_entry_skips_the_svd(bad):
    # the entry lies in the 3x3 block of mode 0: that block stays out of the batched SVD
    # and reads NaN, alone and beside a finite matrix of the same batch
    charges = (0, 0, 0, 1, 1, 1, 2)
    x = np.eye(7, dtype=complex)
    x[0, 1] = bad
    norms = sector_trace_norms(x, charges)
    np.testing.assert_array_equal(norms, [0, 0, np.nan, 0, 0])
    g = random_complex(np.random.default_rng(47), x.shape)
    np.testing.assert_array_equal(sector_trace_norms(np.stack([x, g]), charges), [norms, sector_trace_norms(g, charges)])


def test_sector_trace_norms_non_finite_entry_in_a_large_block():
    # the inf lies in the 3x3 block of mode -1; the shared-factor test fails quietly,
    # that block skips the SVD and reads NaN, and every other mode is the dense route's
    rng = np.random.default_rng(43)
    charges = (0, 0, 0, 1, 1, 1, 2)
    psi = random_complex(rng, 7)
    x = np.outer(psi, psi.conj())
    x[0, 4] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        norms = sector_trace_norms(x, charges)
    assert np.isnan(norms[1])
    y = x.copy()
    y[0, 4] = 0
    np.testing.assert_allclose(np.delete(norms, 1), np.delete(_dense_shift_norms(y, charges), 1), rtol=1e-12, atol=0)

def _random_charges(rng):
    """12 to 29 charges in -3..3, unsorted, so most sectors are over 2x2."""
    return tuple(int(c) for c in rng.integers(-3, 4, size=rng.integers(12, 30)))


@pytest.mark.parametrize("seed", range(5))
def test_sector_trace_norms_rank_one_blocks_take_no_svd(monkeypatch, seed):
    # every block of psi psi^dag, psi phi^dag and their twirls is rank one
    rng = np.random.default_rng(seed)
    charges = _random_charges(rng)
    psi, phi = random_complex(rng, (2, len(charges)))
    xs = [np.outer(psi, psi.conj()), np.outer(psi, phi.conj())]
    xs += [weighted_twirl(x, U1Representation(charges), FourierWeights.gaussian(0.4)) for x in xs]
    seen = _svd_blocks(monkeypatch)
    norms = [sector_trace_norms(x, charges) for x in xs]
    assert sum(seen) == 0
    for x, row in zip(xs, norms):
        np.testing.assert_allclose(row, _dense_shift_norms(x, charges), rtol=1e-12, atol=0)
    # a matrix that fails the certificate leaves the others of its batch as they read alone
    g = random_complex(rng, xs[0].shape)
    np.testing.assert_array_equal(sector_trace_norms(np.stack(xs + [g]), charges),
                                  norms + [sector_trace_norms(g, charges)])


@pytest.mark.parametrize("delta", [1e-16, 1e-14, 1e-12, 1e-8, 1e-4])
def test_sector_trace_norms_near_rank_one_blocks(monkeypatch, delta):
    # a matrix whose blocks are within 16 eps of rank one takes ||u^dag B||, any other
    # the SVD: a change of delta relative to each entry straddles that threshold
    rng = np.random.default_rng(29)
    charges = _random_charges(rng)
    psi = random_complex(rng, len(charges))
    rho, g = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real, random_complex(rng, (len(charges),) * 2)
    seen = _svd_blocks(monkeypatch)
    for x in (rho + delta * g, rho + delta * (g + g.conj().T), rho + delta * np.abs(rho) * g):
        seen.clear()
        norms = sector_trace_norms(x, charges)
        svd_blocks = sum(seen)
        np.testing.assert_allclose(norms, _dense_shift_norms(x, charges), rtol=1e-12, atol=0)
    assert (svd_blocks == 0) == (delta < 1e-15)  # the last, entrywise-relative change


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1e160, 1e300])
def test_sector_trace_norms_scaled_pure_states(scale):
    # blocks are scaled by a power of two before squaring: no square under- or overflows
    rho, rep = _two_mode_state()
    rng = np.random.default_rng(31)
    psi = random_complex(rng, rho.shape[0]) / 16
    for x in (scale * rho, scale * np.outer(psi, psi.conj())):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            norms = sector_trace_norms(x, rep.charges)
        np.testing.assert_allclose(norms, _dense_shift_norms(x, rep.charges), rtol=1e-12, atol=0)


@pytest.mark.parametrize("charges", [(0, 0, 0, 1, 1, 1), (0, 0, 1, 1), (0, 1, 1, 1)],
                         ids=["3x3", "2x2", "side-1"])
def test_sector_trace_norms_subnormal_block(charges):
    # a single nonzero block, of entries near 1e-310, below the smallest normal float 2.2e-308
    rng = np.random.default_rng(37)
    q = np.asarray(charges)
    u, v = random_complex(rng, (2, len(q)))
    for block in ((q[:, None] == 0) & (q[None, :] == 1), (q[:, None] == 1) & (q[None, :] == 1)):
        x = np.where(block, 1e-310 * (np.outer(u, v) + random_complex(rng, block.shape)), 0)
        assert 0 < np.abs(x).max() < np.finfo(float).tiny
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            norms = sector_trace_norms(x, charges)
        np.testing.assert_allclose(norms, _dense_shift_norms(x, charges), rtol=1e-12, atol=0)


@pytest.mark.parametrize("delta", [0.0, 1e-17, 1e-12, 1e-6])
def test_sector_trace_norms_singular_two_by_two_blocks(delta):
    # sqrt(||B||_F^2 + 2 |det B|) on 2x2 blocks that are singular or nearly so
    rng = np.random.default_rng(41)
    u, v = random_complex(rng, (2, 4))
    for x in (np.outer(u, v.conj()), np.outer(u, u.conj())):
        x = x + delta * random_complex(rng, x.shape)
        for charges in ((0, 0, 1, 1), (1, 0, 1, 0)):
            np.testing.assert_allclose(sector_trace_norms(x, charges), _dense_shift_norms(x, charges),
                                       rtol=1e-12, atol=0)


# Degenerate charges with a sector of at least 3 states beside another sector: some
# block is over 2x2, so the shared-factor test runs, and a block row spans two sectors.
degenerate_charges = st.lists(st.integers(-3, 3), min_size=2, max_size=18).map(
    lambda q: tuple(q) + (q[0], q[0], q[0] + 1))


@settings(deadline=None, max_examples=30, derandomize=True)
@given(degenerate_charges)
def test_sector_plan_layouts_partition_the_operator_by_block(charges):
    # each layout (blocks, r, c), r <= c, holds flat indices i * d + j, one sector pair (a, b) per
    # block; every entry of the d x d operator is in one block, and each block has the column
    # q_a - q_b + spread of its mode
    q, d, spread = np.asarray(charges), len(charges), max(charges) - min(charges)
    (layouts, column), _ = _sector_plan(charges)
    np.testing.assert_array_equal(np.sort(np.concatenate([index.ravel() for index in layouts])), np.arange(d * d))
    columns = []
    for index in layouts:
        rows, cols = (q[side(index, d)].reshape(len(index), -1) for side in (np.floor_divide, np.mod))
        assert index.ndim == 3 and index.shape[1] <= index.shape[2]
        assert (rows == rows[:, :1]).all() and (cols == cols[:, :1]).all()
        columns.append(rows[:, 0] - cols[:, 0] + spread)
    np.testing.assert_array_equal(column, np.concatenate(columns))


def _rank_one_blocks(rng, charges):
    """Every sector block rank one, each with a column space of its own."""
    q = np.asarray(charges)
    x = np.zeros((len(q), len(q)), dtype=complex)
    for a in np.unique(q):
        for b in np.unique(q):
            x[np.ix_(q == a, q == b)] = np.outer(random_complex(rng, np.sum(q == a)), random_complex(rng, np.sum(q == b)))
    return x


@settings(deadline=None, max_examples=20, derandomize=True)
@given(degenerate_charges, st.integers(min_value=0, max_value=2**32 - 1))
def test_shared_factor_inputs_take_no_svd(charges, seed):
    # psi phi^dag has blocks beta_ab c_a r_b^T, and so has every U(1) twirl of it, which
    # scales block (a, b) by the weight of q_a - q_b: Gaussian, uniform (block-diagonal,
    # the dephased state) and point masses; psi may vanish on a whole sector
    rng = np.random.default_rng(seed)
    rep = U1Representation(charges)
    psi, phi = random_complex(rng, (2, len(charges)))
    x = np.outer(psi, phi.conj())
    weights = (FourierWeights.gaussian(0.4), FourierWeights.uniform(),
               FourierWeights.from_point_masses([0.3, 2.0], [0.25, 0.75]))
    gap = np.where(np.asarray(charges) == charges[-1], 0, psi)
    xs = [x, np.outer(psi, psi.conj()), np.outer(gap, phi.conj())] + [weighted_twirl(x, rep, w) for w in weights]
    with pytest.MonkeyPatch.context() as patch:
        seen = _svd_blocks(patch)
        norms = [sector_trace_norms(x, charges) for x in xs]
    assert sum(seen) == 0
    for x, row in zip(xs, norms):
        np.testing.assert_allclose(row, _dense_shift_norms(x, charges), rtol=1e-12, atol=0)


@settings(deadline=None, max_examples=20, derandomize=True)
@given(degenerate_charges, st.integers(min_value=0, max_value=2**32 - 1))
def test_rank_one_blocks_on_two_column_spaces_fail_the_shared_factor_test(charges, seed):
    # each block is rank one, but the block row of q[0] (3 or more rows) holds two
    # blocks with column spaces of their own, so no one c serves it
    x = _rank_one_blocks(np.random.default_rng(seed), charges)
    assert not _shared_factors(x[None], *_sector_plan(charges)[1][:2])[1][0]
    np.testing.assert_allclose(sector_trace_norms(x, charges), _dense_shift_norms(x, charges), rtol=1e-12, atol=0)


@settings(deadline=None, max_examples=15, derandomize=True)
@given(degenerate_charges, st.integers(min_value=0, max_value=2**32 - 1))
def test_batch_reads_as_its_matrices_one_call_at_a_time(charges, seed):
    rng = np.random.default_rng(seed)
    psi, phi = random_complex(rng, (2, len(charges)))
    x = np.outer(psi, phi.conj())
    xs = [x, np.outer(psi, psi.conj()), weighted_twirl(x, U1Representation(charges), FourierWeights.gaussian(0.4)),
          _rank_one_blocks(rng, charges), random_complex(rng, x.shape)]
    xs = [xs[i] for i in rng.permutation(len(xs))]
    np.testing.assert_array_equal(sector_trace_norms(np.stack(xs), charges),
                                  [sector_trace_norms(x, charges) for x in xs])


def test_su2_channel_representations_never_reach_the_shared_factor_test(monkeypatch):
    # every Lz sector of the representations of perfbench's su2-channels workload has at
    # most 2 states, so no block is over 2x2 and their tables keep the closed forms
    def refuse(*args):
        raise AssertionError("the shared-factor test ran")

    monkeypatch.setattr(linalg, "_shared_factors", refuse)
    spin, rep = SU2Representation.spin, SU2Representation
    pairs = [(spin(j), spin(j)) for j in (0.5, 1, 1.5, 2, 2.5, 3)]
    pairs += [(spin(1), spin(2)), (spin(2), spin(1)), (spin(0.5), spin(1.5)), (spin(1.5), spin(0.5)),
              (rep(((0, 1), (2, 1))), spin(1)), (rep(((1, 2),)), rep(((1, 1), (3, 1)))),
              (rep(((2, 2),)), rep(((2, 2),)))]
    rng = np.random.default_rng(53)
    for a, b in pairs:
        chan = random_covariant_channel(a, b, rng)
        reduce_covariant(chan, tensor_basis_general(a), tensor_basis_general(b))
        rho = random_density_matrix(a.dim, rng)
        for state, r in ((rho, a), (apply_superop(chan, rho), b), (random_density_matrix(a.dim, rng, rank=1), a)):
            assert mode_monotone_table(state, r).entries
