"""Reference-frame misalignment and degradation under repeated covariant use.

Against a fixed covariant degradation channel with rank coefficients c^(mu),
every tensor expectation follows the geometric law
    tr(rho_k T_m^(mu) dag) = (c^(mu))^k tr(rho_0 T_m^(mu) dag),
so <Lz>_k decays geometrically and <Lz^2>_k saturates to j(j+1)/3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import Superoperator, _as_matrix, apply_superop
from .su2 import SU2Representation, _twice, angular_momentum, tensor_basis_spin_j
from .u1 import FourierWeights, U1Representation, weighted_twirl
from .channels import superop_covariance_residual


@dataclass(frozen=True)
class DegradationModel:
    """Rank coefficients of a covariant degradation channel on a spin-j frame."""

    twice_j: int
    coefficients: dict  # mu (int) -> real c^(mu), |c| <= 1, c^(0) = 1

    def __post_init__(self):
        coeffs = {int(mu): float(c) for mu, c in self.coefficients.items()}
        coeffs.setdefault(0, 1.0)
        if abs(coeffs[0] - 1.0) > 1e-12:
            raise ValueError("c^(0) must be 1 (trace preservation)")
        for mu, c in coeffs.items():
            if abs(c) > 1 + 1e-12:
                raise ValueError(f"|c^({mu})| = {abs(c)} exceeds 1")
        object.__setattr__(self, "coefficients", coeffs)

    def coefficient(self, mu: int) -> float:
        return self.coefficients.get(int(mu), 0.0)


@dataclass(frozen=True)
class TrajectoryStep:
    k: int
    tensor_expectations: dict  # (twice_mu, twice_m) -> complex tr(rho_k T^dag)
    lz_mean: float
    lz2_mean: float


@dataclass(frozen=True)
class Trajectory:
    twice_j: int
    steps: tuple

    def series(self, mu, m) -> np.ndarray:
        key = (_twice(mu), _twice(m))
        return np.array([s.tensor_expectations[key] for s in self.steps])


def _trajectory(tj: int, basis, expectations: np.ndarray, lz_means, lz2_means) -> Trajectory:
    """Step k from column k of the (labels x steps) expectations and the k-th means."""
    keys = [(tmu, tm) for tmu, tm, _ in basis.labels]
    columns = zip(expectations.T.tolist(), lz_means.tolist(), lz2_means.tolist())
    return Trajectory(tj, tuple(TrajectoryStep(k, dict(zip(keys, column)), lz, lz2)
                                for k, (column, lz, lz2) in enumerate(columns)))


def degrade_trajectory(rho0, model: DegradationModel, steps: int) -> Trajectory:
    """Closed-form trajectory of tensor expectations over `steps` uses; row mu of
    the power table holds (c^(mu))^k for k = 0..steps."""
    rho0 = _as_matrix(rho0)
    tj = model.twice_j
    j = tj / 2
    basis = tensor_basis_spin_j(j)
    lz = angular_momentum(j).Lz
    powers = np.array([[model.coefficient(mu) ** k for k in range(steps + 1)]
                       for mu in range(max(tj, 2) + 1)])
    table = powers[[tmu // 2 for tmu, _, _ in basis.labels]] * basis.coefficients(rho0)[:, None]
    lz_mean0 = float(np.real(np.trace(lz @ rho0)))
    lz2_mean0 = float(np.real(np.trace(lz @ lz @ rho0)))
    saturation = j * (j + 1) / 3
    return _trajectory(tj, basis, table, powers[1] * lz_mean0,
                       powers[2] * lz2_mean0 + (1 - powers[2]) * saturation)


def degrade_via_channel(rho0, channel: Superoperator, steps: int, tol: float = 1e-8) -> Trajectory:
    """Trajectory from explicit channel iteration; the channel must be a
    covariant spin-j -> spin-j map (checked).  The expectations of all iterated
    states come from one batched projection."""
    rho0 = _as_matrix(rho0)
    d = rho0.shape[0]
    if channel.in_dim != d or channel.out_dim != d:
        raise ValueError("channel must act on the frame space")
    tj = d - 1
    rep = SU2Representation.spin(tj / 2)
    residual = superop_covariance_residual(channel, rep, rep)
    if residual > tol:
        raise ValueError(f"channel is not covariant: residual {residual:.3e} > {tol:.1e}")
    lz = angular_momentum(tj / 2).Lz
    states = [rho0]
    for _ in range(steps):
        states.append(apply_superop(channel, states[-1]))
    states = np.array(states)
    basis = tensor_basis_spin_j(tj / 2)
    return _trajectory(tj, basis, basis.coefficients(states),
                       np.real(np.trace(lz @ states, axis1=1, axis2=2)),
                       np.real(np.trace(lz @ lz @ states, axis1=1, axis2=2)))


def misalignment_state(rho, rep: U1Representation, weights: FourierWeights) -> np.ndarray:
    """State relative to a dephased phase reference: sum_k p_{-k} rho^(k)."""
    return weighted_twirl(rho, rep, weights)


def gaussian_weights(delta_theta: float, mean: float = 0.0) -> FourierWeights:
    """Fourier weights of a wrapped Gaussian misalignment, |p_k| = e^{-k^2 dt^2 / 2}."""
    return FourierWeights.gaussian(delta_theta, mean)
