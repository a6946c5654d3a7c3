"""Mode decomposition, per-mode monotones, and transition bounds for U(1).

A representation is a list of integer charges n_i, one per basis vector, with
U(theta) = diag(e^{i n_i theta}).  The mode-k component of an operator keeps
exactly the entries whose charge difference n_row - n_col equals k, which is
the exact evaluation of the averaging integral (1/2pi) int dtheta e^{-ik theta}
U(theta) X U(theta)^dag.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .linalg import DEFAULT_TOL, _as_matrix, channel_from_kraus, sector_trace_norms, trace_norm


@dataclass(frozen=True)
class U1Representation:
    charges: tuple

    def __post_init__(self):
        charges = tuple(self.charges)
        if not charges:
            raise ValueError("a U(1) representation needs at least one charge")
        try:
            ints = tuple(int(n) for n in charges)
        except OverflowError as exc:
            raise ValueError(f"charges must be integers: {exc}") from exc
        bad = [n for n, i in zip(charges, ints) if n != i]
        if bad:
            raise ValueError(f"charges must be integers, got {bad}")
        object.__setattr__(self, "charges", ints)

    @property
    def dim(self) -> int:
        return len(self.charges)

    @property
    def spread(self) -> int:
        return max(self.charges) - min(self.charges)

    def unitary(self, theta: float) -> np.ndarray:
        return np.diag(np.exp(1j * theta * np.asarray(self.charges)))

    def charge_diffs(self) -> np.ndarray:
        n = np.asarray(self.charges)
        return n[:, None] - n[None, :]


def _check_dims(x: np.ndarray, rep: U1Representation):
    if x.shape != (rep.dim, rep.dim):
        raise ValueError(f"operator shape {x.shape} does not match representation dim {rep.dim}")


def mode_project(x, rep: U1Representation, k: int) -> np.ndarray:
    """Component of x in mode k (exact index masking on charge differences)."""
    x = _as_matrix(x)
    _check_dims(x, rep)
    return np.where(rep.charge_diffs() == int(k), x, 0.0)


def mode_project_dft(x, rep: U1Representation, k: int, n_samples: int | None = None) -> np.ndarray:
    """Cross-check oracle: discrete quadrature of the averaging integral.

    Exact for n_samples >= 2*spread + 1 because the integrand is band-limited.
    """
    x = _as_matrix(x)
    _check_dims(x, rep)
    L = n_samples or (2 * rep.spread + 1)
    out = np.zeros_like(x)
    for i in range(L):
        theta = 2 * np.pi * i / L
        u = rep.unitary(theta)
        out += np.exp(-1j * k * theta) * (u @ x @ u.conj().T)
    return out / L


def mode_norms(x, rep: U1Representation) -> np.ndarray:
    """Trace norms ||x^(k)|| at index k + spread, k = -spread..spread (linalg.sector_trace_norms)."""
    return sector_trace_norms(_as_matrix(x), rep.charges)


def modes_of(x, rep: U1Representation, tol: float = DEFAULT_TOL) -> set:
    """Set of modes k with ||x^(k)|| above tol."""
    ks = range(-rep.spread, rep.spread + 1)
    return {k for k, nrm in zip(ks, mode_norms(x, rep).tolist()) if nrm > tol}


class _ModeComponents(Mapping):
    """Read-only {k: x^(k)} over the listed modes; each component is built by
    mode_project when it is read, from a private copy of x."""

    def __init__(self, x: np.ndarray, rep: U1Representation, modes):
        self._x = x.copy()
        self._rep = rep
        self._modes = dict.fromkeys(modes)

    def __getitem__(self, k) -> np.ndarray:
        if k not in self._modes:
            raise KeyError(k)
        return mode_project(self._x, self._rep, k)

    def __iter__(self):
        return iter(self._modes)

    def __len__(self) -> int:
        return len(self._modes)


@dataclass(frozen=True)
class U1ModeSpectrum:
    components: Mapping
    norms: dict

    def modes(self, tol: float = DEFAULT_TOL) -> set:
        return {k for k, v in self.norms.items() if v > tol}


def mode_spectrum(x, rep: U1Representation, tol: float = 0.0) -> U1ModeSpectrum:
    """Norms of the modes above tol; their components are built when read."""
    x = _as_matrix(x)
    ks = range(-rep.spread, rep.spread + 1)
    norms = {k: nrm for k, nrm in zip(ks, mode_norms(x, rep).tolist()) if nrm > tol}
    return U1ModeSpectrum(_ModeComponents(x, rep, norms), norms)


def mode_monotone(rho, rep: U1Representation, k: int) -> float:
    """Trace norm of the mode-k component, ||rho^(k)||."""
    return trace_norm(mode_project(rho, rep, k))


class FourierWeights:
    """Fourier coefficients p_k = int dtheta p(theta) e^{-i k theta} of a
    probability density over the circle."""

    def __init__(self, coefficient_fn: Callable[[int], complex], tol: float = 1e-9):
        p0 = complex(coefficient_fn(0))
        if abs(p0 - 1.0) > tol:
            raise ValueError(f"p_0 = {p0} must equal 1 for a probability density")
        self._fn = coefficient_fn

    def coefficient(self, k: int) -> complex:
        return complex(self._fn(int(k)))

    @classmethod
    def from_map(cls, coefficients: dict) -> "FourierWeights":
        table = {int(k): complex(v) for k, v in coefficients.items()}
        return cls(lambda k: table.get(k, 0.0))

    @classmethod
    def uniform(cls) -> "FourierWeights":
        return cls(lambda k: 1.0 if k == 0 else 0.0)

    @classmethod
    def delta(cls, theta0: float = 0.0) -> "FourierWeights":
        return cls(lambda k: np.exp(-1j * k * theta0))

    @classmethod
    def from_point_masses(cls, angles, weights) -> "FourierWeights":
        angles = np.asarray(angles, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if abs(weights.sum() - 1.0) > 1e-9 or (weights < 0).any():
            raise ValueError("point masses must be nonnegative and sum to 1")
        return cls(lambda k: complex(np.sum(weights * np.exp(-1j * k * angles))))

    @classmethod
    def gaussian(cls, delta_theta: float, mean: float = 0.0) -> "FourierWeights":
        """Wrapped Gaussian with standard deviation delta_theta: |p_k| = e^{-k^2 dt^2/2}."""
        return cls(lambda k: np.exp(-1j * k * mean - 0.5 * (k * delta_theta) ** 2))

    @classmethod
    def from_samples(cls, thetas, pdf_values):
        """Trapezoidal p_k from a sampled density on [0, 2pi]; returns
        (weights, normalization_error)."""
        thetas = np.asarray(thetas, dtype=float)
        pdf = np.asarray(pdf_values, dtype=float)
        norm = np.trapezoid(pdf, thetas)
        err = abs(norm - 1.0)
        pdf = pdf / norm

        def fn(k):
            return complex(np.trapezoid(pdf * np.exp(-1j * k * thetas), thetas))

        return cls(fn), err


def weighted_twirl(rho, rep: U1Representation, weights: FourierWeights) -> np.ndarray:
    """sigma = sum_k p_{-k} rho^(k), the state after averaging over U(theta)
    with density p; entry-wise this is rho_{rc} * p_{-(n_r - n_c)}."""
    rho = _as_matrix(rho)
    _check_dims(rho, rep)
    ks, inverse = _diff_classes(rep.charges)
    lut = np.array([weights.coefficient(-k) for k in ks])
    return lut[inverse] * rho


@lru_cache(maxsize=32)
def _diff_classes(charges: tuple) -> tuple:
    """The distinct charge differences n_r - n_c, as ints, and the (d, d) index of
    each entry's difference among them; built once per charges, read-only."""
    n = np.asarray(charges)
    ks, inverse = np.unique(n[:, None] - n[None, :], return_inverse=True)
    inverse = inverse.reshape(len(n), len(n))
    inverse.flags.writeable = False
    return tuple(ks.tolist()), inverse


@dataclass(frozen=True)
class TransitionBound:
    """Per-mode upper bounds on the success probability of rho -> sigma under
    a U(1)-covariant operation, plus their minimum."""

    per_mode: dict
    overall: float

    @property
    def feasible(self) -> bool:
        return self.overall > 0.0


def transition_bound(rho, sigma, rep: U1Representation, tol: float = DEFAULT_TOL) -> TransitionBound:
    """Bounds p ||sigma^(k)|| <= ||rho^(k)||, capped at 1, for every mode of
    sigma above tol.  If sigma has a mode that rho lacks, the overall bound is 0."""
    ks = range(-rep.spread, rep.spread + 1)
    per = {k: 0.0 if nr <= tol else min(1.0, nr / ns)
           for k, nr, ns in zip(ks, mode_norms(rho, rep).tolist(), mode_norms(sigma, rep).tolist())
           if ns > tol}
    return TransitionBound(per, min(per.values(), default=1.0))


def ensemble_bound(rho, ensemble, rep: U1Representation, tol: float = DEFAULT_TOL):
    """Residuals ||rho^(k)|| - sum_i p_i ||sigma_i^(k)|| for a state-to-ensemble
    transition; feasible iff all residuals >= -tol.  Returns (residuals, feasible)."""
    probs = [p for _, p in ensemble]
    if any(p < 0 for p in probs) or sum(probs) > 1 + 1e-9:
        raise ValueError("ensemble probabilities must be nonnegative with sum <= 1")
    ks = range(-rep.spread, rep.spread + 1)
    r = mode_norms(rho, rep)
    s = sum((p * mode_norms(sig, rep) for sig, p in ensemble), np.zeros_like(r))
    residuals = {k: rk - sk for k, rk, sk in zip(ks, r.tolist(), s.tolist()) if rk > tol or sk > tol}
    feasible = all(v >= -tol for v in residuals.values())
    return residuals, feasible


def joint_mode_component(rho1, rep1: U1Representation, rho2, rep2: U1Representation, j: int) -> np.ndarray:
    """(rho1 x rho2)^(j) = sum_k rho1^(k) x rho2^(j-k)."""
    rho1, rho2 = _as_matrix(rho1), _as_matrix(rho2)
    _check_dims(rho1, rep1)
    _check_dims(rho2, rep2)
    return mode_project(np.kron(rho1, rho2), joint_representation(rep1, rep2), j)


def joint_representation(rep1: U1Representation, rep2: U1Representation) -> U1Representation:
    return U1Representation(tuple(n1 + n2 for n1 in rep1.charges for n2 in rep2.charges))


@dataclass(frozen=True)
class CoherentState:
    """Truncated, re-normalized coherent-state amplitudes in the number basis."""

    amplitudes: np.ndarray
    tail: float
    truncation_ok: bool

    @property
    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    @property
    def representation(self) -> U1Representation:
        return U1Representation(tuple(range(len(self.amplitudes))))


def default_fock_cutoff(alpha: complex) -> int:
    a = abs(alpha)
    return max(1, math.ceil(a * a + 10 * a))


def coherent_state(alpha: complex, n_max: int | None = None) -> CoherentState:
    """|alpha> = e^{-|alpha|^2/2} sum_n alpha^n/sqrt(n!) |n> truncated at n_max.

    The discarded tail probability is reported; truncation_ok is False when it
    exceeds 1e-2.
    """
    if n_max is None:
        n_max = default_fock_cutoff(alpha)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n = np.arange(n_max + 1)
    if alpha == 0:
        amps = np.zeros(n_max + 1, dtype=complex)
        amps[0] = 1.0
        return CoherentState(amps, 0.0, True)
    logmod = -abs(alpha) ** 2 / 2 + n * np.log(abs(alpha)) - 0.5 * np.array([math.lgamma(v + 1) for v in n])
    phase = np.exp(1j * n * np.angle(alpha))
    amps = np.exp(logmod) * phase
    kept = float(np.sum(np.abs(amps) ** 2))
    tail = max(0.0, 1.0 - kept)
    amps = amps / np.sqrt(kept)
    return CoherentState(amps, tail, tail <= 1e-2)


def pure_mode_norm(psi, k: int) -> float:
    """sum_n |psi_{n+k}||psi_n| for amplitudes on consecutive charges."""
    psi = np.abs(np.asarray(psi, dtype=complex).reshape(-1))
    k = abs(int(k))
    if k >= psi.size:
        return 0.0
    return float(np.add.reduce(psi[k:] * psi[: psi.size - k]))


def amplifier_envelope(alpha: complex, alpha_prime: complex, k: int) -> float:
    """Term-wise envelope e^{-(|a|^2-|a'|^2)} (|a|/|a'|)^k on the mode-k bound
    for a coherent |alpha> -> |alpha'> transition."""
    a, b = abs(alpha), abs(alpha_prime)
    return math.exp(-(a * a - b * b)) * (a / b) ** k


def alignment_accessible_state(tau, rep_rf: U1Representation, rho, rep_s: U1Representation,
                               weights: FourierWeights) -> np.ndarray:
    """State of frame+system accessible without a shared phase reference:
    sum_{k1,k2} p_{-k1} tau^(-k2) x rho^(k1+k2); equals the weighted twirl of
    tau x rho under the joint representation."""
    tau, rho = _as_matrix(tau), _as_matrix(rho)
    _check_dims(tau, rep_rf)
    _check_dims(rho, rep_s)
    joint = joint_representation(rep_rf, rep_s)
    return weighted_twirl(np.kron(tau, rho), joint, weights)


def _covariant_kraus(rep: U1Representation, rng: np.random.Generator, n: int) -> list:
    """n groups of Kraus operators: each group is one random operator split
    into its modes (each piece sits in a single mode, hence is covariant), all
    normalized to be trace preserving together by an invariant pre-correction."""
    d = rep.dim
    diffs = rep.charge_diffs()
    groups = []
    for _ in range(n):
        k = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        groups.append([np.where(diffs == mode, k, 0.0) for mode in np.unique(diffs)])
    s = sum(p.conj().T @ p for pieces in groups for p in pieces)
    w, v = np.linalg.eigh(s)
    corr = (v / np.sqrt(w)) @ v.conj().T
    return [[p @ corr for p in pieces] for pieces in groups]


def random_covariant_channel(rep: U1Representation, rng: np.random.Generator, n_kraus: int = 2):
    """Random U(1)-covariant channel built from n_kraus mode-split random Kraus operators."""
    return channel_from_kraus([p for pieces in _covariant_kraus(rep, rng, n_kraus) for p in pieces])


def random_covariant_instrument(rep: U1Representation, rng: np.random.Generator, n_outcomes: int = 2):
    """List of covariant CP maps (one per flagged outcome) summing to a channel."""
    return [channel_from_kraus(pieces) for pieces in _covariant_kraus(rep, rng, n_outcomes)]
