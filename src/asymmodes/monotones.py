"""Per-mode asymmetry monotones F_{mu,m}(rho) = ||rho^(mu,m)||_1, spin-j closed
forms, the reference-frame discrimination figure of merit, and simulation
parameter-count reports.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import _as_matrix, sector_trace_norms, trace_norm
from .su2 import (
    HalfInteger,
    SU2Representation,
    _operator,
    _overlaps,
    _twice,
    angular_momentum,
    axial_twirl,
    axis_to_euler,
    decompose,
    tensor_basis_for,
    tensor_basis_spin_j,
    twirl_state,
    wigner_D,
)


@dataclass(frozen=True)
class ModeMonotoneTable:
    """Trace norms of the (mu,m) projections of a state."""

    entries: dict  # (twice_mu, twice_m) -> float

    def value(self, mu, m) -> float:
        return self.entries[(_twice(mu), _twice(m))]

    def nonzero(self, tol: float = 1e-10) -> set:
        return {k for k, v in self.entries.items() if v > tol}


def mode_monotone_table(rho, rep, max_rank=None) -> ModeMonotoneTable:
    """||rho^(mu,m)||_1 of every mode in the block form.  A single irrep has one row
    per mode, so the entry is |tr(T^dag rho)| ||T||_1 (closed form); otherwise one
    sector_trace_norms call, as the (mu,m) component maps Lz sector M to M + m
    (sector block).  Labels sort by rank, so max_rank projects only a row prefix."""
    w, block = decompose(rep).block_form()
    frame = tensor_basis_for(block)
    rho = _operator(_as_matrix(rho), w.shape)
    rows = None if max_rank is None else bisect_left(frame.labels, (_twice(max_rank) + 1,))
    x = w.conj().T @ rho @ w
    if frame.mode_starts is None:
        values = np.abs(_overlaps(frame.stack[:rows], x)) * frame.row_trace_norms[:rows]
    else:
        norms = sector_trace_norms(frame.mode_stack(x, rows), block.twice_m)
        values = [row[tm + len(row) // 2] for (_, tm), row in zip(frame.modes, norms)]
    return ModeMonotoneTable(dict(zip(frame.modes, map(float, values))))


def spin_j_mode_monotone(rho, j, mu, m) -> float:
    """Multiplicity-free closed form tr(sqrt(T T^dag)) |tr(T rho)|."""
    basis, label = tensor_basis_spin_j(j), (_twice(mu), _twice(m), 0)
    t, norm = basis.ops[label], basis.row_trace_norms[bisect_left(basis.labels, label)]
    return float(norm) * abs(complex(np.trace(t @ _as_matrix(rho))))


def ensemble_bound_g(rho, ensemble, rep, tol: float = 1e-10):
    """Residuals ||rho^(mu,m)|| - sum_i p_i ||sigma_i^(mu,m)||; feasibility of a
    covariant state-to-ensemble transition requires all >= -tol.
    Returns (residuals, feasible)."""
    probs = [p for _, p in ensemble]
    if any(p < 0 for p in probs) or sum(probs) > 1 + 1e-9:
        raise ValueError("ensemble probabilities must be nonnegative with sum <= 1")
    table_rho = mode_monotone_table(rho, rep)
    tables = [(mode_monotone_table(sig, rep), p) for sig, p in ensemble]
    residuals = {mode: r - sum(p * t.entries[mode] for t, p in tables)
                 for mode, r in table_rho.entries.items()}
    return residuals, all(v >= -tol for v in residuals.values())


def _single_spin_state(rho, j) -> np.ndarray:
    rho = _as_matrix(rho)
    dim = _twice(j) + 1
    if rho.shape != (dim, dim):
        raise ValueError(f"state shape {rho.shape} is not a single spin-{HalfInteger(_twice(j))} block")
    return rho


def _rotate_axis_to_z(rho, j, axis):
    rho = _single_spin_state(rho, j)
    if tuple(np.asarray(axis, dtype=float)) == (0.0, 0.0, 1.0):
        return rho
    alpha, beta = axis_to_euler(axis)
    u = wigner_D(j, alpha, beta, 0.0)
    return u.conj().T @ rho @ u


def angular_momentum_monotone(rho, j, axis=(0.0, 0.0, 1.0)) -> float:
    """||rho^(1,0)|| along the given axis via the closed forms
    (3/2)|<L_n>|/(j+1/2) for integer j and (3/2)|<L_n>|(j+1/2)/(j(j+1)) for
    half-integer j; bounded by 3/2."""
    tj = _twice(j)
    if tj == 0:
        return 0.0
    jj = tj / 2
    rot = _rotate_axis_to_z(rho, j, axis)
    lz_mean = abs(float(np.real(np.trace(angular_momentum(j).Lz @ rot))))
    if tj % 2 == 0:
        return 1.5 * lz_mean / (jj + 0.5)
    return 1.5 * lz_mean * (jj + 0.5) / (jj * (jj + 1))


def second_moment_monotone(rho, j, axis=(0.0, 0.0, 1.0)) -> float:
    """|<L_n^2> - j(j+1)/3|, the rank-2 m=0 monotone up to normalization."""
    jj = _twice(j) / 2
    rot = _rotate_axis_to_z(rho, j, axis)
    lz = angular_momentum(j).Lz
    return abs(float(np.real(np.trace(lz @ lz @ rot))) - jj * (jj + 1) / 3)


# ---------------------------------------------------------------------------
# distinguishing the two sigma_z eigenstates with a spin-j frame
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PsuccResult:
    formula: float
    oracle: float | None = None
    delta: float | None = None
    discrepant: bool = False

    @property
    def value(self) -> float:
        return self.formula


@lru_cache(maxsize=32)
def _half_coupled(tj: int):
    """Spin-1/2 x spin-j as irrep isometries, coupled by Clebsch-Gordan coefficients."""
    return decompose(SU2Representation.spin(0.5)).tensor(decompose(SU2Representation.spin(tj / 2)))


def _psucc_twirl_oracle(rho, j) -> float:
    """Helstrom value over invariant measurements: 1/2 + (1/4)||G(sigma_z x rho)||_1,
    the twirl G being linear, with G the exact twirl on spin-1/2 x spin-j."""
    dec = _half_coupled(_twice(j))
    sigma_z = np.diag([1.0, -1.0]).astype(complex)
    return 0.5 + 0.25 * trace_norm(twirl_state(np.kron(sigma_z, _as_matrix(rho)), dec))


def distinguish_success_probability(rho, j, oracle: bool = False, tol: float = 1e-8) -> PsuccResult:
    """Max success probability of telling |1/2,+1/2> from |1/2,-1/2> (equal
    priors) with invariant measurements and the spin-j frame rho:
    p = (1/2)[1 + |tr(rho Lz)|/(j+1/2)].

    With oracle=True the twirl-based Helstrom value is computed independently;
    disagreement beyond tol is flagged rather than resolved.
    """
    jj = _twice(j) / 2
    rho = _single_spin_state(rho, j)
    lz_mean = abs(float(np.real(np.trace(angular_momentum(j).Lz @ rho))))
    formula = 0.5 * (1 + lz_mean / (jj + 0.5))
    if not oracle:
        return PsuccResult(formula)
    val = _psucc_twirl_oracle(rho, j)
    delta = abs(val - formula)
    return PsuccResult(formula, val, delta, delta > tol)


# ---------------------------------------------------------------------------
# parameter-count reports for simulation tasks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationParameterReport:
    """Which real parameters of a spin-j frame state matter for simulating a
    measurement/channel on a system whose largest irrep is l."""

    l: HalfInteger
    task: str
    axial: bool
    count: int
    values: tuple
    labels: tuple


def _task_cap(l, task) -> int:
    tl = _twice(l)
    if task == "measurement":
        return 2 * tl   # twice of 2l
    if task == "channel":
        return 4 * tl   # twice of 4l
    raise ValueError("task must be 'measurement' or 'channel'")


def simulation_parameter_report(rho, j, l, task: str, axial_axis=None) -> SimulationParameterReport:
    """General case: expectations of all tensor operators with rank <= 2l (4l);
    axially symmetric case: moments tr(rho L_n^k), k <= 2l (4l).  Ranks above
    2j do not exist on the frame and are omitted from the values."""
    rho = _single_spin_state(rho, j)
    tl = _twice(l)
    tj = _twice(j)
    tcap = _task_cap(l, task)
    count = (tcap // 2 + 1) ** 2 - 1 if axial_axis is None else tcap // 2
    values, labels = [], []
    if axial_axis is not None:
        rot = _rotate_axis_to_z(rho, j, axial_axis)
        lz = angular_momentum(j).Lz
        power = np.eye(tj + 1, dtype=complex)
        for k in range(1, tcap // 2 + 1):
            power = power @ lz
            values.append(float(np.real(np.trace(power @ rot))))
            labels.append(f"<L_n^{k}>")
    else:
        basis = tensor_basis_spin_j(j)
        expectations = dict(zip(basis.labels, basis.coefficients(rho)))
        for tmu in range(2, min(tcap, 2 * tj) + 1, 2):
            for im in range(tmu + 1):
                tm = tmu - 2 * im
                ev = complex(expectations[(tmu, tm, 0)])
                if tm == 0:
                    values.append(ev.real)
                    labels.append(f"Re tr(rho T({tmu // 2},0)^dag)")
                elif tm > 0:
                    values.extend([ev.real, ev.imag])
                    labels.extend([
                        f"Re tr(rho T({tmu // 2},{tm // 2})^dag)",
                        f"Im tr(rho T({tmu // 2},{tm // 2})^dag)",
                    ])
    return SimulationParameterReport(HalfInteger(tl), task, axial_axis is not None,
                                     count, tuple(values), tuple(labels))


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    max_delta: float
    task: str


def equal_moment_equivalence_check(rho1, rho2, j, l, task: str, axial_axis=None,
                                   tol: float = 1e-9) -> EquivalenceVerdict:
    """Two frame states simulate the same measurements/channels on a spin-l
    system iff all their reported parameters agree."""
    r1 = simulation_parameter_report(rho1, j, l, task, axial_axis)
    r2 = simulation_parameter_report(rho2, j, l, task, axial_axis)
    delta = max((abs(a - b) for a, b in zip(r1.values, r2.values)), default=0.0)
    return EquivalenceVerdict(delta <= tol, float(delta), task)


def axial_symmetrization(rho, j, axis=(0.0, 0.0, 1.0)) -> np.ndarray:
    """The axially symmetric state with the same invariant moments as rho."""
    return axial_twirl(rho, j, axis)


def trace_sqrt_lz_sq(j) -> float:
    """tr(sqrt(Lz^2)) = j(j+1) for integer j and (j+1/2)^2 for half-integer j."""
    tj = _twice(j)
    jj = tj / 2
    return jj * (jj + 1) if tj % 2 == 0 else (jj + 0.5) ** 2
