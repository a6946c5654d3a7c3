"""Phase-reference misalignment: which modes survive a noisy frame.

For a Gaussian phase uncertainty of width delta-theta, the mode-k component of
any state is damped by |p_k| = e^{-k^2 dt^2/2}.  The script tabulates the
surviving per-mode monotones of a uniform-superposition probe state and the
discrimination handicap for a probe whose information lives in mode k0 when
the shared frame lacks that mode entirely.

    python scripts/frame_alignment_demo.py --dim 6 --k0 2
"""

import argparse
from dataclasses import dataclass

import numpy as np

from asymmodes import (
    FourierWeights,
    U1Representation,
    alignment_accessible_state,
    gaussian_weights,
    mode_norms,
    weighted_twirl,
)


@dataclass
class Config:
    dim: int
    k0: int
    widths: tuple


def run(cfg: Config) -> None:
    rep = U1Representation(tuple(range(cfg.dim)))
    psi = np.full(cfg.dim, 1 / np.sqrt(cfg.dim), dtype=complex)
    rho = np.outer(psi, psi.conj())

    print("delta_theta," + ",".join(f"F_{k}" for k in range(cfg.dim)))
    for dt in cfg.widths:
        blurred = weighted_twirl(rho, rep, gaussian_weights(dt))
        row = ",".join(f"{v:.6f}" for v in mode_norms(blurred, rep)[rep.spread:])
        print(f"{dt},{row}")

    # a qubit frame |0>+|1> has no mode k0 >= 2: the accessible joint state is
    # independent of a phase written into mode k0 of the system
    rep_rf = U1Representation((0, 1))
    tau = np.full((2, 2), 0.5, dtype=complex)
    rep_s = U1Representation(tuple(range(cfg.k0 + 1)))

    def probe(phi):
        v = np.zeros(cfg.k0 + 1, dtype=complex)
        v[0] = 1 / np.sqrt(2)
        v[cfg.k0] = np.exp(1j * phi) / np.sqrt(2)
        return alignment_accessible_state(tau, rep_rf, np.outer(v, v.conj()), rep_s,
                                          FourierWeights.uniform())

    spread = max(np.abs(probe(0.0) - probe(phi)).max() for phi in (0.7, 1.9, 3.1))
    print(f"# accessible-state dependence on a mode-{cfg.k0} phase through a "
          f"qubit frame: {spread:.2e} (frame carries modes 0,+-1 only)")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dim", type=int, default=6)
    ap.add_argument("--k0", type=int, default=2)
    ap.add_argument("--widths", type=float, nargs="+", default=[0.0, 0.05, 0.2, 0.5, 1.0])
    args = ap.parse_args()
    run(Config(args.dim, args.k0, tuple(args.widths)))


if __name__ == "__main__":
    main()
