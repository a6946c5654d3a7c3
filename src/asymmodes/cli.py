"""asymmodes command line interface.

Exit codes: 0 = computed, 1 = input error, 2 = computed and the requested
transition/bound is infeasible.  CSV floats carry 17 significant digits so
regenerated files diff byte-identically.  ASYMMODES_TOL overrides the default
tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

import numpy as np

from . import serialize
from .channels import reduce_covariant
from .monotones import distinguish_success_probability, mode_monotone_table
from .rf import degrade_trajectory
from .su2 import tensor_basis_general
from .u1 import U1Representation, mode_spectrum, transition_bound

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _load(path: str):
    try:
        return serialize.load_json(path)
    except FileNotFoundError:
        raise ValueError(f"{path}: no such file")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _default_tol(args) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("ASYMMODES_TOL")
    return float(env) if env else 1e-10


def cmd_u1_decompose(args) -> int:
    tol = _default_tol(args)
    rep = serialize.charges_from_json(_load(args.charges))
    state = serialize.state_from_json(_load(args.state), tol=max(tol, 1e-9))
    spec = mode_spectrum(state.matrix, rep, tol=tol)
    payload = {
        "modes": sorted(spec.norms),
        "norms": {str(k): v for k, v in sorted(spec.norms.items())},
    }
    _emit(serialize.dump_json(payload), args.out)
    return EXIT_OK


def cmd_u1_bound(args) -> int:
    tol = _default_tol(args)
    rep = serialize.charges_from_json(_load(args.charges))
    src = serialize.state_from_json(_load(args.src), tol=max(tol, 1e-9))
    dst = serialize.state_from_json(_load(args.dst), tol=max(tol, 1e-9))
    bound = transition_bound(src.matrix, dst.matrix, rep, tol=tol)
    lines = ["k,bound"]
    for k in sorted(bound.per_mode):
        lines.append(f"{k},{_fmt(bound.per_mode[k])}")
    lines.append(f"overall,{_fmt(bound.overall)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if bound.feasible else EXIT_INFEASIBLE


def cmd_su2_tensor_basis(args) -> int:
    rep = serialize.rep_from_json(_load(args.rep))
    _emit(serialize.dump_json(serialize.basis_to_json(tensor_basis_general(rep))), args.out)
    return EXIT_OK


def cmd_su2_channel_reduce(args) -> int:
    tol = _default_tol(args)
    chan = serialize.channel_from_json(_load(args.channel))
    in_rep = serialize.rep_from_json(_load(args.in_rep))
    out_rep = serialize.rep_from_json(_load(args.out_rep))
    if chan.in_dim != in_rep.dim or chan.out_dim != out_rep.dim:
        raise ValueError(
            f"channel dims ({chan.in_dim} -> {chan.out_dim}) do not match representations "
            f"({in_rep.dim} -> {out_rep.dim})")
    coeffs, residual = reduce_covariant(chan, tensor_basis_general(in_rep),
                                        tensor_basis_general(out_rep), tol=max(tol, 1e-12))
    payload = {
        "residual": residual,
        "coefficients": {
            str(serialize._num(tmu)): [[v.real for v in row] for row in block]
            for tmu, block in sorted(coeffs.mu_blocks.items())
        },
        "coefficients_imag": {
            str(serialize._num(tmu)): [[v.imag for v in row] for row in block]
            for tmu, block in sorted(coeffs.mu_blocks.items())
        },
    }
    _emit(serialize.dump_json(payload), args.out)
    return EXIT_OK


def cmd_su2_monotones(args) -> int:
    tol = _default_tol(args)
    rep = serialize.rep_from_json(_load(args.rep))
    state = serialize.state_from_json(_load(args.state), tol=max(tol, 1e-9))
    if state.dim != rep.dim:
        raise ValueError(f"state dim {state.dim} does not match representation dim {rep.dim}")
    table = mode_monotone_table(state.matrix, rep)
    lines = ["mu,m,F"]
    for (tmu, tm), value in sorted(table.entries.items()):
        lines.append(f"{serialize._num(tmu)},{serialize._num(tm)},{_fmt(value)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_su2_psucc(args) -> int:
    tol = _default_tol(args)
    state = serialize.state_from_json(_load(args.state), tol=max(tol, 1e-9))
    if state.dim != args.twice_j + 1:
        raise ValueError(f"state dim {state.dim} does not match twice-j {args.twice_j}")
    res = distinguish_success_probability(state.matrix, args.twice_j / 2, oracle=args.oracle)
    payload = {"formula": res.formula}
    if res.oracle is not None:
        payload.update({"oracle": res.oracle, "delta": res.delta, "discrepant": res.discrepant})
    _emit(serialize.dump_json(payload), args.out)
    return EXIT_OK


def cmd_rf_degrade(args) -> int:
    tol = _default_tol(args)
    model = serialize.degradation_from_json(_load(args.coeffs))
    state = serialize.state_from_json(_load(args.state), tol=max(tol, 1e-9))
    if state.dim != model.twice_j + 1:
        raise ValueError(f"state dim {state.dim} does not match twice-j {model.twice_j}")
    traj = degrade_trajectory(state.matrix, model, args.steps)
    lines = ["k,mu,m,value"]
    for step in traj.steps:
        for (tmu, tm), v in sorted(step.tensor_expectations.items()):
            lines.append(f"{step.k},{serialize._num(tmu)},{serialize._num(tm)},{_fmt(v.real)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_batch_psi_table(args) -> int:
    from .u1 import mode_monotone
    lines = ["N,k,norm"]
    for n in range(1, args.max_n + 1):
        rep = U1Representation(tuple(range(1, n + 1)))
        psi = np.full(n, 1 / np.sqrt(n), dtype=complex)
        rho = np.outer(psi, psi.conj())
        for k in range(-n, n + 1):
            lines.append(f"{n},{k},{_fmt(mode_monotone(rho, rep, k))}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="numerical tolerance (default 1e-10; env ASYMMODES_TOL)")
    common.add_argument("--out", default=None, help="write output to this file instead of stdout")

    p = argparse.ArgumentParser(prog="asymmodes",
                                description="mode decompositions and asymmetry monotones")
    sub = p.add_subparsers(dest="group", required=True)

    u1 = sub.add_parser("u1").add_subparsers(dest="command", required=True)
    d = u1.add_parser("decompose", parents=[common], help="mode spectrum of a state")
    d.add_argument("--state", required=True)
    d.add_argument("--charges", required=True)
    d.set_defaults(fn=cmd_u1_decompose)
    b = u1.add_parser("bound", parents=[common], help="per-mode transition bounds")
    b.add_argument("--from", dest="src", required=True)
    b.add_argument("--to", dest="dst", required=True)
    b.add_argument("--charges", required=True)
    b.set_defaults(fn=cmd_u1_bound)

    su2 = sub.add_parser("su2").add_subparsers(dest="command", required=True)
    t = su2.add_parser("tensor-basis", parents=[common], help="irreducible tensor operator basis")
    t.add_argument("--rep", required=True)
    t.set_defaults(fn=cmd_su2_tensor_basis)
    r = su2.add_parser("channel-reduce", parents=[common],
                       help="covariant-channel coefficient matrices")
    r.add_argument("--channel", required=True)
    r.add_argument("--in-rep", dest="in_rep", required=True)
    r.add_argument("--out-rep", dest="out_rep", required=True)
    r.set_defaults(fn=cmd_su2_channel_reduce)
    m = su2.add_parser("monotones", parents=[common], help="per-mode monotone table")
    m.add_argument("--state", required=True)
    m.add_argument("--rep", required=True)
    m.set_defaults(fn=cmd_su2_monotones)
    ps = su2.add_parser("psucc", parents=[common],
                        help="frame discrimination success probability")
    ps.add_argument("--state", required=True)
    ps.add_argument("--twice-j", dest="twice_j", type=int, required=True)
    ps.add_argument("--oracle", action="store_true")
    ps.set_defaults(fn=cmd_su2_psucc)

    rf = sub.add_parser("rf").add_subparsers(dest="command", required=True)
    g = rf.add_parser("degrade", parents=[common],
                      help="degradation trajectory from rank coefficients")
    g.add_argument("--state", required=True)
    g.add_argument("--coeffs", required=True)
    g.add_argument("--steps", type=int, required=True)
    g.set_defaults(fn=cmd_rf_degrade)

    batch = sub.add_parser("batch").add_subparsers(dest="command", required=True)
    pt = batch.add_parser("psi-table", parents=[common],
                          help="regenerate the uniform-superposition monotone table")
    pt.add_argument("--max-n", dest="max_n", type=int, default=8)
    pt.set_defaults(fn=cmd_batch_psi_table)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
