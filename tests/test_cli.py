import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import asymmodes
from asymmodes import serialize, u1
from asymmodes.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden" / "psi_monotones.csv"


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def workspace(tmp_path):
    files = {}
    diag = np.diag([0.5, 0.3, 0.2]).astype(complex)
    files["diag"] = write_json(tmp_path / "diag.json", serialize.matrix_to_json(diag))
    psi = np.ones(3, dtype=complex) / np.sqrt(3)
    files["coh"] = write_json(tmp_path / "coh.json", serialize.matrix_to_json(np.outer(psi, psi)))
    files["charges"] = write_json(tmp_path / "charges.json", {"charges": [0, 1, 2]})
    files["rep1"] = write_json(tmp_path / "rep1.json", {"blocks": [{"twice_j": 2, "mult": 1}]})
    files["rephalf"] = write_json(tmp_path / "rephalf.json", {"blocks": [{"twice_j": 1, "mult": 1}]})
    files["up1"] = write_json(tmp_path / "up1.json",
                              serialize.matrix_to_json(np.diag([1.0, 0, 0]).astype(complex)))
    files["uphalf"] = write_json(tmp_path / "uphalf.json",
                                 serialize.matrix_to_json(np.diag([1.0, 0]).astype(complex)))
    files["chan"] = write_json(tmp_path / "chan.json",
                               {"kraus": [serialize.matrix_to_json(np.eye(2))]})
    files["coeffs"] = write_json(tmp_path / "coeffs.json",
                                 {"twice_j": 2, "coefficients": {"0": 1.0, "1": 0.9, "2": 0.5}})
    files["dir"] = tmp_path
    return files


def test_decompose_diagonal(workspace, capsys):
    rc = main(["u1", "decompose", "--state", workspace["diag"], "--charges", workspace["charges"]])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["modes"] == [0]
    assert payload["norms"]["0"] == pytest.approx(1.0)


def test_bound_feasible_and_infeasible(workspace, capsys):
    rc = main(["u1", "bound", "--from", workspace["coh"], "--to", workspace["diag"],
               "--charges", workspace["charges"]])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "k,bound"

    rc = main(["u1", "bound", "--from", workspace["diag"], "--to", workspace["coh"],
               "--charges", workspace["charges"]])
    out = capsys.readouterr().out
    assert rc == 2
    assert out.splitlines()[-1] == "overall,0"


def test_tensor_basis_roundtrip(workspace, capsys):
    out_file = workspace["dir"] / "basis.json"
    rc = main(["su2", "tensor-basis", "--rep", workspace["rep1"], "--out", str(out_file)])
    assert rc == 0
    payload = json.loads(out_file.read_text())
    assert len(payload) == 9
    from asymmodes import tensor_basis_general, SU2Representation
    basis = tensor_basis_general(SU2Representation(((2, 1),)))
    for entry in payload:
        mat = serialize.matrix_from_json(entry["matrix"])
        ref = basis.op(entry["mu"], entry["m"], entry["alpha"])
        assert np.abs(mat - ref).max() < 1e-15


def test_channel_reduce(workspace, capsys):
    rc = main(["su2", "channel-reduce", "--channel", workspace["chan"],
               "--in-rep", workspace["rephalf"], "--out-rep", workspace["rephalf"]])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual"] < 1e-10
    assert payload["coefficients"]["0"][0][0] == pytest.approx(1.0)
    assert payload["coefficients"]["1"][0][0] == pytest.approx(1.0)


def test_monotones_csv(workspace, capsys):
    rc = main(["su2", "monotones", "--state", workspace["up1"], "--rep", workspace["rep1"]])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "mu,m,F"
    values = {(row.split(",")[0], row.split(",")[1]): float(row.split(",")[2])
              for row in lines[1:]}
    assert values[("1", "0")] == pytest.approx(1.0)
    assert values[("2", "0")] == pytest.approx(2 / 3)


def test_psucc(workspace, capsys):
    rc = main(["su2", "psucc", "--state", workspace["uphalf"], "--twice-j", "1", "--oracle"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["formula"] == pytest.approx(0.75)
    assert payload["oracle"] == pytest.approx(0.75, abs=1e-10)
    assert not payload["discrepant"]


def test_degrade_csv(workspace, capsys):
    rc = main(["rf", "degrade", "--state", workspace["up1"], "--coeffs", workspace["coeffs"],
               "--steps", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,mu,m,value"
    rows = {}
    for row in lines[1:]:
        k, mu, m, value = row.split(",")
        rows[(int(k), mu, m)] = float(value)
    assert rows[(2, "1", "0")] == pytest.approx(0.81 * rows[(0, "1", "0")])
    assert rows[(1, "2", "0")] == pytest.approx(0.5 * rows[(0, "2", "0")])


@pytest.mark.parametrize("args", [
    ["u1", "decompose", "--state", "coh", "--charges", "charges"],
    ["u1", "decompose", "--state", "diag", "--charges", "charges"],
    ["su2", "tensor-basis", "--rep", "rep1"],
    ["su2", "channel-reduce", "--channel", "chan", "--in-rep", "rephalf", "--out-rep", "rephalf"],
    ["su2", "psucc", "--state", "uphalf", "--twice-j", "1", "--oracle"],
], ids=lambda args: " ".join(args[:2]) + (" --oracle" if "--oracle" in args else ""))
def test_json_stdout_has_the_layout_of_json_dumps(workspace, capsys, args):
    rc = main([workspace.get(arg, arg) for arg in args])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_determinism(workspace, capsys):
    args = ["u1", "decompose", "--state", workspace["coh"], "--charges", workspace["charges"]]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


def test_golden_psi_table_regenerates_byte_identical(workspace):
    out_file = workspace["dir"] / "psi.csv"
    rc = main(["batch", "psi-table", "--max-n", "8", "--out", str(out_file)])
    assert rc == 0
    assert out_file.read_bytes() == GOLDEN.read_bytes()


def test_malformed_json_exit_code(workspace, capsys):
    bad = workspace["dir"] / "bad.json"
    bad.write_text("{not json\n")
    rc = main(["u1", "decompose", "--state", str(bad), "--charges", workspace["charges"]])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 1" in err and "column" in err

    rc = main(["u1", "decompose", "--state", str(workspace["dir"] / "missing.json"),
               "--charges", workspace["charges"]])
    assert rc == 1


def test_invalid_state_exit_code(workspace, capsys):
    not_state = workspace["dir"] / "notstate.json"
    not_state.write_text(json.dumps(serialize.matrix_to_json(np.diag([0.9, 0.3, 0.1]))))
    rc = main(["u1", "decompose", "--state", str(not_state), "--charges", workspace["charges"]])
    assert rc == 1
    assert "trace" in capsys.readouterr().err


def test_tol_env_override(workspace, capsys, monkeypatch):
    monkeypatch.setenv("ASYMMODES_TOL", "0.7")
    rc = main(["u1", "decompose", "--state", workspace["coh"], "--charges", workspace["charges"]])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["modes"] == [0]   # huge tolerance hides the off-diagonal modes (norm 2/3)


def test_decompose_rejects_non_integer_charges(workspace, capsys):
    half = write_json(workspace["dir"] / "half.json", {"charges": [0, 1.5]})
    rc = main(["u1", "decompose", "--state", workspace["uphalf"], "--charges", half])
    assert rc == 1
    assert "malformed charges object" in capsys.readouterr().err


@pytest.mark.parametrize("blocks", [[{"twice_j": 2.5, "mult": 1}], [{"twice_j": "4", "mult": 1}],
                                    [{"twice_j": 2, "mult": 1.9}], [{"twice_j": 10**400, "mult": 1}], []])
def test_tensor_basis_rejects_malformed_blocks(workspace, capsys, blocks):
    bad = write_json(workspace["dir"] / "bad_rep.json", {"blocks": blocks})
    rc = main(["su2", "tensor-basis", "--rep", bad])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "malformed representation object" in captured.err


def test_decompose_builds_no_mode_components(tmp_path, capsys, monkeypatch):
    calls = []
    project = u1.mode_project
    monkeypatch.setattr(u1, "mode_project", lambda *args: calls.append(args[2]) or project(*args))
    coh = u1.coherent_state(3.0, 100)
    state = write_json(tmp_path / "coh100.json", serialize.matrix_to_json(coh.density))
    charges = write_json(tmp_path / "fock100.json", serialize.charges_to_json(coh.representation))
    rc = main(["u1", "decompose", "--state", state, "--charges", charges])
    assert rc == 0
    assert len(json.loads(capsys.readouterr().out)["modes"]) > 50
    assert calls == []


@pytest.mark.parametrize("kind", ["pure", "ggd"])
def test_u1_commands_on_degenerate_charges(tmp_path, capsys, monkeypatch, kind):
    # the two-mode (3,3) representation has sectors of 1, 2, 3, 4, 3, 2, 1 states: a pure
    # state takes the shared-factor test, g g^dag the SVDs of its blocks over 2x2
    monkeypatch.delenv("ASYMMODES_TOL", raising=False)
    rep = u1.joint_representation(u1.U1Representation(range(4)), u1.U1Representation(range(4)))
    a, b = (u1.coherent_state(0.8 * np.exp(1j * phase), 3).amplitudes for phase in (0.4, 1.1))
    psi = np.kron(a, b) / np.linalg.norm(np.kron(a, b))
    g = np.random.default_rng(71).normal(size=(16, 16, 2)) @ [1, 1j]
    states = {"pure": np.outer(psi, psi.conj()), "ggd": g @ g.conj().T / np.trace(g @ g.conj().T)}
    x = states[kind]
    mats = {"x": x, "other": states["ggd" if kind == "pure" else "pure"],
            "dephased": np.where(rep.charge_diffs() == 0, x, 0)}
    files = {name: write_json(tmp_path / f"{name}.json", serialize.matrix_to_json(m)) for name, m in mats.items()}
    charges = write_json(tmp_path / "charges.json", serialize.charges_to_json(rep))

    assert main(["u1", "decompose", "--state", files["x"], "--charges", charges]) == 0
    printed, spectrum = json.loads(capsys.readouterr().out), u1.mode_spectrum(x, rep, tol=1e-10)
    assert printed["modes"] == sorted(spectrum.norms) == list(range(-6, 7))
    assert {int(k): v for k, v in printed["norms"].items()} == spectrum.norms

    for src, dst, code in (("x", "other", 0), ("dephased", "x", 2)):  # the dephased state lacks modes k != 0
        rc = main(["u1", "bound", "--from", files[src], "--to", files[dst], "--charges", charges])
        lines = capsys.readouterr().out.splitlines()
        bound = u1.transition_bound(mats[src], mats[dst], rep)
        assert rc == code == (0 if bound.feasible else 2)
        assert lines[0] == "k,bound" and lines[-1] == f"overall,{bound.overall:.17g}"
        assert {int(k): float(v) for k, v in (line.split(",") for line in lines[1:-1])} == bound.per_mode


def test_mismatched_dims_exit_code(workspace, capsys):
    rc = main(["su2", "monotones", "--state", workspace["uphalf"], "--rep", workspace["rep1"]])
    assert rc == 1


def test_serialize_roundtrip_and_errors():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    assert np.array_equal(serialize.matrix_from_json(serialize.matrix_to_json(a)), a)
    with pytest.raises(ValueError):
        serialize.matrix_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})
    with pytest.raises(ValueError):
        serialize.channel_from_json({"neither": 1})
    rep = serialize.rep_from_json({"blocks": [{"twice_j": 3, "mult": 2}]})
    assert serialize.rep_to_json(rep) == {"blocks": [{"twice_j": 3, "mult": 2}]}


def test_parser_built_once_and_reused_across_calls(workspace, capsys, monkeypatch):
    assert build_parser() is build_parser()
    runs = [  # (argv, ASYMMODES_TOL or None)
        (["u1", "decompose", "--state", workspace["coh"], "--charges", workspace["charges"]], None),
        (["u1", "decompose", "--state", workspace["coh"], "--charges", workspace["charges"]], "0.5"),
        (["su2", "monotones", "--state", workspace["up1"], "--rep", workspace["rep1"]], "0.5"),
        (["su2", "psucc", "--state", workspace["uphalf"], "--twice-j", "1", "--oracle"], None),
        (["u1", "bound", "--from", workspace["diag"], "--to", workspace["coh"],
          "--charges", workspace["charges"]], None),
        (["su2", "monotones", "--state", workspace["uphalf"], "--rep", workspace["rep1"]], None),
        (["u1", "decompose", "--state", workspace["coh"], "--charges", workspace["charges"],
          "--tol", "0.4"], "0.5"),
    ]
    in_process = []
    for argv, tol in runs:
        if tol is None:
            monkeypatch.delenv("ASYMMODES_TOL", raising=False)
        else:
            monkeypatch.setenv("ASYMMODES_TOL", tol)
        rc = main(argv)
        in_process.append((rc, capsys.readouterr().out))
    monkeypatch.delenv("ASYMMODES_TOL", raising=False)
    src = str(Path(asymmodes.__file__).resolve().parent.parent)
    separate = []
    for argv, tol in runs:
        env = {k: v for k, v in os.environ.items() if k != "ASYMMODES_TOL"}
        env.update(PYTHONPATH=src, **({} if tol is None else {"ASYMMODES_TOL": tol}))
        done = subprocess.run([sys.executable, "-m", "asymmodes.cli", *argv], env=env,
                              capture_output=True, text=True)
        separate.append((done.returncode, done.stdout))
    assert in_process == separate
    assert [rc for rc, _ in in_process] == [0, 0, 0, 0, 2, 1, 0]
    assert in_process[0][1] != in_process[1][1]   # the tolerance is read on every call
    assert build_parser() is build_parser()
