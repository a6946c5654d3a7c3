"""JSON interchange formats.

Complex matrices travel as {"rows": r, "cols": c, "re": [...], "im": [...]}
with row-major flattening; charges as {"charges": [...]}; block representations
as {"blocks": [{"twice_j": t, "mult": m}, ...]}.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

import numpy as np

from .linalg import DensityMatrix, Superoperator, channel_from_kraus
from .rf import DegradationModel
from .su2 import SU2Representation
from .u1 import U1Representation


def matrix_to_json(a) -> dict:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "re": a.real.reshape(-1).tolist(),
        "im": a.imag.reshape(-1).tolist(),
    }


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed matrix object: {exc}") from exc
    if re.size != rows * cols or im.size != rows * cols:
        raise ValueError(f"matrix payload size {re.size}/{im.size} does not match {rows}x{cols}")
    return (re + 1j * im).reshape(rows, cols)


def state_from_json(obj, tol: float) -> DensityMatrix:
    return DensityMatrix.from_array(matrix_from_json(obj), tol=tol)


def charges_from_json(obj) -> U1Representation:
    try:
        return U1Representation(tuple(obj["charges"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed charges object: {exc}") from exc


def charges_to_json(rep: U1Representation) -> dict:
    return {"charges": list(rep.charges)}


def rep_from_json(obj) -> SU2Representation:
    try:
        return SU2Representation(tuple((b["twice_j"], b["mult"]) for b in obj["blocks"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed representation object: {exc}") from exc


def rep_to_json(rep: SU2Representation) -> dict:
    return {"blocks": [{"twice_j": tj, "mult": mult} for tj, mult in rep.blocks]}


def _num(half_twice: int):
    return half_twice // 2 if half_twice % 2 == 0 else half_twice / 2


def basis_to_json(basis) -> list:
    out = []
    for (tmu, tm, alpha) in sorted(basis.ops):
        out.append({
            "mu": _num(tmu),
            "m": _num(tm),
            "alpha": alpha,
            "matrix": matrix_to_json(basis.ops[(tmu, tm, alpha)]),
        })
    return out


def channel_from_json(obj) -> Superoperator:
    if "kraus" in obj:
        kraus = [matrix_from_json(k) for k in obj["kraus"]]
        return channel_from_kraus(kraus)
    if "liouville" in obj:
        liou = matrix_from_json(obj["liouville"])
        dout = int(round(liou.shape[0] ** 0.5))
        din = int(round(liou.shape[1] ** 0.5))
        if dout * dout != liou.shape[0] or din * din != liou.shape[1]:
            raise ValueError(f"liouville shape {liou.shape} is not (out^2, in^2)")
        return Superoperator(liou, din, dout)
    raise ValueError("channel object needs a 'kraus' or 'liouville' entry")


def degradation_from_json(obj) -> DegradationModel:
    try:
        twice_j = int(obj["twice_j"])
        coeffs = {int(mu): float(c) for mu, c in obj["coefficients"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed degradation object: {exc}") from exc
    return DegradationModel(twice_j, coeffs)


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _key_text(key) -> str:
    """A dict key as json writes it: a str escaped, any other as in json.dumps({key: 0}) or refused."""
    return encode_basestring_ascii(key) if isinstance(key, str) else json.dumps({key: 0})[1:-4]


def _encode(obj, pad: str, open_ids: set) -> str:
    """obj as json.dumps lays it out with a two-space indent and sorted keys,
    inside a container indented by pad.  An indent turns json's C encoder off, so
    json formats every float in Python; here a list of finite floats is one join,
    an exact int is its repr, and json.dumps writes (or refuses) any other scalar.
    open_ids holds the containers being written, to refuse cycles as json does."""
    if type(obj) is int:    # a basis file holds many
        return int.__repr__(obj)
    if isinstance(obj, dict):
        opener, closer = "{}"
    elif isinstance(obj, (list, tuple)):
        opener, closer = "[]"
    else:
        return json.dumps(obj)
    if not obj:
        return opener + closer
    if id(obj) in open_ids:
        raise ValueError("Circular reference detected")
    open_ids.add(id(obj))
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        body = sep.join(f"{_key_text(k)}: {_encode(v, inner, open_ids)}" for k, v in sorted(obj.items()))
    else:
        try:
            body = sep.join(map(float.__repr__, obj))
            finite = "n" not in body    # of float reprs only "nan" and "inf" hold an n
        except TypeError:               # an item is not a float
            finite = False
        if not finite:
            body = sep.join([_encode(item, inner, open_ids) for item in obj])
    open_ids.discard(id(obj))
    return f"{opener}\n{inner}{body}\n{pad}{closer}"


def dump_json(obj, path: str | None = None) -> str:
    """The text of json.dumps(obj, sort_keys=True) with a two-space indent, byte
    for byte, plus a newline; written to path when one is given."""
    text = _encode(obj, "", set()) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
