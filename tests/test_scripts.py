"""Each script in scripts/ regenerates its golden stdout (tests/golden/<name>.stdout)
byte for byte at its default arguments, with RuntimeWarnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import asymmodes

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["amplifier_bounds", "degradation_demo", "frame_alignment_demo"])
def test_script_regenerates_its_golden_stdout(name):
    env = dict(os.environ, PYTHONPATH=str(Path(asymmodes.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / f"{name}.py")],
                          env=env, capture_output=True)
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == (GOLDEN / f"{name}.stdout").read_bytes()
