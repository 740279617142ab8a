"""The console smoke checks of tools/smoke.sh, run on ``python -m fano3.cli``.

CI runs the same script on the installed ``fano3`` entry point.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_script_passes(tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ,
        FANO3=f"{sys.executable} -m fano3.cli",
        PYTHONPATH=os.pathsep.join(p for p in path if p),
    )
    proc = subprocess.run(
        ["bash", str(ROOT / "tools" / "smoke.sh"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
