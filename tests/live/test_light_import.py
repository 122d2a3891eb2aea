"""The live runtime imports without SciPy or networkx.

A monitor or a sender starts with ``import repro.live.roles`` (and the
wire codec); neither needs a special function or a graph search, so
the modules that do (confidence intervals, the NFD-S quadrature, the
φ-accrual quantile, the topologies) import them where they are used.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = """
import json, sys
import repro.live.roles, repro.live.wire
print(json.dumps(sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("scipy", "networkx")
)))
"""


def test_live_imports_load_no_scipy_or_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert json.loads(done.stdout) == []
