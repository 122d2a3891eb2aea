"""Telemetry smoke: the NFD-U/NFD-E kernels recorded end to end.

``nfde-window`` (E5) runs the NFD-U and NFD-E fastsim kernels.  With
``--telemetry-out`` its table must still equal
``results/nfde-window.txt`` byte for byte (recording never changes a
result), every JSON-lines record must pass the ``repro.telemetry/1``
schema check, and the kernel run counter must carry both algorithms.

Run from the repository root: ``PYTHONPATH=src python
.github/scripts/telemetry_smoke.py``.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from repro.experiments.cli import main
from repro.telemetry.export import validate_record

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    jsonl = out / "t.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(
            ["nfde-window", "--out", str(out), "--telemetry-out", str(jsonl)]
        )
    assert code == 0, code
    assert (out / "nfde-window.txt").read_bytes() == Path(
        "results/nfde-window.txt"
    ).read_bytes(), "telemetry changed the nfde-window table"
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert records, "no telemetry record written"
    for record in records:
        validate_record(record)
    counters = records[-1]["metrics"]["counters"]
    for algorithm in ("nfd-u", "nfd-e"):
        key = f'fastsim_runs_total{{algorithm="{algorithm}"}}'
        assert counters.get(key, {}).get("value", 0) > 0, f"{key} missing"
print("telemetry smoke ok:", len(records), "record(s)")
