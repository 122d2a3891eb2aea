"""Compare two sets of runs, metric by metric, against the bounds.

::

    python -m benchmarks.trajectory --repeat 10 --seed 0   --out A.json
    python -m benchmarks.trajectory --repeat 10 --seed 100 --out B.json
    python -m benchmarks.trajectory.compare A.json B.json

For every workload × end-to-end metric it prints both medians, both
inter-quartile ranges, and whether B is no worse than A by more than the
metric's bound in ``BENCHMARK.json`` (``ok``), worse by more
(``WORSE``), or ``unresolved`` — the run-to-run spread of either side is
wider than the bound, so the comparison cannot say.  Cells a workload
cannot measure are shown as ``n/a`` and never judged.  Exit code 1 if
any cell is ``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple

from .harness import load_spec
from .stats import Summary, summarize

__all__ = ["collect", "judge", "compare", "main"]


def collect(doc: dict) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per untraced run; ``n/a`` cells
    are left out."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in doc["runs"]:
        if run.get("trace"):
            continue
        skip = set(run.get("not_applicable", ()))
        for name, cell in run["end_to_end"].items():
            if name not in skip:
                out.setdefault((run["workload"], name), []).append(cell["value"])
    return out


def judge(a: Summary, b: Summary, better: str, bound: float) -> str:
    """``ok`` / ``WORSE`` / ``unresolved`` for one cell."""
    if a.median == 0:
        return "unresolved"
    change = (b.median - a.median) / abs(a.median)
    worse_by = change if better == "lower" else -change
    spread = max((a.q3 - a.q1) / abs(a.median), (b.q3 - b.q1) / abs(b.median) if b.median else 0.0)
    if worse_by <= bound:
        return "ok"
    return "unresolved" if spread > bound and min(a.n, b.n) > 1 else "WORSE"


def compare(doc_a: dict, doc_b: dict, spec: dict) -> Tuple[List[str], int]:
    """The report lines and the number of cells judged ``WORSE``."""
    a, b = collect(doc_a), collect(doc_b)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    lines = [
        f"{'workload':16s} {'metric':22s} {'A median':>12s} {'A q1..q3':>25s}"
        f" {'B median':>12s} {'B q1..q3':>25s} {'change':>8s} {'bound':>6s}  verdict"
    ]
    worse = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for name, metric in metrics.items():
            key = (workload, name)
            if key not in a and key not in b:
                lines.append(f"{workload:16s} {name:22s} {'n/a':>12s}")
                continue
            if key not in a or key not in b:
                lines.append(f"{workload:16s} {name:22s} present on one side only")
                worse += 1
                continue
            sa, sb = summarize(a[key]), summarize(b[key])
            verdict = judge(sa, sb, metric["better"], metric["bound"])
            worse += verdict == "WORSE"
            change = (sb.median - sa.median) / abs(sa.median) if sa.median else float("nan")
            lines.append(
                f"{workload:16s} {name:22s} {sa.median:12.5g}"
                f" {f'{sa.q1:.5g}..{sa.q3:.5g} (n={sa.n})':>25s}"
                f" {sb.median:12.5g} {f'{sb.q1:.5g}..{sb.q3:.5g} (n={sb.n})':>25s}"
                f" {change:+8.1%} {metric['bound']:6.0%}  {verdict}"
            )
    return lines, worse


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.trajectory.compare", description=__doc__.splitlines()[0])
    parser.add_argument("a", help="JSON document written by --out (the reference)")
    parser.add_argument("b", help="JSON document written by --out (the candidate)")
    args = parser.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        lines, worse = compare(json.load(fa), json.load(fb), load_spec())
    print("\n".join(lines))
    print(f"\n{worse} cell(s) worse than the bound allows")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
