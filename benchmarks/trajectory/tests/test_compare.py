"""The comparison tool judges each cell against BENCHMARK.json's bound."""

import json

from benchmarks.trajectory import compare
from benchmarks.trajectory.harness import load_spec
from benchmarks.trajectory.stats import Summary


def _doc(workload, metric, values, not_applicable=()):
    return {
        "runs": [
            {
                "workload": workload,
                "trace": False,
                "not_applicable": list(not_applicable),
                "end_to_end": {metric: {"value": v, "unit": "x"}},
            }
            for v in values
        ]
    }


def test_judge_directions_and_bounds():
    a = Summary(100.0, 99.0, 101.0, 10)
    assert compare.judge(a, Summary(104.0, 103.0, 105.0, 10), "lower", 0.05) == "ok"
    assert compare.judge(a, Summary(108.0, 107.0, 109.0, 10), "lower", 0.05) == "WORSE"
    assert compare.judge(a, Summary(108.0, 107.0, 109.0, 10), "higher", 0.05) == "ok"
    assert compare.judge(a, Summary(90.0, 89.0, 91.0, 10), "higher", 0.05) == "WORSE"
    # a spread wider than the bound cannot resolve a regression
    assert compare.judge(a, Summary(108.0, 100.0, 116.0, 10), "lower", 0.05) == "unresolved"


def test_not_applicable_cells_are_never_judged():
    spec = load_spec()
    a = _doc("paper_tables", "detect_p50_ms", [10.0, 11.0], ["detect_p50_ms"])
    b = _doc("paper_tables", "detect_p50_ms", [50.0, 51.0], ["detect_p50_ms"])
    lines, worse = compare.compare(a, b, spec)
    assert worse == 0
    row = [l for l in lines if l.startswith("paper_tables") and "detect_p50_ms" in l]
    assert row and "n/a" in row[0]


def test_main_exit_code_follows_the_worst_cell(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_doc("saturate_inbox", "hb_per_s", [200e3, 201e3, 199e3])))
    b.write_text(json.dumps(_doc("saturate_inbox", "hb_per_s", [100e3, 101e3, 99e3])))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "WORSE" in out and "saturate_inbox" in out
