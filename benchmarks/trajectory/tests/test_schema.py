"""BENCHMARK.json meets the driver's contract, and what a run prints
matches it: every named metric with its unit, and no unnamed extras."""

import json
import re

import pytest

from benchmarks.trajectory import cli
from benchmarks.trajectory.harness import REPO_ROOT, RunConfig, load_spec
from benchmarks.trajectory.workloads import MEASURED, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


@pytest.fixture(scope="module")
def spec():
    return load_spec()


def test_top_level_keys(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert (REPO_ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * 30 <= 3420  # the budget this benchmark is sized to


def test_command_and_paths(spec):
    assert spec["paths"] == ["benchmarks/trajectory"]
    for path in spec["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
        assert (REPO_ROOT / path).is_dir()
    command = spec["command"]
    assert 1 <= len(command) <= 32 and all(len(part) <= 200 for part in command)
    for part in command[1:]:
        assert not part.startswith("/") and ".." not in part.split("/")
        if "/" in part:  # a file of the repo: must live under `paths`
            assert any(part.startswith(p + "/") for p in spec["paths"])
            assert (REPO_ROOT / part).is_file()


def test_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        assert "\n" not in workload["why"] and 0 < len(workload["why"]) <= 200


def test_metrics(spec):
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names)), "a name is used once"
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_workload_says_what_it_measures(spec):
    names = {m["name"] for m in spec["end_to_end"]}
    assert set(MEASURED) == set(WORKLOADS)
    for workload, measured in MEASURED.items():
        assert "setup_s" in measured and set(measured) <= names, workload
    # no end-to-end metric is a placeholder everywhere
    assert names == {name for measured in MEASURED.values() for name in measured}


@pytest.mark.parametrize("workload", ["saturate_inbox", "mass_crash"])
def test_untraced_smoke_run_prints_every_end_to_end_metric(spec, workload):
    record = cli.run_one(RunConfig(workload, seed=3, seconds=1.0, smoke=True), spec)
    line = json.loads(cli.final_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert isinstance(line["attempted"], int) and isinstance(line["failed"], int)
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert set(line["metrics"]) == set(want)
    for name, cell in line["metrics"].items():
        assert set(cell) == {"value", "unit"} and cell["unit"] == want[name]
        assert isinstance(cell["value"], float) and cell["value"] > 0
    assert set(record["not_applicable"]) == set(want) - set(MEASURED[workload])


def test_traced_smoke_run_prints_every_per_layer_metric(spec):
    record = cli.run_one(RunConfig("saturate_inbox", seed=3, seconds=1.0, smoke=True, trace=True), spec)
    line = json.loads(cli.final_line(record))
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(line["metrics"]) == set(want), "every named metric, no unnamed extras"
    for name, cell in line["metrics"].items():
        assert cell["unit"] == want[name]
    assert line["failed"] == 0, record["notes"]
    assert record["spans"] > 0
    spans = json.loads(open(record["spans_file"]).read())
    assert spans["columns"] == ["name", "start", "end", "parent", "segment"]
    assert "service.soa.ingest" in spans["self_times"]
