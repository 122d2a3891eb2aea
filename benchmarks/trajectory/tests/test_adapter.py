"""The benchmark reaches the product through public names only."""

import ast
from pathlib import Path

from benchmarks.trajectory import adapter
from benchmarks.trajectory.harness import diff_counters

PACKAGE = Path(__file__).resolve().parents[1]


def _private_accesses(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        name = node.attr
        if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in ("self", "cls"):
            continue  # the benchmark's own objects
        yield f"{path.relative_to(PACKAGE)}:{node.lineno}: .{name}"


def test_no_private_attribute_of_any_foreign_object_is_touched():
    sources = [p for p in PACKAGE.rglob("*.py") if "tests" not in p.parts]
    assert len(sources) > 10
    offences = [hit for path in sources for hit in _private_accesses(path)]
    assert offences == []


def test_product_imports_come_from_public_packages_only():
    allowed = (
        "repro",
        "repro.live",
        "repro.service.soa",
        "repro.estimation",
        "repro.telemetry",
        # the offline path has no facade: its rows name their modules
        "repro.experiments.cli",
        "repro.experiments.common",
        "repro.experiments.fig12",
        "repro.analysis.configurator",
        "repro.analysis.nfds_theory",
        "repro.metrics.qos",
        "repro.net.delays",
        "repro.sim.batch",
        "repro.sim.fastsim",
        "repro.sim.runner",
    )
    for path in PACKAGE.rglob("*.py"):
        if "tests" in path.parts:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            module = None
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module
            elif isinstance(node, ast.Import):
                module = node.names[0].name
            if module and module.split(".")[0] == "repro":
                assert module in allowed, f"{path.name} imports {module}"


def test_options_are_passed_only_while_they_exist():
    def old(*, loop, origin, engine="object", drain_batch=256):
        pass

    def new(*, loop, origin):
        pass

    assert adapter.accepts(old, "engine") and adapter.accepts(old, "drain_batch")
    assert not adapter.accepts(new, "engine")


def test_counter_diff_reports_only_mismatches():
    diff = diff_counters({"a": 1, "b": 2}, {"a": 1, "b": 3, "c": 0})
    assert diff == {"b": (2, 3)}
