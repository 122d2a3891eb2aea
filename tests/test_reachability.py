"""Every public name in ``src/repro`` pays rent, or says why it stays.

A public top-level ``def`` or ``class`` that nothing under ``src/``,
``examples/`` or ``benchmarks/`` references is code that only the tests
reach.  It goes, unless it is a paper object the tests check against the
paper; those are listed in :data:`ALLOWED` with their reason.  The scan
is by identifier: a ``Name``, an ``Attribute`` or an import alias
spelling the name counts, except inside the name's own definition and in
a package ``__init__.py``'s re-exports.

The second check walks every subpackage: each ``__all__`` resolves and
names nothing twice.
"""

from __future__ import annotations

import ast
import functools
import importlib
import pkgutil
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
USERS = ("src", "examples", "benchmarks")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: public names that only the tests reach, and why each stays
ALLOWED = {
    "analysis.chebyshev.one_sided_tail_bound": "Cantelli's inequality, §5/§6",
    "analysis.chebyshev.nfdu_accuracy_bounds": "Theorem 11",
    "estimation.delay_stats.DelayStatsEstimator": "the §5 delay estimator",
    "estimation.combined.ShortLongCombiner": (
        "§8.1.2; its fate is an open ROADMAP item"
    ),
    "core.adaptive.AdaptiveNFDE": "§8.1; its fate is an open ROADMAP item",
    "metrics.relations.forward_good_period_moment": "Theorem 1",
    "metrics.relations.forward_good_period_cdf": "Theorem 1",
    "metrics.relations.derived_metrics": "Theorem 1",
    "net.clocks.DriftingClock": "§3.1's claim that drift is tolerated",
    "service.contracts.detector_for_contract_unsync": (
        "the §6 procedure, eq. 6.1"
    ),
    "telemetry.export.validate_record": (
        "the repro.telemetry/1 schema check, beside its producer"
    ),
    "telemetry.runtime.enabled": (
        "the scoped form of the public telemetry switch"
    ),
    "election.omega.LiveElector": (
        "E17's live consumer, run by CI's live election soak"
    ),
}


@functools.lru_cache(maxsize=None)
def scan() -> tuple:
    """(definitions, reached): ``module.name`` -> (file, name) for every
    public top-level ``def``/``class`` in a non-``__init__`` module of
    ``repro``, and the set of those referenced from outside their own
    definition."""
    definitions = {}
    where = {}  # name -> {(file, top-level definition it sits in)}
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            in_package = path.is_relative_to(PACKAGE)
            reexports = in_package and path.name == "__init__.py"
            module = None
            if in_package and not reexports:
                module = ".".join(
                    path.relative_to(PACKAGE).with_suffix("").parts
                )
            for node in tree.body:
                owner = None
                if isinstance(node, DEFINITIONS):
                    owner = node.name
                    if module and not owner.startswith("_"):
                        definitions[f"{module}.{owner}"] = (path, owner)
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name):
                        name = sub.id
                    elif isinstance(sub, ast.Attribute):
                        name = sub.attr
                    elif isinstance(sub, ast.alias) and not reexports:
                        name = sub.name.rsplit(".", 1)[-1]
                    else:
                        continue
                    where.setdefault(name, set()).add((path, owner))
    reached = {
        qualified
        for qualified, (path, name) in definitions.items()
        if where.get(name, set()) - {(path, name)}
    }
    return definitions, reached


def test_every_public_name_is_reached_or_allowed():
    definitions, reached = scan()
    unreached = set(definitions) - reached
    stray = sorted(unreached - set(ALLOWED))
    assert not stray, (
        "reached only by tests (delete, or add to ALLOWED with a reason): "
        + ", ".join(stray)
    )


def test_allow_list_is_current():
    definitions, reached = scan()
    gone = sorted(set(ALLOWED) - set(definitions))
    assert not gone, "ALLOWED names no definition: " + ", ".join(gone)
    now_reached = sorted(set(ALLOWED) & reached)
    assert not now_reached, (
        "ALLOWED names something that pays rent now: " + ", ".join(now_reached)
    )
    assert all(reason.strip() for reason in ALLOWED.values())


def test_every_subpackage_all_resolves_once():
    checked = 0
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        module = importlib.import_module(info.name)
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        checked += 1
        missing = [n for n in exported if not hasattr(module, n)]
        assert not missing, f"{info.name}.__all__ names missing {missing}"
        repeated = sorted({n for n in exported if exported.count(n) > 1})
        assert not repeated, f"{info.name}.__all__ repeats {repeated}"
    assert checked > 1
