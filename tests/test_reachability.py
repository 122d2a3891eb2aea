"""Every public name, member and option in ``src/repro`` pays rent, or
says why it stays.

A public top-level ``def`` or ``class`` that nothing under ``src/``,
``examples/``, ``benchmarks/`` or ``.github/scripts/`` references is
code that only the tests reach.  It goes, unless it is a paper object
the tests check against the paper; those are listed in :data:`ALLOWED`
with their reason.  The scan is by identifier: a ``Name``, an
``Attribute`` or an import alias spelling the name counts, except inside
the name's own definition and in a package ``__init__.py``'s re-exports.

The same rule holds one level down.  A public method or property (dunders
excluded) of a public top-level class counts as reached when its name
appears as a ``Name``, an ``Attribute`` or a string constant in the
scanned trees outside its own ``def`` (a property's setter is part of
it).  A name collision with anything else makes it reached, so the rule
errs on the side of keeping code.  A member only the tests reach goes,
unless :data:`MEMBERS_ALLOWED` names it with a reason.

A parameter with a default (an *option*) on a public function, or on a
public method of a public class, that no call passes is a configuration
nobody runs.  It goes, its default written into the code, unless
:data:`OPTIONS_ALLOWED` names it with a reason.  Every call under the
scanned trees and ``tests/`` whose callee has the function's name (the
class name for a constructor, whose dataclass fields count as its
parameters) is a caller; a call passes a parameter if it names it as a
keyword, reaches its position, or forwards ``*args``/``**kwargs``.

A parameter that its own function body never reads is accepted and
ignored; it goes too, unless a protocol fixes the signature
(:data:`UNREAD_ALLOWED`).

The last check walks every subpackage: each ``__all__`` resolves and
names nothing twice.
"""

from __future__ import annotations

import ast
import functools
import importlib
import pkgutil
from pathlib import Path
from typing import NamedTuple

import repro

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
USERS = ("src", "examples", "benchmarks", ".github/scripts")
CALLERS = USERS + ("tests",)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

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

#: methods and properties that only the tests reach, and why each stays
MEMBERS_ALLOWED = {
    "core.nfd_u.NFDU.next_freshness_point": (
        "Fig. 9's τ_{ℓ+1}; the ingest identity suite reads it as the "
        "oracle's state"
    ),
    "estimation.loss.LossRateEstimator.received_count": (
        "the observer-table identity suite reads it as the oracle's state"
    ),
    "live.monitor.LiveMonitorService.remove_peer": (
        "the live service's only way to retire a peer"
    ),
    "telemetry.registry.Welford.merge": (
        "kept for now: two tier-1 tests pin it; ROADMAP item 8's "
        "fork-gap registry merge is its consumer"
    ),
    "metrics.qos.QoSRequirements.mistake_rate_upper": (
        "λ_M ≤ 1/T_MR^L, implied by the eq. 4.1 contract via Theorem 1"
    ),
    "metrics.qos.QoSRequirements.query_accuracy_lower": (
        "P_A ≥ (T_MR^L − T_M^U)/T_MR^L, implied by the eq. 4.1 contract "
        "via Theorem 1"
    ),
    "metrics.qos.QoSRequirements.forward_good_period_lower": (
        "E(T_FG) ≥ (T_MR^L − T_M^U)/2, implied by the eq. 4.1 contract "
        "via Theorem 1"
    ),
}

#: options that no call passes, and why each stays
OPTIONS_ALLOWED = {
    "core.adaptive.AdaptiveNFDE.__init__.window": (
        "§8.1's estimation window n, on an ALLOWED paper object"
    ),
    "core.adaptive.AdaptiveNFDE.__init__.stats_window": (
        "§8.1's (p_L, V(D)) estimation window, on an ALLOWED paper object"
    ),
    "service.contracts.detector_for_contract_unsync.window": (
        "eq. 6.3's window n of the §6 procedure, on an ALLOWED paper object"
    ),
    "telemetry.registry.Counter.__init__.help": (
        "MetricsRegistry._get_or_create passes it through *args"
    ),
    "telemetry.registry.Gauge.__init__.help": (
        "MetricsRegistry._get_or_create passes it through *args"
    ),
    "telemetry.registry.Histogram.__init__.help": (
        "MetricsRegistry._get_or_create passes it through *args"
    ),
}

#: parameters that their own function never reads, and why each stays
UNREAD_ALLOWED = {
    "experiments.adaptive_exp._Pipeline._build.on_transition.local_time": (
        "DetectorHost's on_transition(local_time, output) listener"
    ),
    "hierarchy.federation.HierarchicalMonitor._on_digest.origin": (
        "the gossip plane's on_digest(origin, version, digest) listener"
    ),
    "hierarchy.federation.HierarchicalMonitor._on_digest.version": (
        "the gossip plane's on_digest(origin, version, digest) listener"
    ),
    "hierarchy.federation.HierarchicalMonitor._on_plane_transition.time": (
        "the gossip plane's (observer, subject, time, output) listener"
    ),
    "hierarchy.federation.HierarchicalMonitor._on_root_transition.name": (
        "RootAggregator's on_transition(name, time, output) listener"
    ),
    "hierarchy.federation.HierarchicalMonitor._on_root_transition.time": (
        "RootAggregator's on_transition(name, time, output) listener"
    ),
    "hierarchy.federation.HierarchicalMonitor._on_root_transition.output": (
        "RootAggregator's on_transition(name, time, output) listener"
    ),
    "live.transport._MonitorProtocol.datagram_received.addr": (
        "asyncio.DatagramProtocol.datagram_received(data, addr)"
    ),
    "live.transport._SenderProtocol.error_received.exc": (
        "asyncio.DatagramProtocol.error_received(exc)"
    ),
    "net.delays.ConstantDelay.sample.rng": (
        "DelayDistribution.sample(rng, size); a constant draws nothing"
    ),
}


class Scan(NamedTuple):
    #: ``module.name`` -> (file, name) of every public top-level def/class
    definitions: dict
    #: the qualified names above referenced outside their own definition
    reached: set
    #: ``module[.Class].function.param`` -> (callee name, param, index)
    options: dict
    #: the qualified options above that some call passes
    passed: set
    #: ``module[.Class].function.param`` never read by its own body
    unread: set
    #: ``module.Class.member`` -> (file, class, member) of every public
    #: method and property of a public top-level class
    members: dict
    #: the qualified members above referenced outside their own def
    members_reached: set


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(
            target, "id", None
        )
        if name == "dataclass":
            return True
    return any(getattr(b, "id", None) == "NamedTuple" for b in node.bases)


def _field_options(node: ast.ClassDef) -> list:
    """(name, positional index, has default) of a dataclass's own init
    fields; ``field(init=False)`` and ``ClassVar`` are not parameters."""
    fields = []
    for stmt in node.body:
        if not (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        ):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and any(
            kw.arg == "init"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
            for kw in value.keywords
        ):
            continue
        fields.append((stmt.target.id, len(fields), value is not None))
    return fields


def _signature_options(fn, skip_first: bool) -> list:
    """(name, positional index or None, has default) of a def's params."""
    args = fn.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + list(
        args.defaults
    )
    out = []
    offset = 1 if skip_first and positional else 0
    for i, (arg, default) in enumerate(zip(positional, defaults)):
        if i < offset:
            continue
        out.append((arg.arg, i - offset, default is not None))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        out.append((arg.arg, None, default is not None))
    return out


def _is_static(fn) -> bool:
    return any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)


def _is_stub(fn) -> bool:
    """A body with nothing to read params in: docstring, ``...``,
    ``pass`` or ``raise NotImplementedError``."""
    for stmt in fn.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Raise) and "NotImplementedError" in ast.unparse(
            stmt
        ):
            continue
        return False
    return True


def _unread_params(fn) -> list:
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    read = {
        sub.id
        for stmt in fn.body
        for sub in ast.walk(stmt)
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)
    }
    return [
        p
        for p in params
        if p not in read and p not in ("self", "cls") and not p.startswith("_")
    ]


def _unread_in(node, prefix: str):
    """``prefix.qualname.param`` of every parameter that its own def
    below ``node`` never reads; stub bodies read nothing and are
    skipped."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFINITIONS):
            qualname = f"{prefix}.{child.name}"
            if isinstance(child, FUNCTIONS) and not _is_stub(child):
                for param in _unread_params(child):
                    yield f"{qualname}.{param}"
            yield from _unread_in(child, qualname)
        else:
            yield from _unread_in(child, prefix)


def _callee(call: ast.Call, owner):
    """The name a call's callee has; ``cls(...)`` and
    ``super().__init__(...)`` inside a class name that class and its
    first base."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "cls" and isinstance(owner, ast.ClassDef):
            return owner.name
        return func.id
    if isinstance(func, ast.Attribute):
        if (
            func.attr == "__init__"
            and isinstance(owner, ast.ClassDef)
            and owner.bases
            and ast.unparse(func.value) == "super()"
        ):
            return ast.unparse(owner.bases[0]).rsplit(".", 1)[-1]
        return func.attr
    return None


def _shape(call: ast.Call) -> tuple:
    """(positional arguments, keyword names, forwards ``*``/``**``)."""
    keywords = {kw.arg for kw in call.keywords}
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return len(call.args) - starred, keywords, starred or None in keywords


@functools.lru_cache(maxsize=None)
def scan() -> Scan:
    """One walk over every caller tree; see :class:`Scan`."""
    definitions = {}
    where = {}  # name -> {(file, top-level definition it sits in)}
    options = {}
    unread = set()
    calls = {}  # callee name -> [(n positional, keywords, forwards)]
    members = {}
    # identifier or string -> {(file, top-level definition, class member
    # def)} it appears in
    spoken = {}
    for top in CALLERS:
        user = top in USERS
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            in_package = path.is_relative_to(PACKAGE)
            reexports = in_package and path.name == "__init__.py"
            module = None
            if in_package:
                dotted = ".".join(
                    path.relative_to(PACKAGE).with_suffix("").parts
                )
                unread.update(_unread_in(tree, dotted))
                module = None if reexports else dotted
            for node in tree.body:
                owner = None
                inside = {}  # id(ast node) -> the class member def holding it
                if isinstance(node, DEFINITIONS):
                    owner = node.name
                    if isinstance(node, ast.ClassDef):
                        for stmt in node.body:
                            if isinstance(stmt, FUNCTIONS):
                                for sub in ast.walk(stmt):
                                    inside[id(sub)] = stmt.name
                    if module and not owner.startswith("_"):
                        definitions[f"{module}.{owner}"] = (path, owner)
                        _collect_options(module, node, options)
                        if isinstance(node, ast.ClassDef):
                            _collect_members(module, node, path, members)
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call):
                        name = _callee(sub, node)
                        if name is not None:
                            calls.setdefault(name, []).append(_shape(sub))
                    if not user:
                        continue
                    here = (path, owner, inside.get(id(sub)))
                    if isinstance(sub, ast.Constant) and isinstance(
                        sub.value, str
                    ):
                        spoken.setdefault(sub.value, set()).add(here)
                        continue
                    if isinstance(sub, ast.Name):
                        name = sub.id
                    elif isinstance(sub, ast.Attribute):
                        name = sub.attr
                    elif isinstance(sub, ast.alias) and not reexports:
                        name = sub.name.rsplit(".", 1)[-1]
                    else:
                        continue
                    where.setdefault(name, set()).add((path, owner))
                    spoken.setdefault(name, set()).add(here)
    reached = {
        qualified
        for qualified, (path, name) in definitions.items()
        if where.get(name, set()) - {(path, name)}
    }
    passed = {
        qualified
        for qualified, (callee, param, index) in options.items()
        if any(
            param in keywords
            or forwards
            or (index is not None and index < n_positional)
            for n_positional, keywords, forwards in calls.get(callee, ())
        )
    }
    members_reached = {
        qualified
        for qualified, (path, cls, name) in members.items()
        if spoken.get(name, set()) - {(path, cls, name)}
    }
    return Scan(
        definitions, reached, options, passed, unread, members, members_reached
    )


def _collect_members(module: str, node: ast.ClassDef, path, members) -> None:
    """Add a public class's public, non-dunder methods and properties."""
    for stmt in node.body:
        if isinstance(stmt, FUNCTIONS) and not stmt.name.startswith("_"):
            members[f"{module}.{node.name}.{stmt.name}"] = (
                path, node.name, stmt.name
            )


def _collect_options(module: str, node, options: dict) -> None:
    """Add the options of a public top-level def, or of a public class's
    constructor and public methods, to ``options``."""
    if isinstance(node, FUNCTIONS):
        for param, index, default in _signature_options(node, False):
            if default:
                options[f"{module}.{node.name}.{param}"] = (
                    node.name, param, index
                )
        return
    has_init = False
    for stmt in node.body:
        if not isinstance(stmt, FUNCTIONS):
            continue
        if stmt.name.startswith("_") and stmt.name != "__init__":
            continue
        has_init |= stmt.name == "__init__"
        callee = node.name if stmt.name == "__init__" else stmt.name
        for param, index, default in _signature_options(
            stmt, not _is_static(stmt)
        ):
            if default:
                options[f"{module}.{node.name}.{stmt.name}.{param}"] = (
                    callee, param, index
                )
    if _is_dataclass(node) and not has_init:
        for param, index, default in _field_options(node):
            if default:
                options[f"{module}.{node.name}.__init__.{param}"] = (
                    node.name, param, index
                )


def test_every_public_name_is_reached_or_allowed():
    found = scan()
    unreached = set(found.definitions) - found.reached
    stray = sorted(unreached - set(ALLOWED))
    assert not stray, (
        "reached only by tests (delete, or add to ALLOWED with a reason): "
        + ", ".join(stray)
    )


def test_allow_list_is_current():
    found = scan()
    gone = sorted(set(ALLOWED) - set(found.definitions))
    assert not gone, "ALLOWED names no definition: " + ", ".join(gone)
    now_reached = sorted(set(ALLOWED) & found.reached)
    assert not now_reached, (
        "ALLOWED names something that pays rent now: " + ", ".join(now_reached)
    )
    assert all(reason.strip() for reason in ALLOWED.values())


def test_every_member_is_reached_or_allowed():
    found = scan()
    unreached = set(found.members) - found.members_reached
    stray = sorted(unreached - set(MEMBERS_ALLOWED))
    assert not stray, (
        f"{len(stray)} methods and properties reached only by tests "
        "(delete, or add to MEMBERS_ALLOWED with a reason): "
        + ", ".join(stray)
    )


def test_member_allow_list_is_current():
    found = scan()
    gone = sorted(set(MEMBERS_ALLOWED) - set(found.members))
    assert not gone, "MEMBERS_ALLOWED names no member: " + ", ".join(gone)
    now_reached = sorted(set(MEMBERS_ALLOWED) & found.members_reached)
    assert not now_reached, (
        "MEMBERS_ALLOWED names a member that pays rent now: "
        + ", ".join(now_reached)
    )
    assert all(reason.strip() for reason in MEMBERS_ALLOWED.values())


def test_every_option_is_set_or_allowed():
    found = scan()
    unset = set(found.options) - found.passed
    stray = sorted(unset - set(OPTIONS_ALLOWED))
    assert not stray, (
        f"{len(stray)} options no call passes (delete, writing the default "
        "into the code, or add to OPTIONS_ALLOWED with a reason): "
        + ", ".join(stray)
    )


def test_option_allow_list_is_current():
    found = scan()
    gone = sorted(set(OPTIONS_ALLOWED) - set(found.options))
    assert not gone, "OPTIONS_ALLOWED names no option: " + ", ".join(gone)
    now_passed = sorted(set(OPTIONS_ALLOWED) & found.passed)
    assert not now_passed, (
        "OPTIONS_ALLOWED names an option some call passes now: "
        + ", ".join(now_passed)
    )
    assert all(reason.strip() for reason in OPTIONS_ALLOWED.values())


def test_every_parameter_is_read():
    found = scan()
    stray = sorted(found.unread - set(UNREAD_ALLOWED))
    assert not stray, (
        "parameters their own function never reads (delete, or add to "
        "UNREAD_ALLOWED with a reason): " + ", ".join(stray)
    )
    gone = sorted(set(UNREAD_ALLOWED) - found.unread)
    assert not gone, "UNREAD_ALLOWED names a parameter that is read: " + (
        ", ".join(gone)
    )


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
