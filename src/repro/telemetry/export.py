"""Machine-readable telemetry export: JSON-lines and Prometheus text.

Two formats, one snapshot:

* **JSON-lines** — one self-describing JSON object per line, schema
  ``repro.telemetry/1``.  Appending a line per experiment (what the CLI
  ``--telemetry-out`` flag does) yields a time series that downstream
  tooling can diff run-over-run.
* **Prometheus text exposition** — the ``# HELP``/``# TYPE`` format a
  scraper ingests; histograms surface as ``_count``/``_sum`` plus
  ``{quantile="..."}`` summary series.

Both are pure functions of a :class:`MetricsRegistry` snapshot, so they
can run any time without pausing collection.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path
from typing import Optional, Union

from repro.telemetry.registry import MetricsRegistry

__all__ = [
    "SCHEMA",
    "snapshot_record",
    "append_jsonl",
    "validate_record",
    "to_prometheus",
]

SCHEMA = "repro.telemetry/1"


def _json_safe(value):
    """NaN/inf are invalid JSON; encode them as null / string sentinels."""
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    return value


def snapshot_record(
    registry: MetricsRegistry,
    label: str = "",
    timestamp: Optional[float] = None,
) -> dict:
    """One JSON-serializable snapshot line for a registry."""
    return {
        "schema": SCHEMA,
        "label": label,
        "unix_time": time.time() if timestamp is None else float(timestamp),
        "metrics": _json_safe(registry.snapshot()),
    }


def append_jsonl(
    path: Union[str, Path],
    registry: MetricsRegistry,
    label: str = "",
    timestamp: Optional[float] = None,
) -> dict:
    """Append one snapshot line to ``path``; returns the record written."""
    record = snapshot_record(registry, label=label, timestamp=timestamp)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def validate_record(record: dict) -> None:
    """Schema check for one JSON-lines record; raises ``ValueError``.

    The telemetry smoke test round-trips an export through this.
    """
    if record.get("schema") != SCHEMA:
        raise ValueError(f"unexpected schema {record.get('schema')!r}")
    if "unix_time" not in record or not isinstance(
        record["unix_time"], (int, float)
    ):
        raise ValueError("missing/invalid unix_time")
    metrics = record.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError("missing metrics object")
    for group in ("counters", "gauges", "histograms"):
        if group not in metrics or not isinstance(metrics[group], dict):
            raise ValueError(f"missing metrics.{group}")
    for name, body in metrics["counters"].items():
        if not isinstance(body.get("value"), (int, float)):
            raise ValueError(f"counter {name} has no numeric value")
    for name, body in metrics["histograms"].items():
        if not isinstance(body.get("count"), int):
            raise ValueError(f"histogram {name} has no integer count")


def _prom_value(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _split_key(key: str):
    """``name{labels}`` → (name, '{labels}' or '')."""
    brace = key.find("{")
    if brace < 0:
        return key, ""
    return key[:brace], key[brace:]


def _with_label(labelblock: str, extra: str) -> str:
    """Merge an extra ``k="v"`` pair into an existing label block."""
    if not labelblock:
        return "{" + extra + "}"
    return labelblock[:-1] + "," + extra + "}"


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines = []
    seen_headers = set()

    def header(name: str, kind: str, help_text: str) -> None:
        if name in seen_headers:
            return
        seen_headers.add(name)
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    for key, metric in registry.items():
        name, labels = _split_key(key)
        if metric.kind == "counter":
            header(name, "counter", metric.help)
            lines.append(f"{name}{labels} {_prom_value(metric.value)}")
        elif metric.kind == "gauge":
            header(name, "gauge", metric.help)
            lines.append(f"{name}{labels} {_prom_value(metric.value)}")
        else:  # histogram → summary-style exposition
            header(name, "summary", metric.help)
            for p, sketch in sorted(metric.sketches.items()):
                lbl = _with_label(labels, f'quantile="{p}"')
                lines.append(f"{name}{lbl} {_prom_value(sketch.value)}")
            lines.append(f"{name}_sum{labels} {_prom_value(metric.sum)}")
            lines.append(f"{name}_count{labels} {float(metric.count):g}")
    return "\n".join(lines) + "\n"
