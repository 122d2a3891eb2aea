"""Shared experiment plumbing: settings, result tables, formatting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional, Sequence

from repro.net.delays import DelayDistribution, ExponentialDelay

__all__ = [
    "Fig12Settings",
    "FIG12_SETTINGS",
    "ExperimentTable",
    "fmt",
    "steady_state_warmup",
]


def steady_state_warmup(
    eta: float,
    delta: float = 0.0,
    alpha: float = 0.0,
    mean_delay: float = 0.0,
    window: int = 0,
    timeout: float = 0.0,
    cutoff: float = 0.0,
) -> float:
    """A per-detector steady-state guard for accuracy estimation.

    The first-window transient otherwise leaks into ``E(T_MR)``/``E(T_M)``
    estimates: NFD-S is in steady state only from its first freshness
    point ``δ + η``; NFD-E additionally needs its EA-estimation window of
    ``window`` heartbeats to fill (≈ ``(window + 1)·η`` plus the
    freshness offset ``α + E(D)``); SFD needs its first expiry deadline
    armed, one ``TO + c`` past a heartbeat period.  Pass the parameters
    that apply; the guard is the largest implied span.
    """
    candidates = [delta + eta]
    if window > 0:
        candidates.append((window + 1) * eta + max(alpha, 0.0) + mean_delay)
    if timeout > 0:
        candidates.append(timeout + cutoff + eta)
    return max(candidates)


class Fig12Settings:
    """The Section 7 simulation settings, used by most experiments.

    η is normalized to 1, ``p_L = 0.01``, delays exponential with mean
    0.02 (so ``V(D) = 4·10⁻⁴``), SFD cutoffs 8·E(D) and 4·E(D).
    """

    eta = 1.0
    loss_probability = 0.01
    mean_delay = 0.02
    nfde_window = 32
    cutoff_large = 0.16  # SFD-L: 8 × E(D)
    cutoff_small = 0.08  # SFD-S: 4 × E(D)

    @property
    def delay(self) -> DelayDistribution:
        return ExponentialDelay(self.mean_delay)

    @property
    def var_delay(self) -> float:
        return self.mean_delay**2

    def tdu_grid(self, n: int = 11) -> List[float]:
        """``T_D^U`` values from 1.0 to 3.5 (the paper's x-axis)."""
        lo, hi = 1.0, 3.5
        return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


FIG12_SETTINGS = Fig12Settings()


def fmt(value: Any) -> str:
    """Format one table cell, 12 wide: compact scientific for floats."""
    if value is None:
        text = "-"
    elif not isinstance(value, float):
        text = str(value)
    elif math.isnan(value):
        text = "nan"
    elif math.isinf(value):
        text = "inf" if value > 0 else "-inf"
    elif value != 0 and (abs(value) >= 1e5 or abs(value) < 1e-3):
        text = f"{value:.4g}"
    else:
        text = f"{value:.4f}"
    return text.rjust(12)


@dataclass
class ExperimentTable:
    """A named table of results — one per reproduced figure/table.

    The text form is what ``python -m repro.experiments`` writes to
    disk and what EXPERIMENTS.md embeds.
    """

    title: str
    columns: Sequence[str]
    rows: List[List[Any]] = field(default_factory=list, init=False)
    notes: List[str] = field(default_factory=list, init=False)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        """All values of one column, by header name."""
        idx = list(self.columns).index(name)
        return [row[idx] for row in self.rows]

    def to_text(self) -> str:
        lines = [self.title, "=" * len(self.title)]
        header = " | ".join(str(c).rjust(12) for c in self.columns)
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(" | ".join(fmt(v) for v in row))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def save(self, path: Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_text() + "\n")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_text()
