"""What every workload shares: the run configuration, the result record,
and the rule for end-to-end cells that do not apply to a workload."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from .spans import Tracer
from .stats import Canary, Summary, summarize, trimmed_mean

__all__ = [
    "REPO_ROOT",
    "OUT_DIR",
    "diff_counters",
    "keep_heap_warm",
    "load_spec",
    "RunConfig",
    "RunResult",
    "SEGMENTS",
]

REPO_ROOT = Path(__file__).resolve().parents[2]
#: scratch output (spans, regenerated tables); listed in .gitignore
OUT_DIR = REPO_ROOT / ".bench_build" / "trajectory"

#: every live workload is cut into this many equal segments (canary
#: flags, alternating traced blocks; the statistics are finer: see
#: RunResult.values)
SEGMENTS = 5


def keep_heap_warm() -> bool:
    """Ask glibc to serve large blocks from the heap and never trim it.

    The offline simulators allocate and free 32 MB NumPy arrays by the
    hundred.  Left alone, each one is a fresh ``mmap`` whose huge-page
    faults cost the kernel anything from 0.25 s to 1.7 s per pass *for
    identical work* on the sizing VM — a lottery that buries the
    repository's own (steady) user time.  With the thresholds raised,
    the warm-up pass pays the faults once and the timed passes reuse the
    heap.  Returns False where the C library has no ``mallopt``.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 1 << 30) and mallopt(m_trim_threshold, (1 << 31) - 1))


def diff_counters(expected: Dict[str, int], actual: Dict[str, int]) -> Dict[str, tuple]:
    """Series whose actual value is off its predicted one (a series
    the prediction does not name must read 0)."""
    return {
        key: (expected.get(key, 0), actual.get(key, 0))
        for key in sorted(set(expected) | set(actual))
        if expected.get(key, 0) != actual.get(key, 0)
    }


def load_spec() -> dict:
    """``BENCHMARK.json``: the names, units, directions and bounds."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


@dataclass
class RunConfig:
    workload: str
    seed: int = 0
    seconds: float = 10.0
    smoke: bool = False
    trace: bool = False

    @property
    def min_beyond(self) -> int:
        """Samples required beyond a printed percentile; a smoke run
        cannot afford the full requirement and says so in its notes."""
        return 1 if self.smoke else 10


@dataclass
class RunResult:
    """One run of one workload."""

    config: RunConfig
    #: end-to-end metric name -> the run's values of it, one per slot,
    #: burst, storm, pass or set-up (summarised on print)
    values: Dict[str, List[float]] = field(default_factory=dict)
    #: metrics whose reported value is the 10 %-trimmed mean of their
    #: values, not the median (CPU time per unit of work)
    trimmed: List[str] = field(default_factory=list)
    #: end-to-end cells this workload cannot measure (hold the placeholder)
    not_applicable: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: human-readable remarks: flagged segments, mismatches, caveats
    notes: List[str] = field(default_factory=list)
    #: extra numbers worth printing that are not named metrics
    info: Dict[str, float] = field(default_factory=dict)
    #: the same metrics before canary normalisation, for the record
    raw: Dict[str, List[float]] = field(default_factory=dict)
    #: per-layer metrics measured in situ by a traced run
    layer: Dict[str, float] = field(default_factory=dict)
    canary: Canary = field(default_factory=Canary)
    tracer: Tracer = field(default_factory=Tracer)
    flagged_segments: List[int] = field(default_factory=list)

    def put(self, name: str, *values: float) -> None:
        self.values.setdefault(name, []).extend(float(v) for v in values)

    def put_raw(self, name: str, *values: float) -> None:
        self.raw.setdefault(name, []).extend(float(v) for v in values)

    def note_weather(self, segment: int, readings: List[float]) -> None:
        """Flag a segment whose canary moved between its first and its
        last third."""
        third = max(1, len(readings) // 3)
        if len(readings) >= 2:
            self.note_canary(
                segment,
                summarize(readings[:third]).median,
                summarize(readings[-third:]).median,
            )

    def fail(self, count: int, why: str) -> None:
        if count:
            self.failed += int(count)
            self.notes.append(f"FAILED x{int(count)}: {why}")

    def check_counters(self, expected: Dict[str, int], actual: Dict[str, int], label: str = "") -> None:
        """Every ``live_*_total`` series must read what the generator
        predicted; each unit of difference is a failed operation."""
        prefix = f"{label}: " if label else ""
        for key, (want, got) in diff_counters(expected, actual).items():
            self.fail(abs(want - got), f"{prefix}{key}: expected {want}, got {got}")

    def summary(self, name: str) -> Summary:
        """The reported value (``median`` field) with the quartiles and
        the count of the values it was taken from."""
        s = summarize(self.values[name])
        if name in self.trimmed:
            return Summary(trimmed_mean(self.values[name]), s.q1, s.q3, s.n)
        return s

    def note_canary(self, segment: int, before: float, after: float) -> None:
        if Canary.flagged(before, after):
            self.flagged_segments.append(segment)
            self.notes.append(
                f"segment {segment}: canary moved {after / before:.2f}x "
                "(machine noise; kept, not dropped)"
            )

    def require(self, names) -> None:
        """Every metric the workload is there to measure must have a
        value; one that is missing is a failure, never a silent n/a."""
        for name in names:
            if not self.values.get(name):
                self.fail(1, f"{name} was not measured")

    def fill_not_applicable(self, spec: dict) -> None:
        """Give every end-to-end metric a value on every workload.

        The driver's contract wants each end-to-end metric in each run.
        A cell the workload cannot measure holds the canary's
        *placeholder* (:meth:`Canary.placeholder`, about 1 in whatever
        unit the metric has) — a number neither a code change nor the
        machine's speed can move — and is listed in
        :attr:`not_applicable` so the printed document marks it ``n/a``.
        """
        missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in self.values]
        if missing:
            value = self.canary.placeholder()
            for name in missing:
                self.values[name] = [value]
                self.not_applicable.append(name)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
