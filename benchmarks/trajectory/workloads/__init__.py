"""The five workloads; each module exposes ``run(cfg) -> RunResult``."""

from importlib import import_module

WORKLOADS = (
    "steady_udp",
    "saturate_inbox",
    "slowlane_mix",
    "mass_crash",
    "paper_tables",
)

#: the end-to-end metrics each workload measures; on a workload that
#: does not list it a metric holds the placeholder and is marked n/a
MEASURED = {
    "steady_udp": ("setup_s", "hb_per_s", "cpu_us_per_hb", "detect_p50_ms", "detect_p99_ms"),
    "saturate_inbox": ("setup_s", "hb_per_s", "cpu_us_per_hb", "rss_kb_per_peer"),
    "slowlane_mix": ("setup_s", "hb_per_s", "cpu_us_per_hb", "rss_kb_per_peer"),
    "mass_crash": (
        "setup_s",
        "hb_per_s",
        "cpu_us_per_hb",
        "detect_p50_ms",
        "detect_p99_ms",
        "storm_us_per_verdict",
        "rss_kb_per_peer",
    ),
    "paper_tables": ("setup_s", "hb_per_s", "cpu_us_per_hb", "rss_kb_per_peer", "tables_s"),
}


def load(name: str):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return import_module(f"{__name__}.{name}")
