"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/trajectory/run.py``.

Runs from the root of any checkout without ``PYTHONPATH``: it puts the
checkout and its ``src/`` on ``sys.path`` itself.  In a directory that
holds only the benchmark (no ``src/repro``) there is nothing to
measure, and it exits with code 2 without printing a result.

The program under test needs NumPy, SciPy and networkx.  On a machine
with several interpreters, ``python3`` may resolve to one that lacks
them (a bare ``PATH``, another pyenv version); the run then continues
under the first interpreter found that has them, and exits with code 3
if there is none.  Nothing is installed.
"""

import glob
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
NEEDED = ("numpy", "scipy", "networkx")
#: set in the environment of a re-executed run, so it never loops
REEXEC_FLAG = "TRAJECTORY_BENCH_REEXEC"


def other_interpreters():
    """Interpreters worth trying, most likely first, without repeats."""
    seen = {os.path.realpath(sys.executable)}
    home = os.path.expanduser("~")
    candidates = []
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        candidates.append(os.path.join(directory, "python3"))
    for pattern in (
        f"{home}/.pyenv/versions/*/bin/python3",
        "/root/.pyenv/versions/*/bin/python3",
        "/opt/*/bin/python3",
        "/usr/local/bin/python3",
    ):
        candidates.extend(sorted(glob.glob(pattern), reverse=True))
    for path in candidates:
        real = os.path.realpath(path)
        if real not in seen and os.access(path, os.X_OK) and os.path.isfile(path):
            seen.add(real)
            yield path


def has_needed(python: str) -> bool:
    probe = "import " + ", ".join(NEEDED)
    try:
        done = subprocess.run(
            [python, "-c", probe],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=60,
        )
    except (OSError, subprocess.SubprocessError):
        return False
    return done.returncode == 0


def ensure_interpreter() -> None:
    """Continue under an interpreter that has the program's dependencies."""
    if all(importlib.util.find_spec(name) is not None for name in NEEDED):
        return
    if not os.environ.get(REEXEC_FLAG):
        for python in other_interpreters():
            if has_needed(python):
                sys.stderr.write(
                    f"benchmarks.trajectory: {sys.executable} lacks {'/'.join(NEEDED)}; "
                    f"continuing under {python}\n"
                )
                sys.stderr.flush()
                env = dict(os.environ, **{REEXEC_FLAG: "1"})
                os.execve(python, [python, *sys.argv], env)
    sys.stderr.write(
        f"benchmarks.trajectory: no interpreter with {', '.join(NEEDED)} found "
        f"(tried {sys.executable} and every python3 on PATH)\n"
    )
    sys.exit(3)


if __name__ == "__main__":
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"benchmarks.trajectory: no src/repro under {ROOT}: nothing to measure\n")
        sys.exit(2)
    ensure_interpreter()
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.trajectory.cli import main

    sys.exit(main())
