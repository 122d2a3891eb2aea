"""One heartbeat-journey benchmark (see ``README.md`` in this directory).

Run from the repository root::

    PYTHONPATH=src python -m benchmarks.trajectory [--workload W] [--seed N] [--trace] [--smoke]

or, exactly as the driver does, ``python3 benchmarks/trajectory/run.py``.
"""
