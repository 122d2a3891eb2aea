"""``python -m benchmarks.trajectory`` (with ``PYTHONPATH=src``)."""

import sys

from .cli import main

sys.exit(main())
