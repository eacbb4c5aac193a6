"""The benchmark's tracer wraps package functions by name (perfbench/tracer.py).

A renamed or removed layer function would only surface when the benchmark
runs with --trace 1, so the names are checked here, in the tier-1 suite.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracer  # noqa: E402


def test_every_traced_function_resolves_to_a_callable():
    targets = tracer.traced_functions()
    assert len(targets) == sum(len(attrs) for attrs in tracer.LAYER_FUNCTIONS.values())
    missing = [name for module, attr, name in targets if not callable(getattr(module, attr, None))]
    assert missing == []
