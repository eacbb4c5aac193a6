"""Benchmark for the cablelift closed loop; entry point perfbench/run.py.

Its own tests: `python3 -m pytest perfbench/tests` from the repository root.
"""
