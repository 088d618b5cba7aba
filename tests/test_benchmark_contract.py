"""The names the benchmark under perfbench/ imports or hooks.

perfbench's own tests run outside the default test paths, so a name removed
here would first show as a failed benchmark run. Each entry names the file
that uses it.
"""

import importlib

import pytest

CONTRACT = [
    ("cli", "main", "perfbench/worker.py, perfbench/test_perfbench.py"),
    ("discord", "pairwise_discord", "perfbench/checks.py, perfbench/tracer.py (hook)"),
    ("discord", "pairwise_discord_ga", "perfbench/checks.py, perfbench/test_perfbench.py"),
    ("nonlocality", "svetlichny_max", "perfbench/checks.py, perfbench/tracer.py (hook)"),
    ("nonlocality", "svetlichny_max_ga", "perfbench/checks.py"),
    ("optimizers", "OptimizerConfig", "perfbench/checks.py, perfbench/test_perfbench.py"),
    ("linalg", "DensityMatrix", "perfbench/checks.py"),
    ("grover", "GroverConfig", "perfbench/checks.py, perfbench/test_perfbench.py"),
    ("gga", "gga_iterate", "perfbench/tracer.py (hook)"),
    ("bruteforce", "_IDENTITY_TOLERANCES", "perfbench/test_perfbench.py"),
    ("bruteforce", "_generic_measures", "perfbench/tracer.py (traced private entry point)"),
]


@pytest.mark.parametrize("module, name, used_by", CONTRACT)
def test_benchmark_name_exists(module, name, used_by):
    assert hasattr(importlib.import_module(f"groverlab.{module}"), name), f"{used_by} uses groverlab.{module}.{name}"
