"""The over-the-wire benchmark harness (see README.md in this directory).

``python3 benchmarks/harness/run.py --workload W --seed N --seconds S
--trace 0|1`` is the one command ``BENCHMARK.json`` names;
``PYTHONPATH=src python -m benchmarks.harness run|gen|compare`` is the same
machinery for people.
"""
