"""Paper-workload benchmark for the repro simulator (see run.py)."""
