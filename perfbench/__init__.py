"""Job-level benchmark of the gvpr command-line pipeline; run ``perfbench/run.py``."""
