"""End-to-end and per-layer benchmark for bihomlie; entry point is run.py."""
