"""End-to-end benchmark of the repro streaming pipeline (see README.md)."""
