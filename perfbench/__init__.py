"""Layered, golden-checked benchmark of ctasim; run it with perfbench/run.py."""
