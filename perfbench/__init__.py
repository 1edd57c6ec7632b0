"""Layered benchmark of the pegame library; see run.py."""
