"""Exact solver suite for one-clock priced timed games."""

__version__ = "0.1.0"
