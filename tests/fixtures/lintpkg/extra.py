"""Leaf module, imported eagerly by helper.py and lazily by runner.py."""

EXTRA = 7
