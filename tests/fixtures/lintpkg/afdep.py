"""Dependency of the family-A policy."""

AF_CONST = 3
