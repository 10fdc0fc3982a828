"""Imports a re-exported symbol through the package __init__."""

from lintpkg import BasePolicy

REEXPORTED = BasePolicy
