"""Fixture sweep entry: eager, lazy and re-export imports."""

from lintpkg import BasePolicy
from lintpkg.helper import helper_value

from . import good


def make(name):
    from lintpkg.fam_a import FamAPolicy

    if name == "lazy":
        import lintpkg.extra as extra

        return extra
    return FamAPolicy, BasePolicy, helper_value, good
