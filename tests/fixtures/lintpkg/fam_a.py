"""Family-A policy (reached only via runner.py's lazy import)."""

from .base import BasePolicy
from lintpkg.afdep import AF_CONST


class FamAPolicy(BasePolicy):
    name = "FAM-A"

    def plan_epoch(self, proc, epoch_id):
        return AF_CONST
