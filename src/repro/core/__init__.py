"""The update-processing system of the paper's introduction.

Deductive databases "include an update processing system that provides the
users with a uniform interface in which they can request different kinds of
updates".  This package is that system:

- :mod:`repro.core.processor` -- :class:`UpdateProcessor`, the façade that
  exposes every Section 5 problem over one compiled transition program;
- :mod:`repro.core.repair_loop` -- iterated integrity maintenance until a
  consistent fixpoint;
- :mod:`repro.core.schema_updates` -- updates of deductive rules and
  integrity constraints (last paragraph of Section 5.3).
"""

from repro.core.processor import UpdateProcessor
from repro.core.maintenance import (
    MaintenanceResult,
    maintain_iteratively,
    translate_with_maintenance,
)
from repro.core.history import Journal, JournalEntry, inverse_of
from repro.core.durable import DurableDatabase
from repro.core.repair_loop import RepairLoopResult, repair_to_consistency
from repro.core.schema_updates import SchemaUpdateResult, apply_schema_update

__all__ = [
    "DurableDatabase",
    "Journal",
    "JournalEntry",
    "MaintenanceResult",
    "RepairLoopResult",
    "SchemaUpdateResult",
    "UpdateProcessor",
    "apply_schema_update",
    "inverse_of",
    "maintain_iteratively",
    "translate_with_maintenance",
    "repair_to_consistency",
]
