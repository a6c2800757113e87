"""The two interpretations of the event rules (Section 4 of the paper).

- :mod:`repro.interpretations.upward` -- the upward interpretation (§4.1):
  changes on derived predicates induced by a transaction of base events;
- :mod:`repro.interpretations.naive` -- the semantic oracle: materialise the
  old and the new state and diff them (definitions (1)/(2) directly);
- :mod:`repro.interpretations.counting` -- counting-based change
  computation ([GMS93]) for non-recursive views;
- :mod:`repro.interpretations.maintainers` -- the :class:`StateMaintainer`
  strategies (counting, and advance for recursive programs) a serving
  engine keeps derived state warm with across commits;
- :mod:`repro.interpretations.downward` -- the downward interpretation
  (§4.2): candidate transactions of base events that satisfy requested
  changes on derived predicates.
"""

from repro.interpretations.upward import (
    UpwardInterpreter,
    UpwardOptions,
    UpwardResult,
)
from repro.interpretations.counting import (
    CountingEngine,
    CountingUnsupportedError,
    DeltaRule,
)
from repro.interpretations.maintainers import (
    AdvancingMaintainer,
    CountingMaintainer,
    StateMaintainer,
)
from repro.interpretations.explanation import explain_event
from repro.interpretations.naive import naive_changes
from repro.interpretations.downward import (
    DownwardInterpreter,
    DownwardOptions,
    DownwardResult,
    Translation,
    forbid_delete,
    forbid_insert,
    want_delete,
    want_insert,
)

__all__ = [
    "AdvancingMaintainer",
    "CountingEngine",
    "CountingMaintainer",
    "CountingUnsupportedError",
    "DeltaRule",
    "DownwardInterpreter",
    "DownwardOptions",
    "DownwardResult",
    "StateMaintainer",
    "Translation",
    "UpwardInterpreter",
    "UpwardOptions",
    "UpwardResult",
    "explain_event",
    "forbid_delete",
    "forbid_insert",
    "naive_changes",
    "want_delete",
    "want_insert",
]
