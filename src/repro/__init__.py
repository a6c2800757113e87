"""repro -- the event-rule framework for deductive database updating problems.

A complete, executable reproduction of

    Ernest Teniente and Toni Urpí,
    "A Common Framework for Classifying and Specifying Deductive Database
    Updating Problems", ICDE 1995.

Layers (bottom-up):

- :mod:`repro.datalog` -- the deductive-database substrate (parser,
  stratified evaluation, storage);
- :mod:`repro.events` -- events, transition rules and event rules (§3);
- :mod:`repro.interpretations` -- the upward and downward interpretations
  (§4) plus the naive change-computation oracle;
- :mod:`repro.problems` -- every updating problem of §5 as a thin
  specification over the interpretations, and the Table 4.1 classification;
- :mod:`repro.core` -- the update-processing façade, durable storage,
  repair loops and schema updates;
- :mod:`repro.workloads` -- synthetic workload generators for benchmarks.

Quickstart::

    from repro import DeductiveDatabase, UpdateProcessor, parse_transaction

    db = DeductiveDatabase.from_source('''
        Q(A). Q(B). R(B).
        P(x) <- Q(x) & not R(x).
    ''')
    processor = UpdateProcessor(db)
    induced = processor.upward(parse_transaction("{delete R(B)}"))
    print(induced)          # {ιP(B)}   (Example 4.1)
"""

from repro.datalog import (
    Atom,
    Constant,
    DatalogError,
    DeductiveDatabase,
    Literal,
    Rule,
    Variable,
    parse_atom,
    parse_literal,
    parse_program,
    parse_rule,
)
from repro.events import (
    Event,
    EventCompiler,
    EventKind,
    Transaction,
    TransitionProgram,
    delete,
    insert,
    parse_transaction,
)
from repro.interpretations import (
    DownwardInterpreter,
    DownwardOptions,
    DownwardResult,
    Translation,
    UpwardInterpreter,
    UpwardOptions,
    UpwardResult,
    forbid_delete,
    forbid_insert,
    naive_changes,
    want_delete,
    want_insert,
)
from repro.core import (
    UpdateProcessor,
    apply_schema_update,
    repair_to_consistency,
)
from repro.problems import (
    ConditionChanges,
    ICCheckResult,
    RepairResult,
    render_table_4_1,
)
from repro.requests import (
    CheckRequest,
    CheckpointRequest,
    CommitRequest,
    DownwardRequest,
    HelloRequest,
    MonitorRequest,
    PingRequest,
    QueryRequest,
    RepairRequest,
    StatsRequest,
    UpdateRequest,
    UpwardRequest,
    WireFormatError,
)

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "CheckRequest",
    "CheckpointRequest",
    "CommitRequest",
    "ConditionChanges",
    "Constant",
    "DatalogError",
    "DeductiveDatabase",
    "DownwardInterpreter",
    "DownwardOptions",
    "DownwardRequest",
    "DownwardResult",
    "Event",
    "EventCompiler",
    "EventKind",
    "HelloRequest",
    "ICCheckResult",
    "Literal",
    "MonitorRequest",
    "PingRequest",
    "QueryRequest",
    "RepairRequest",
    "RepairResult",
    "Rule",
    "StatsRequest",
    "Transaction",
    "TransitionProgram",
    "Translation",
    "UpdateProcessor",
    "UpdateRequest",
    "UpwardInterpreter",
    "UpwardOptions",
    "UpwardRequest",
    "UpwardResult",
    "Variable",
    "WireFormatError",
    "apply_schema_update",
    "delete",
    "forbid_delete",
    "forbid_insert",
    "insert",
    "naive_changes",
    "parse_atom",
    "parse_literal",
    "parse_program",
    "parse_rule",
    "parse_transaction",
    "render_table_4_1",
    "repair_to_consistency",
    "want_delete",
    "want_insert",
]
