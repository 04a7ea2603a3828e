"""Toolkit for a synchronous language with broadcast signals.

Programs run in instants: within one instant signals are absent until
emitted and stay emitted; reaction to absence is deferred to the next
instant. The package parses and executes source programs, analyses them
for reactivity and bounded context growth, compiles them to a
tail-recursive core and on to monotonic Mealy machines, decides program
equivalence on the finite fragment, and encodes counter machines as
programs.
"""

from .errors import (
    ArityMismatchError,
    FuelExhaustedError,
    HasSignalGenerationError,
    IndexExplosionError,
    InputSetExplosionError,
    LabellingLimitError,
    NotFiniteStateError,
    ParseError,
    SLError,
    StateExplosionError,
    UnboundIdentifierError,
    UndeclaredSignalError,
)
from .syntax import (
    Await,
    Call,
    Definition,
    Emit,
    New,
    Nil,
    NIL,
    parse_program,
    Pause,
    print_program,
    print_thread,
    Program,
    Seq,
    Spawn,
    Watch,
)
from .semantics import (
    check_strong_confluence,
    run_trace,
    Runner,
)
from .analysis import (
    Accept,
    check_bounded,
    check_reactivity,
    Reject,
)
from .tailcore import (
    check_reactivity_tail,
    parse_tail_program,
    print_tail_program,
    run_trace_tail,
    TailRunner,
)
from .cps import cps_program
from .mealy import (
    Distinguished,
    Equivalent,
    Inconclusive,
    mealy_to_program,
    mealy_trace_equiv,
    MonotonicMealy,
    parse_mealy,
    print_mealy,
    program_to_mealy,
    validate_mealy,
)
from .equiv import (
    bisim_check,
    confluence_check,
    suspension,
)
from .encodings import (
    CounterMachine,
    Dec,
    encode_counter_machine,
    encode_pushdown,
    Inc,
    parse_machine,
    print_machine,
    run_machine,
    TestZero,
)

__all__ = [name for name in dir() if not name.startswith("_")]
