"""Mantis: Reactive Programmable Switches (SIGCOMM 2020) -- a complete
Python reproduction.

Top-level convenience imports (the compiler, the parsers and
``MantisSystem``; ``MultiPipelineSwitch`` lives in
:mod:`repro.multipipe`); see README.md for the architecture and
``repro.system.MantisSystem`` for the one-call entry point::

    from repro import MantisSystem
    system = MantisSystem.from_source(p4r_source)
    system.agent.prologue()
    system.agent.run_iteration()
"""

from repro.compiler.transform import CompilerOptions, compile_p4r
from repro.p4.parser import parse_p4
from repro.p4r.parser import parse_p4r
from repro.system import MantisSystem

__version__ = "1.0.0"

__all__ = [
    "CompilerOptions",
    "MantisSystem",
    "compile_p4r",
    "parse_p4",
    "parse_p4r",
    "__version__",
]
