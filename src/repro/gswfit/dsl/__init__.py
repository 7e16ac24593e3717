"""Declarative operator specs compiled into the G-SWFIT scanner.

The programmable-faultload DSL (DESIGN.md §16): a JSON spec describes a
mutation operator as *pattern* (AST node types, or statement blocks, to
anchor on) + *preconditions* (a composable predicate vocabulary over the
:class:`~repro.gswfit.astutils.FunctionImage` index) + *mutation rule*
(an AST edit template), and :func:`~repro.gswfit.dsl.compile.compile_spec`
turns it into a scanner operator.  The twelve Table 1 operators are
themselves specs (:mod:`~repro.gswfit.dsl.builtin_specs`); a spec a user
installs either re-expresses one of them (``"replaces": true`` — same
fault type, same fault ids) or defines a brand-new fault type that
rides every downstream pipeline: faultloads, sampling, sharding,
caching, reports.

:func:`install_spec_operators` is the one entry point the harness
uses — the CLI, the campaign parent, and every worker process call it
with the canonical spec dicts carried by
``ExperimentConfig.operator_specs``; installation is idempotent by
spec digest, so re-installs across processes and resumes are free.
"""

from repro.faults.types import register_fault_type
from repro.gswfit.dsl.compile import MutationOperator, compile_spec
from repro.gswfit.dsl.schema import SpecValidationError, validate_spec
from repro.gswfit.dsl.spec import OperatorSpec
from repro.gswfit.operators import register_operator

__all__ = [
    "MutationOperator",
    "OperatorSpec",
    "SpecValidationError",
    "compile_spec",
    "install_spec_operators",
    "validate_spec",
]


def install_spec_operators(specs):
    """Compile and register operators for ``specs``; returns them.

    ``specs`` is an iterable of spec dicts (raw or canonical) or
    :class:`OperatorSpec` instances.  Re-expressions replace their
    built-in operator in the library; new fault types are registered
    with the fault-type registry first, then overlaid on the library.
    Installing a spec whose digest is already installed is a no-op, so
    the campaign parent and its fabric workers can all install the
    same config unconditionally.
    """
    installed = []
    for entry in specs or ():
        spec = (
            entry if isinstance(entry, OperatorSpec)
            else OperatorSpec.from_dict(entry)
        )
        if not spec.replaces:
            register_fault_type(spec.fault_type_name, **spec.metadata())
        installed.append(
            register_operator(compile_spec(spec), replace=spec.replaces)
        )
    return installed
