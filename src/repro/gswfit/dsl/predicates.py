"""The precondition vocabulary of the operator-spec DSL.

Each predicate is a small, composable test over the anchor node and the
:class:`~repro.gswfit.astutils.FunctionImage` index.  A spec lists
predicates under ``preconditions``; they are evaluated in listed order
with short-circuit AND, so cheap structural checks should come first
and predicates that assume a shape (e.g. ``name-read-later`` assumes a
single-``Name``-target assignment) should follow the predicate that
establishes it (``simple-constant-assign``).  Predicates are defensive
regardless: on a node without the assumed shape they return False
rather than raise.

A predicate may declare parameters; :data:`PREDICATES` carries a params
schema per kind (name → :class:`Param`), which the spec validator uses
to reject unknown parameters, type mismatches and missing required
values with a path-precise error before anything is compiled.

State-carrying predicates implement :meth:`Predicate.prepare`, the DSL
analogue of ``MutationOperator.begin_scan``: one precomputation per
function, shared by every candidate node.
"""

import ast

from repro.gswfit.astutils import (
    is_infra_call,
    is_simple_constant_assign,
    node_contains,
)

__all__ = ["PREDICATES", "Param", "Predicate", "build_predicate"]


def _is_interesting_constant(value):
    """Constants WVAV perturbs: flags, non-zero numbers, non-empty text.

    Zero/None/empty initializations are excluded — at machine level those
    are register-clearing idioms, not immediate-operand stores, so the
    original operator never matches them.
    """
    if isinstance(value, bool):
        return True
    if isinstance(value, int):
        return value != 0
    if isinstance(value, float):
        return value != 0.0
    if isinstance(value, str):
        return len(value) > 0
    return False


class Param:
    """One declared predicate/mutation parameter (for validation)."""

    def __init__(self, kind, required=False, default=None):
        self.kind = kind          # "int" | "number" | "string" | "bool"
        self.required = required
        self.default = default


class Predicate:
    """Base class: a named test over (image, node) with optional state."""

    def __init__(self, params):
        self.params = params

    def prepare(self, image):
        """Per-function precomputation; the result is passed to check."""
        return None

    def check(self, image, node, state):
        """True when ``node`` satisfies the precondition."""
        raise NotImplementedError


class _SimpleConstantAssign(Predicate):
    """``name = <constant>`` with a single plain-name target."""

    def check(self, image, node, state):
        return is_simple_constant_assign(node)


class _InInitBlock(Predicate):
    """The statement sits in the C89-style initialization prefix."""

    def prepare(self, image):
        return image.init_block_length(), image.body_positions()

    def check(self, image, node, state):
        prefix, positions = state
        position = positions.get(id(node))
        return position is not None and position < prefix


class _NotInInitBlock(Predicate):
    """The statement is past the initialization prefix (or nested)."""

    def prepare(self, image):
        return image.init_block_length(), image.body_positions()

    def check(self, image, node, state):
        prefix, positions = state
        position = positions.get(id(node))
        return position is None or position >= prefix


class _NameReadLater(Predicate):
    """The assigned name is ``Load``-read after this top-level statement."""

    def prepare(self, image):
        return image.body_positions(), image.names_loaded_from()

    def check(self, image, node, state):
        positions, suffix = state
        position = positions.get(id(node))
        if position is None:
            return False
        targets = getattr(node, "targets", None)
        if not targets or not isinstance(targets[0], ast.Name):
            return False
        return targets[0].id in suffix[position + 1]


class _InterestingConstant(Predicate):
    """The assigned constant is a flag, non-zero number, non-empty text."""

    def check(self, image, node, state):
        value = getattr(node, "value", None)
        if not isinstance(value, ast.Constant):
            return False
        return _is_interesting_constant(value.value)


class _DistinguishableConstant(Predicate):
    """Interesting constant, booleans excluded (MVAV's store filter)."""

    def check(self, image, node, state):
        value = getattr(node, "value", None)
        if not isinstance(value, ast.Constant):
            return False
        if isinstance(value.value, bool):
            return False
        return _is_interesting_constant(value.value)


class _ValueNotConstant(Predicate):
    """The right-hand side is a computed expression, not a literal."""

    def check(self, image, node, state):
        value = getattr(node, "value", None)
        return value is not None and not isinstance(value, ast.Constant)


class _SingleNameTarget(Predicate):
    """Exactly one assignment target and it is a plain name."""

    def check(self, image, node, state):
        targets = getattr(node, "targets", None)
        return (
            isinstance(targets, list)
            and len(targets) == 1
            and isinstance(targets[0], ast.Name)
        )


class _ValueHasNoCall(Predicate):
    """No function call anywhere in the right-hand side."""

    def check(self, image, node, state):
        value = getattr(node, "value", None)
        return value is not None and not node_contains(value, ast.Call)


class _NoElse(Predicate):
    """The node has no else/orelse arm."""

    def check(self, image, node, state):
        return not getattr(node, "orelse", None)


class _HasElse(Predicate):
    """The node has an else/orelse arm."""

    def check(self, image, node, state):
        return bool(getattr(node, "orelse", None))


class _HasBody(Predicate):
    """The node has a non-empty body."""

    def check(self, image, node, state):
        return bool(getattr(node, "body", None))


class _BodySize(Predicate):
    """The node's body length is within [min, max] statements."""

    def check(self, image, node, state):
        body = getattr(node, "body", None)
        if not isinstance(body, list):
            return False
        minimum = self.params["min"]
        maximum = self.params["max"]
        if len(body) < minimum:
            return False
        return maximum is None or len(body) <= maximum


class _NoControlTransfer(Predicate):
    """No return/raise/break/continue anywhere under the node."""

    def check(self, image, node, state):
        return not image.subtree_has_transfer(node)


class _IsCallStatement(Predicate):
    """A function call used as a statement (return value unused)."""

    def check(self, image, node, state):
        return isinstance(node, ast.Expr) and isinstance(
            node.value, ast.Call
        )


class _FitBoundary(Predicate):
    """The call is emulated OS logic, not simulation instrumentation.

    G-SWFIT operates inside the FIT boundary: accounting calls such as
    ``ctx.charge`` are the harness talking to itself and must never be
    mutated.  Non-call nodes pass trivially.
    """

    def check(self, image, node, state):
        call = None
        if isinstance(node, ast.Call):
            call = node
        elif isinstance(node, ast.Expr) and isinstance(
            node.value, ast.Call
        ):
            call = node.value
        if call is None:
            return True
        return not is_infra_call(call)


class _TestIsAndChain(Predicate):
    """The node's test is a top-level ``and`` chain."""

    def check(self, image, node, state):
        test = getattr(node, "test", None)
        return isinstance(test, ast.BoolOp) and isinstance(
            test.op, ast.And
        )


class _TestIsBoolChain(Predicate):
    """The node's test is a boolean chain (``and`` or ``or``)."""

    def check(self, image, node, state):
        return isinstance(getattr(node, "test", None), ast.BoolOp)


class _NotFirstInBlock(Predicate):
    """The statement is not the first of any statement block."""

    def prepare(self, image):
        return {
            id(block[0])
            for block in image.statement_blocks()
            if block
        }

    def check(self, image, node, state):
        return id(node) not in state


class _LocalsAvailable(Predicate):
    """The function binds at least ``min`` local names."""

    def prepare(self, image):
        return len(image.local_names())

    def check(self, image, node, state):
        return state >= self.params["min"]


#: kind → (predicate class, params schema).  The validator walks the
#: schema; the compiler instantiates the class with resolved params.
PREDICATES = {
    "simple-constant-assign": (_SimpleConstantAssign, {}),
    "in-init-block": (_InInitBlock, {}),
    "not-in-init-block": (_NotInInitBlock, {}),
    "name-read-later": (_NameReadLater, {}),
    "interesting-constant": (_InterestingConstant, {}),
    "distinguishable-constant": (_DistinguishableConstant, {}),
    "value-not-constant": (_ValueNotConstant, {}),
    "single-name-target": (_SingleNameTarget, {}),
    "value-has-no-call": (_ValueHasNoCall, {}),
    "no-else": (_NoElse, {}),
    "has-else": (_HasElse, {}),
    "has-body": (_HasBody, {}),
    "body-size": (_BodySize, {
        "min": Param("int", default=1),
        "max": Param("int", required=True),
    }),
    "no-control-transfer": (_NoControlTransfer, {}),
    "is-call-statement": (_IsCallStatement, {}),
    "fit-boundary": (_FitBoundary, {}),
    "test-is-and-chain": (_TestIsAndChain, {}),
    "test-is-bool-chain": (_TestIsBoolChain, {}),
    "not-first-in-block": (_NotFirstInBlock, {}),
    "locals-available": (_LocalsAvailable, {
        "min": Param("int", default=1),
    }),
}


def build_predicate(kind, params):
    """Instantiate the predicate ``kind`` with validated ``params``."""
    cls, schema = PREDICATES[kind]
    resolved = {
        name: params.get(name, spec.default)
        for name, spec in schema.items()
    }
    return cls(resolved)
