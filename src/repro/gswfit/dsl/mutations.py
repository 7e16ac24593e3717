"""The mutation-rule vocabulary of the operator-spec DSL.

A rule is the edit half of an operator: given an anchor that passed
every precondition, :meth:`MutationRule.enumerate` returns the sites the
rule derives from it — ``(target, payload, context)`` triples — and
:meth:`MutationRule.apply` performs the edit on a path copy of the
tree.  ``target`` is the node the site is placed on: ``None`` for the
anchor itself, or a sub-node of it (the ``Compare`` inside an ``If``
test).  ``payload`` becomes the
:class:`~repro.gswfit.operators.base.Site` payload (part of the stable
site key) and ``context`` feeds extra placeholders into the spec's
description template: text, or an AST node that is unparsed only when
the description is rendered (on its first read; a mutant build never
reads it).  Rules that derive exactly one site per anchor
return one empty-payload triple, matching the Table 1 site keys.

Most rules anchor on AST nodes; a rule with :attr:`MutationRule.scans_blocks`
anchors on statement lists instead (a spec using it sets
``"scans_blocks": true``) and always names its target statement.
Rules that need per-function state implement
:meth:`MutationRule.prepare`, the rule analogue of ``Predicate.prepare``.

Rules address sub-nodes through dotted *field paths* (``"test"``,
``"value"``); :func:`resolve_field` walks them.  Rules that inject new
code (``replace-field``, ``wrap-condition``, ``insert-before``) carry a
``source`` parameter holding Python source text, parsed at apply time —
the validator has already syntax-checked it, so a parse failure here is
impossible for a validated spec.
"""

import ast

from repro.gswfit.astutils import is_infra_call
from repro.gswfit.dsl.predicates import Param
from repro.gswfit.operators.base import remove_statements, replace_statement

__all__ = [
    "MUTATIONS",
    "MutationRule",
    "build_mutation",
    "perturb_constant",
    "resolve_field",
]

_BOOL_OP_NAMES = {ast.And: "and", ast.Or: "or"}

_ARITH_SWAP = {
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.Mult: ast.Add,
    ast.FloorDiv: ast.Mult,
    ast.Mod: ast.FloorDiv,
}

_BOUNDARY_SWAP = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
}

_ARITH_SYMBOLS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.FloorDiv: "//",
    ast.Mod: "%",
}


def resolve_field(node, path):
    """Walk a dotted attribute path from ``node``; None when absent."""
    target = node
    for part in path.split("."):
        target = getattr(target, part, None)
        if target is None:
            return None
    return target


def _perturbable(value):
    return isinstance(value, (bool, int, float, str))


def perturb_constant(value):
    """The wrong value WVAV writes for ``value`` (deterministic)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 2.0 + 1.0
    if isinstance(value, str):
        if len(value) > 1:
            return value[:-1]
        return value + "x"
    raise TypeError(f"not a perturbable constant: {value!r}")


#: The single empty-payload site most rules derive per anchor.
_ONE_SITE = ((None, "", {}),)


class MutationRule:
    """Base class: site enumeration plus the tree edit for one kind."""

    #: Extra description-template placeholders this rule provides.
    context_keys = frozenset()
    #: True when the rule anchors on statement lists, not AST nodes.
    scans_blocks = False

    def __init__(self, params):
        self.params = params

    def prepare(self, image):
        """Per-function precomputation; the result is passed to enumerate."""
        return None

    def enumerate(self, image, node, state):
        """The ``(target, payload, context)`` triples this rule derives.

        Rules return sequences (tuples/lists), not generators, to keep
        the scan's per-passing-node cost flat.
        """
        return _ONE_SITE

    def apply(self, tree, owner, node, payload):
        """Perform the edit on ``node`` inside the ``tree`` copy.

        The copy is a path copy
        (:meth:`~repro.gswfit.astutils.FunctionImage.fresh_copy`): only
        ``node``'s subtree, its ancestors and their lists are private,
        so an edit stays inside ``node``'s subtree or the block list of
        ``owner`` (the copy of its parent) that holds it.  The tree is
        compiled as the edit leaves it, so new statements go in through
        :func:`replace_statement` or :func:`remove_statements`, which
        locate them.
        """
        raise NotImplementedError


class _DeleteNode(MutationRule):
    """Remove the anchor statement (NOP-ing the instruction range)."""

    def apply(self, tree, owner, node, payload):
        replace_statement(tree, owner, node, [])


class _ReplaceWithBody(MutationRule):
    """Replace the anchor with its own body (drop a guard, keep code)."""

    def enumerate(self, image, node, state):
        return _ONE_SITE if getattr(node, "body", None) else ()

    def apply(self, tree, owner, node, payload):
        replace_statement(tree, owner, node, node.body)


class _PerturbConstant(MutationRule):
    """Rewrite the constant at ``field`` with its deterministic wrong value."""

    context_keys = frozenset({"old", "new"})

    def enumerate(self, image, node, state):
        constant = resolve_field(node, self.params["field"])
        if not isinstance(constant, ast.Constant):
            return ()
        if not _perturbable(constant.value):
            return ()
        return ((None, "", {
            "old": repr(constant.value),
            "new": repr(perturb_constant(constant.value)),
        }),)

    def apply(self, tree, owner, node, payload):
        constant = resolve_field(node, self.params["field"])
        constant.value = perturb_constant(constant.value)


class _RemoveBoolOperand(MutationRule):
    """Delete one operand of the boolean chain at ``field``; one site each."""

    context_keys = frozenset({"clause", "position"})

    def enumerate(self, image, node, state):
        chain = resolve_field(node, self.params["field"])
        if not isinstance(chain, ast.BoolOp):
            return ()
        return [
            (None, str(position), {
                "clause": operand,
                "position": str(position),
            })
            for position, operand in enumerate(chain.values)
        ]

    def apply(self, tree, owner, node, payload):
        chain = resolve_field(node, self.params["field"])
        position = int(payload)
        del chain.values[position]
        if len(chain.values) == 1:
            collapsed = chain.values[0]
            parent, _, attr = self.params["field"].rpartition(".")
            owner = resolve_field(node, parent) if parent else node
            setattr(owner, attr, collapsed)


class _SwapBoolOperator(MutationRule):
    """Flip ``and`` ↔ ``or`` in the boolean chain at ``field``."""

    context_keys = frozenset({"old_op", "new_op"})

    def enumerate(self, image, node, state):
        chain = resolve_field(node, self.params["field"])
        if not isinstance(chain, ast.BoolOp):
            return ()
        old = _BOOL_OP_NAMES[type(chain.op)]
        new = "or" if old == "and" else "and"
        return ((None, "", {"old_op": old, "new_op": new}),)

    def apply(self, tree, owner, node, payload):
        chain = resolve_field(node, self.params["field"])
        chain.op = ast.Or() if isinstance(chain.op, ast.And) else ast.And()


class _SwapBinopOperator(MutationRule):
    """Swap the arithmetic operator of the binary expression at ``field``."""

    context_keys = frozenset({"old_op", "new_op"})

    def enumerate(self, image, node, state):
        binop = resolve_field(node, self.params["field"])
        if not isinstance(binop, ast.BinOp):
            return ()
        replacement = _ARITH_SWAP.get(type(binop.op))
        if replacement is None:
            return ()
        return ((None, "", {
            "old_op": _ARITH_SYMBOLS[type(binop.op)],
            "new_op": _ARITH_SYMBOLS[replacement],
        }),)

    def apply(self, tree, owner, node, payload):
        binop = resolve_field(node, self.params["field"])
        binop.op = _ARITH_SWAP[type(binop.op)]()


class _ReplaceField(MutationRule):
    """Replace the sub-node at ``field`` with the parsed ``source`` expression."""

    context_keys = frozenset({"source"})

    def enumerate(self, image, node, state):
        if resolve_field(node, self.params["field"]) is None:
            return ()
        return ((None, "", {"source": self.params["source"]}),)

    def apply(self, tree, owner, node, payload):
        replacement = ast.parse(
            self.params["source"], mode="eval"
        ).body
        parent, _, attr = self.params["field"].rpartition(".")
        owner = resolve_field(node, parent) if parent else node
        setattr(owner, attr, replacement)


class _WrapCondition(MutationRule):
    """Wrap the anchor statement in ``if <source>:`` (an added guard)."""

    context_keys = frozenset({"source"})

    def enumerate(self, image, node, state):
        if not isinstance(node, ast.stmt):
            return ()
        return ((None, "", {"source": self.params["source"]}),)

    def apply(self, tree, owner, node, payload):
        guard = ast.If(
            test=ast.parse(self.params["source"], mode="eval").body,
            body=[node],
            orelse=[],
        )
        replace_statement(tree, owner, node, [guard])


class _InsertBefore(MutationRule):
    """Insert the parsed ``source`` statements before the anchor."""

    context_keys = frozenset({"source"})

    def enumerate(self, image, node, state):
        if not isinstance(node, ast.stmt):
            return ()
        return ((None, "", {"source": self.params["source"]}),)

    def apply(self, tree, owner, node, payload):
        inserted = ast.parse(self.params["source"]).body
        replace_statement(tree, owner, node, inserted + [node])


#: MLPC: a run of at least this many simple statements is a site ...
_RUN_MIN_LENGTH = 2
#: ... and the mutation removes at most this many of them.
_RUN_MAX_REMOVED = 3

#: Parameters WPFV never rewrites: the process context is plumbing, not
#: a data parameter a programmer would confuse with another variable.
_WPFV_EXCLUDED_NAMES = frozenset({"ctx", "self"})
_WPFV_MIN_CALL_ARGS = 2


def _is_simple(stmt):
    """An assignment or a call statement: one step of an algorithm."""
    if isinstance(stmt, ast.Expr):
        return isinstance(stmt.value, ast.Call)
    return isinstance(stmt, (ast.Assign, ast.AugAssign))


def _is_meaningful(stmt):
    """A run member that makes the run worth removing (non-infra)."""
    if isinstance(stmt, ast.Expr):
        return not is_infra_call(stmt.value)
    return True


class _RemoveStatementRun(MutationRule):
    """Remove a short run of consecutive simple statements (MLPC).

    One site per maximal run of two or more assignments and call
    statements in one block, past the initialization prefix of the
    top-level body, unless every member is an infrastructure call.  The
    edit removes the first ``min(len, 3)`` statements of the run — a
    programmer who skipped a short step of the algorithm.
    """

    context_keys = frozenset({"count", "first"})
    scans_blocks = True

    def enumerate(self, image, block, state):
        start = image.init_block_length() if block is image.fdef.body else 0
        sites = []
        run = []
        for stmt in block[start:] + [None]:
            if stmt is not None and _is_simple(stmt):
                run.append(stmt)
                continue
            if len(run) >= _RUN_MIN_LENGTH and any(
                _is_meaningful(member) for member in run
            ):
                count = str(min(len(run), _RUN_MAX_REMOVED))
                sites.append((run[0], count, {
                    "count": count,
                    "first": run[0],
                }))
            run = []
        return sites

    def apply(self, tree, owner, node, payload):
        remove_statements(tree, owner, node, int(payload))


class _SwapComparisonBoundary(MutationRule):
    """Off-by-one boundary swap in the anchor's ``test`` (WLEC).

    One site per single-operator ordering comparison (``<``, ``<=``,
    ``>``, ``>=``) anywhere in the test, placed on the ``Compare``
    itself; the edit swaps ``<`` ↔ ``<=`` and ``>`` ↔ ``>=``.
    """

    context_keys = frozenset({"comparison"})

    def enumerate(self, image, node, state):
        test = getattr(node, "test", None)
        if not isinstance(test, ast.AST):
            return ()
        return [
            (sub, "", {"comparison": sub})
            for sub in image.nodes_below(test, ast.Compare)
            if len(sub.ops) == 1 and type(sub.ops[0]) in _BOUNDARY_SWAP
        ]

    def apply(self, tree, owner, node, payload):
        node.ops[0] = _BOUNDARY_SWAP[type(node.ops[0])]()


class _SwapArgumentOperator(MutationRule):
    """Wrong arithmetic operator in a call argument (WAEP).

    One site per positional argument whose top-level node is a binary
    arithmetic expression; the edit swaps its operator (``+`` ↔ ``-``,
    ``*`` → ``+``, ...).
    """

    context_keys = frozenset({"argument"})

    def enumerate(self, image, node, state):
        if not isinstance(node, ast.Call):
            return ()
        return [
            (None, str(position), {"argument": arg})
            for position, arg in enumerate(node.args)
            if isinstance(arg, ast.BinOp) and type(arg.op) in _ARITH_SWAP
        ]

    def apply(self, tree, owner, node, payload):
        arg = node.args[int(payload)]
        arg.op = _ARITH_SWAP[type(arg.op)]()


class _SwapArgumentVariable(MutationRule):
    """Pass the wrong local variable to a call (WPFV).

    On a call with at least two positional arguments, the first one that
    is a local variable (never ``ctx`` or ``self``) becomes the
    alphabetically next local, wrapping around.  One site per call; the
    replacement is chosen at scan time and recorded in the payload, so
    the faultload fully describes the mutant.
    """

    context_keys = frozenset({"argument", "replacement"})

    def prepare(self, image):
        """``{local: alphabetically next local}``; empty below two locals."""
        names = sorted(
            name for name in image.local_names()
            if name not in _WPFV_EXCLUDED_NAMES
        )
        if len(names) < 2:
            return {}
        return {
            name: names[(position + 1) % len(names)]
            for position, name in enumerate(names)
        }

    def enumerate(self, image, node, successors):
        if not successors or not isinstance(node, ast.Call):
            return ()
        if len(node.args) < _WPFV_MIN_CALL_ARGS:
            return ()
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Name) and arg.id in successors:
                replacement = successors[arg.id]
                return ((None, f"{position}:{replacement}", {
                    "argument": arg.id,
                    "replacement": replacement,
                }),)
        return ()

    def apply(self, tree, owner, node, payload):
        position, replacement = payload.split(":", 1)
        node.args[int(position)].id = replacement


#: kind → (rule class, params schema, source-parse mode or None).
#: ``source`` params are syntax-checked by the validator in the given
#: parse mode ("eval" for expressions, "exec" for statement suites).
MUTATIONS = {
    "delete-node": (_DeleteNode, {}, None),
    "replace-with-body": (_ReplaceWithBody, {}, None),
    "perturb-constant": (_PerturbConstant, {
        "field": Param("string", default="value"),
    }, None),
    "remove-bool-operand": (_RemoveBoolOperand, {
        "field": Param("string", default="test"),
    }, None),
    "swap-bool-operator": (_SwapBoolOperator, {
        "field": Param("string", default="test"),
    }, None),
    "swap-binop-operator": (_SwapBinopOperator, {
        "field": Param("string", default="value"),
    }, None),
    "replace-field": (_ReplaceField, {
        "field": Param("string", required=True),
        "source": Param("string", required=True),
    }, "eval"),
    "wrap-condition": (_WrapCondition, {
        "source": Param("string", required=True),
    }, "eval"),
    "insert-before": (_InsertBefore, {
        "source": Param("string", required=True),
    }, "exec"),
    "remove-statement-run": (_RemoveStatementRun, {}, None),
    "swap-comparison-boundary": (_SwapComparisonBoundary, {}, None),
    "swap-argument-operator": (_SwapArgumentOperator, {}, None),
    "swap-argument-variable": (_SwapArgumentVariable, {}, None),
}


def build_mutation(kind, params):
    """Instantiate the mutation rule ``kind`` with validated ``params``."""
    cls, schema, _mode = MUTATIONS[kind]
    resolved = {
        name: params.get(name, spec.default)
        for name, spec in schema.items()
    }
    return cls(resolved)
