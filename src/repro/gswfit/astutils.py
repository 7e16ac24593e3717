"""AST plumbing shared by the scanner and the mutator.

The central object is :class:`FunctionImage`: the parsed, indexed source of
one FIT function.  Nodes are addressed by their position in a deterministic
walk of the tree, so a site found during scanning can be relocated in a
fresh deep copy during mutation, and — because the walk only depends on the
source text — the same ``site_key`` resolves to the same construct across
processes and runs.

The image is built with a single breadth-first walk (byte-for-byte the
order of :func:`ast.walk`) that records, per node: its walk position, its
parent, and its class.  Everything the operator library repeatedly needs
during a scan — position lookup, "all ``If`` nodes", "all statement
blocks", "does this subtree transfer control", the function's local
names — is answered from those side tables in O(1)/O(result) instead of
re-walking the tree, which is what makes the single-pass scanner one
traversal per function instead of one per operator.
"""

import ast
import copy
import inspect
import textwrap
from collections import deque

__all__ = [
    "FunctionImage",
    "index_nodes",
    "init_block_length",
    "is_simple_constant_assign",
    "local_names",
    "node_contains",
    "CONTROL_TRANSFER_TYPES",
    "INFRA_CALL_NAMES",
    "STATEMENT_BLOCK_FIELDS",
]

# Calls that belong to the simulation's accounting machinery rather than to
# the OS logic being emulated; operators never target them (removing a CPU
# charge is not a representative software fault).
INFRA_CALL_NAMES = frozenset({"charge"})

# Statements that transfer control out of the enclosing block; operators
# use this to keep removal-style mutations within their fault class.
CONTROL_TRANSFER_TYPES = (ast.Return, ast.Raise, ast.Break, ast.Continue)

# AST fields that hold statement lists (bodies, else/finally arms).
STATEMENT_BLOCK_FIELDS = ("body", "orelse", "finalbody")


class FunctionImage:
    """Parsed source of one module-level function.

    Attributes
    ----------
    function:
        The live function object (whose ``__code__`` injection will swap).
    module_name:
        Importable module path the function was taken from.
    source:
        Dedented source text of the function definition.
    tree:
        ``ast.Module`` containing exactly the function definition.
    fdef:
        The ``ast.FunctionDef`` node inside :attr:`tree`.
    first_lineno:
        Absolute line number of the ``def`` line in the original file.
    """

    def __init__(self, function, module_name=None):
        self.function = function
        self.module_name = module_name or function.__module__
        raw = inspect.getsource(function)
        self.source = textwrap.dedent(raw)
        self.tree = ast.parse(self.source)
        if not self.tree.body or not isinstance(
            self.tree.body[0], ast.FunctionDef
        ):
            raise ValueError(
                f"{function!r} does not parse to a single function def"
            )
        self.fdef = self.tree.body[0]
        self.first_lineno = function.__code__.co_firstlineno
        # One walk fills every index the scan needs: the position list
        # (identical to ast.walk order), the O(1) position map, per-class
        # buckets, and the parent map.
        index = []
        positions = {}
        by_type = {}
        parents = {}
        todo = deque([self.tree])
        while todo:
            node = todo.popleft()
            positions[id(node)] = len(index)
            index.append(node)
            try:
                by_type[type(node)].append(node)
            except KeyError:
                by_type[type(node)] = [node]
            for child in ast.iter_child_nodes(node):
                parents[id(child)] = node
                todo.append(child)
        self._index = index
        self._positions = positions
        self._by_type = by_type
        self._parents = parents
        # Lazy caches (filled on first use; a mutant build never needs them).
        self._blocks = None
        self._transfer_marks = None
        self._local_names = None
        self._init_block_length = None
        self._body_positions = None

    def index_of(self, node):
        """Walk position of ``node`` (identity comparison, O(1))."""
        position = self._positions.get(id(node))
        if position is None or self._index[position] is not node:
            raise ValueError("node not part of this image")
        return position

    def nodes_of_type(self, node_type):
        """Every node of exactly ``node_type``, in walk order."""
        return self._by_type.get(node_type, ())

    def statement_blocks(self):
        """Every ``(block,)`` statement list of the function, walk order.

        The first entry is always ``fdef.body``; blocks of the ``Module``
        wrapper are excluded so the sequence matches a walk of the
        function definition itself.
        """
        if self._blocks is None:
            blocks = []
            for node in self._index[1:]:
                for field in STATEMENT_BLOCK_FIELDS:
                    block = getattr(node, field, None)
                    if isinstance(block, list):
                        blocks.append(block)
            self._blocks = blocks
        return self._blocks

    def subtree_has_transfer(self, node):
        """True when ``node``'s subtree contains a control transfer.

        Equivalent to walking the subtree looking for
        :data:`CONTROL_TRANSFER_TYPES`, but answered from a one-time
        ancestor marking of every transfer statement, so repeated queries
        (one per ``if`` candidate) cost O(1).
        """
        if self._transfer_marks is None:
            marked = set()
            parents = self._parents
            for candidate in self._index:
                if isinstance(candidate, CONTROL_TRANSFER_TYPES):
                    cursor = candidate
                    while cursor is not None and id(cursor) not in marked:
                        marked.add(id(cursor))
                        cursor = parents.get(id(cursor))
            self._transfer_marks = marked
        return id(node) in self._transfer_marks

    def local_names(self):
        """Names bound inside the function (cached; see :func:`local_names`)."""
        if self._local_names is None:
            self._local_names = local_names(self.fdef)
        return self._local_names

    def init_block_length(self):
        """Cached :func:`init_block_length` of the function body."""
        if self._init_block_length is None:
            self._init_block_length = init_block_length(self.fdef)
        return self._init_block_length

    def body_positions(self):
        """``{id(stmt): index}`` over the top-level body (cached).

        Several scan preconditions key on a statement's position in
        ``fdef.body``; sharing one map keeps each per-function
        precomputation a dict lookup instead of a fresh dict build.
        """
        if self._body_positions is None:
            self._body_positions = {
                id(stmt): i for i, stmt in enumerate(self.fdef.body)
            }
        return self._body_positions

    def absolute_lineno(self, node):
        """Absolute source line of ``node`` in the original file."""
        lineno = getattr(node, "lineno", 1)
        return self.first_lineno + lineno - 1

    def fresh_copy(self):
        """Deep copy of the tree plus its node index, for mutation."""
        tree = copy.deepcopy(self.tree)
        return tree, index_nodes(tree)


def index_nodes(tree):
    """Deterministic list of every node in ``tree`` (``ast.walk`` order)."""
    return list(ast.walk(tree))


def is_simple_constant_assign(stmt):
    """True for ``name = <constant>`` statements."""
    return (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and isinstance(stmt.value, ast.Constant)
    )


def init_block_length(fdef):
    """Length of the C89-style initialization prefix of a function body.

    The FIT coding style initializes every local in a block of constant
    assignments right after the docstring; this returns how many body
    statements belong to that block (docstring excluded from the count
    semantics: it is skipped, not counted).
    """
    body = fdef.body
    start = 0
    if body and isinstance(body[0], ast.Expr) and isinstance(
        body[0].value, ast.Constant
    ) and isinstance(body[0].value.value, str):
        start = 1
    length = 0
    for stmt in body[start:]:
        if is_simple_constant_assign(stmt):
            length += 1
        else:
            break
    return start + length


def local_names(fdef):
    """Names bound inside the function: parameters plus assigned names."""
    names = [arg.arg for arg in fdef.args.args]
    seen = set(names)
    for node in ast.walk(fdef):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id not in seen:
                seen.add(node.id)
                names.append(node.id)
        elif isinstance(node, (ast.For,)) and isinstance(
            node.target, ast.Name
        ):
            if node.target.id not in seen:
                seen.add(node.target.id)
                names.append(node.target.id)
    return names


def node_contains(node, node_types):
    """True when ``node``'s subtree contains any of ``node_types``."""
    for child in ast.walk(node):
        if isinstance(child, node_types):
            return True
    return False


def call_target_name(call):
    """Best-effort name of the function a ``Call`` node invokes."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def is_infra_call(call):
    """Calls operators must never touch (simulation accounting)."""
    name = call_target_name(call)
    return name in INFRA_CALL_NAMES
