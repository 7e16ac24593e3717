"""AST plumbing shared by the scanner and the mutator.

The central object is :class:`FunctionImage`: the parsed, indexed source of
one FIT function.  Nodes are addressed by their position in a deterministic
walk of the tree, so a site found during scanning can be relocated in any
later image of the same source during mutation, and — because the walk only
depends on the source text — the same ``site_key`` resolves to the same
construct across processes and runs.

The image is built with a single breadth-first walk (byte-for-byte the
order of :func:`ast.walk`) that records, per node: its walk position, its
parent, and its class.  Everything the operator library asks about a
function during a scan — position lookup, "all ``If`` nodes", "all
statement blocks", "the ``Compare`` nodes under this test", "does this
subtree transfer control", the function's local names, the names read
after each top-level statement — is answered from those side tables
instead of re-walking the tree, which is what makes the single-pass
scanner one traversal per function instead of one per operator.

A scan or a mutant warm-up reads each module once
(:class:`ModuleSource`) and parses each function's stretch of it once,
building the image from that ``FunctionDef``: no line is parsed twice,
and no :func:`inspect.getsource` (a tokenize pass) is made per function.

A mutant edits a path copy of the tree (:meth:`FunctionImage.fresh_copy`):
only the site's subtree and its ancestors are copied, and the rest is
shared with the image, which is never edited.
"""

import ast
import inspect
import textwrap
import types
from operator import itemgetter

__all__ = [
    "FunctionImage",
    "ModuleSource",
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
        Dedented source text of the function definition: the
        ``source`` argument when given (a slice of the module text the
        caller has already read), else :func:`inspect.getsource` of
        ``function``.
    tree:
        ``ast.Module`` containing exactly the function definition: the
        ``fdef`` argument when given (the function's ``FunctionDef``,
        located as in a parse of ``source``; see
        :meth:`ModuleSource.definition`), else a parse of
        :attr:`source`.
    fdef:
        The ``ast.FunctionDef`` node inside :attr:`tree`.
    first_lineno:
        Absolute line number of the ``def`` line in the original file.
    """

    def __init__(self, function, module_name=None, source=None, fdef=None):
        self.function = function
        self.module_name = module_name or function.__module__
        if fdef is None:
            if source is None:
                source = inspect.getsource(function)
            self.source = textwrap.dedent(source)
            self.tree = ast.parse(self.source)
            if not self.tree.body or not isinstance(
                self.tree.body[0], ast.FunctionDef
            ):
                raise ValueError(
                    f"{function!r} does not parse to a single function def"
                )
        else:
            self.source = source
            self.tree = ast.Module(body=[fdef], type_ignores=[])
        self.fdef = self.tree.body[0]
        self.first_lineno = function.__code__.co_firstlineno
        # One breadth-first walk fills every index the scan needs: the
        # position list (``ast.walk`` order: each node's ``_fields`` in
        # turn, list items in place, as ``ast.iter_child_nodes`` yields
        # them), the per-class buckets and the parent map.  The list is
        # its own queue.
        index = [self.tree]
        by_type = {}
        parents = {}
        append = index.append
        for node in index:
            try:
                by_type[type(node)].append(node)
            except KeyError:
                by_type[type(node)] = [node]
            for field in node._fields:
                value = getattr(node, field, None)
                if isinstance(value, list):
                    for item in value:
                        if isinstance(item, ast.AST):
                            parents[id(item)] = node
                            append(item)
                elif isinstance(value, ast.AST):
                    parents[id(value)] = node
                    append(value)
        self._index = index
        self._positions = {
            id(node): position for position, node in enumerate(index)
        }
        self._by_type = by_type
        self._parents = parents
        # Lazy caches (filled on first use; a mutant build never needs them).
        self._blocks = None
        self._transfer_marks = None
        self._local_names = None
        self._names_loaded_from = None
        self._below = {}
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
        function definition itself.  Only the buckets of classes with a
        block field are read, merged by walk position.
        """
        if self._blocks is None:
            positions = self._positions
            owners = []
            for cls, nodes in self._by_type.items():
                fields = [
                    field for field in STATEMENT_BLOCK_FIELDS
                    if field in cls._fields
                ]
                if fields and cls is not ast.Module:
                    owners.extend(
                        (positions[id(node)], node, fields)
                        for node in nodes
                    )
            owners.sort(key=itemgetter(0))
            blocks = []
            for _position, node, fields in owners:
                for field in fields:
                    block = getattr(node, field)
                    if isinstance(block, list):
                        blocks.append(block)
            self._blocks = blocks
        return self._blocks

    def nodes_below(self, node, node_type):
        """Every node of exactly ``node_type`` in ``node``'s subtree
        (``node`` included), in walk order: what a walk of the subtree
        finds, since a breadth-first walk keeps each subtree's order.

        The first query for a class charges each of its nodes to every
        ancestor through the parent map; later queries are a lookup.
        """
        table = self._below.get(node_type)
        if table is None:
            table = self._below[node_type] = {}
            parents = self._parents
            for found in self.nodes_of_type(node_type):
                cursor = found
                while cursor is not None:
                    table.setdefault(id(cursor), []).append(found)
                    cursor = parents.get(id(cursor))
        return table.get(id(node), ())

    def subtree_has_transfer(self, node):
        """True when ``node``'s subtree contains a control transfer.

        Equivalent to walking the subtree looking for
        :data:`CONTROL_TRANSFER_TYPES`, but answered from a one-time
        ancestor marking of every transfer statement (read from the type
        buckets), so repeated queries (one per ``if`` candidate) cost
        O(1).
        """
        if self._transfer_marks is None:
            marked = set()
            parents = self._parents
            for transfer_type in CONTROL_TRANSFER_TYPES:
                for candidate in self.nodes_of_type(transfer_type):
                    cursor = candidate
                    while cursor is not None and id(cursor) not in marked:
                        marked.add(id(cursor))
                        cursor = parents.get(id(cursor))
            self._transfer_marks = marked
        return id(node) in self._transfer_marks

    def local_names(self):
        """Names bound inside the function (cached).

        Equal to :func:`local_names` of :attr:`fdef`, order included:
        the ``Store`` names and ``for`` targets come from the type
        buckets, merged by walk position.
        """
        if self._local_names is None:
            positions = self._positions
            bound = [
                (positions[id(node)], node.id)
                for node in self.nodes_of_type(ast.Name)
                if isinstance(node.ctx, ast.Store)
            ]
            bound.extend(
                (positions[id(node)], node.target.id)
                for node in self.nodes_of_type(ast.For)
                if isinstance(node.target, ast.Name)
            )
            bound.sort()
            names = [arg.arg for arg in self.fdef.args.args]
            seen = set(names)
            for _position, name in bound:
                if name not in seen:
                    seen.add(name)
                    names.append(name)
            self._local_names = names
        return self._local_names

    def names_loaded_from(self):
        """Per top-level statement, the names ``Load``-read from it on.

        Entry ``p`` holds every name read in ``fdef.body[p:]``, and the
        last entry (``len(fdef.body)``) is empty.  Each ``Load`` name is
        charged to the top-level statement above it by climbing the
        parent map; a climb stops at the first ancestor already charged.
        Cached.
        """
        if self._names_loaded_from is None:
            body = self.fdef.body
            owners = dict(self.body_positions())
            owners[id(self.fdef)] = owners[id(self.tree)] = None
            parents = self._parents
            loads = [set() for _ in body]
            for name in self.nodes_of_type(ast.Name):
                if not isinstance(name.ctx, ast.Load):
                    continue
                trail = []
                key = id(name)
                while key not in owners:
                    trail.append(key)
                    key = id(parents[key])
                position = owners[key]
                for step in trail:
                    owners[step] = position
                if position is not None:
                    loads[position].add(name.id)
            suffix = [set()] * (len(body) + 1)
            for position in range(len(body) - 1, -1, -1):
                suffix[position] = suffix[position + 1] | loads[position]
            self._names_loaded_from = suffix
        return self._names_loaded_from

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

    def fresh_copy(self, position):
        """A private tree for one mutant: ``(tree, owner, node)``.

        ``node`` is the copy of the node at walk ``position`` and
        ``owner`` the copy of its parent (None for the root).  A path
        copy of :attr:`tree`: the node's subtree is cloned, each
        ancestor is copied one level deep (list fields included) with
        its child on the path swapped for the copy, and every other
        subtree is shared with :attr:`tree`.  A mutation rule edits only
        inside the node's subtree or the block list of ``owner`` that
        holds it, and the activation probe only ``fdef.body``; all of
        those are copies, so :attr:`tree` is never edited.
        """
        node = self._index[position]
        site = copy = _clone(node)
        owner = None
        parent = self._parents.get(id(node))
        while parent is not None:
            copy = _copy_with(parent, node, copy)
            if owner is None:
                owner = copy
            node = parent
            parent = self._parents.get(id(node))
        return copy, owner, site


class ModuleSource:
    """A module's source, read on first use, and its top-level functions
    parsed from it one at a time.

    A top-level function starts at column 0 on its ``co_firstlineno``
    (its first decorator, or the ``def``).  :meth:`definition` parses a
    function from there up to the next such start, so a module's lines
    are each parsed at most once, and one function's tree is held at a
    time, not the module's: a whole-module parse peaks at about twice
    the module's tree while it converts.
    """

    def __init__(self, module):
        self.module = module
        self._filename = getattr(module, "__file__", None)
        self._lines = None
        self._ends = None

    def _read(self):
        self._lines, _ = inspect.getsourcelines(self.module)
        starts = set()
        for value in vars(self.module).values():
            if not isinstance(value, types.FunctionType):
                continue
            code = value.__code__
            first = code.co_firstlineno
            line = self._lines[first - 1:first]
            if (code.co_filename == self._filename and line
                    and not line[0][:1].isspace()):
                starts.add(first)
        starts = sorted(starts)
        # Each stretch runs up to the next start; the last, to the end.
        self._ends = dict(zip(starts, starts[1:] + [len(self._lines) + 1]))

    def definition(self, function):
        """``(source, fdef)`` of ``function``, or None when it is not a
        top-level ``def`` of the module.

        ``source`` runs from the function's first line to its
        ``end_lineno``, which is what :func:`inspect.getsource` returns
        for it, and ``fdef`` is its ``FunctionDef``, located as in a
        parse of ``source``.  Each call parses anew, so each tree goes to
        one image.
        """
        code = function.__code__
        if code.co_filename != self._filename:
            return None
        if self._ends is None:
            self._read()
        first = code.co_firstlineno
        end = self._ends.get(first)
        if end is None:
            return None
        lines = self._lines[first - 1:end - 1]
        try:
            body = ast.parse("".join(lines)).body
        except SyntaxError:
            # The next start lies inside a statement: a lambda at
            # column 0 in a bracket.
            return None
        fdef = body[0] if body else None
        if not isinstance(fdef, ast.FunctionDef) or min(
            [fdef.lineno] + [dec.lineno for dec in fdef.decorator_list]
        ) != 1:
            return None
        return "".join(lines[:fdef.end_lineno]), fdef


def _clone(node):
    """A deep copy of ``node``'s subtree, locations included."""
    cls = node.__class__
    copy = cls.__new__(cls)
    fields = copy.__dict__
    for key, value in node.__dict__.items():
        if isinstance(value, ast.AST):
            value = _clone(value)
        elif isinstance(value, list):
            value = [
                _clone(item) if isinstance(item, ast.AST) else item
                for item in value
            ]
        fields[key] = value
    return copy


def _copy_with(node, child, replacement):
    """``node`` copied one level deep, with ``child`` swapped for
    ``replacement``; its list fields are new lists."""
    cls = node.__class__
    copy = cls.__new__(cls)
    fields = copy.__dict__
    for key, value in node.__dict__.items():
        if value is child:
            value = replacement
        elif isinstance(value, list):
            value = [
                replacement if item is child else item for item in value
            ]
        fields[key] = value
    return copy


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
    """Names bound inside the function: parameters plus assigned names.

    A walk of ``fdef``; :meth:`FunctionImage.local_names` answers the
    same from the image's walk, and the tests compare the two.
    """
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
