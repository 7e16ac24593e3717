"""Operator framework: sites, scan drivers, tree surgery helpers.

An operator (:class:`~repro.gswfit.dsl.compile.MutationOperator`)
declares the AST node classes its search pattern anchors on
(``node_types``), or that it scans statement blocks (``scans_blocks``),
and implements ``visit_node`` / ``visit_block`` plus a per-function
``begin_scan`` that precomputes shared state.  Two drivers consume that
protocol:

* ``MutationOperator.find_sites`` — the per-operator reference pass:
  one full tree traversal dispatching to this operator only.  This is
  the historical 12-pass scan shape; the scanner equivalence tests and
  the hot-path bench use it as the baseline.
* :func:`collect_sites` — the single-pass driver: one indexed walk per
  function (already paid for at :class:`FunctionImage` construction),
  dispatching every node to all interested operators at once.  The
  per-operator site order is identical to ``find_sites`` by
  construction, because both deliver candidates in walk order to the
  same visit methods.
"""

import ast

from repro.gswfit.astutils import STATEMENT_BLOCK_FIELDS

__all__ = [
    "Site",
    "collect_sites",
    "replace_statement",
    "remove_statements",
]


class Site:
    """One place where an operator can emulate its fault type.

    ``node_index`` addresses the anchor node in the deterministic walk of
    the function's AST; ``payload`` carries operator-specific detail (an
    operand position, a statement count, a replacement name).  Together
    they form the stable ``site_key``.

    ``description`` is the text, or a ``(render, node, context)`` triple
    that :attr:`description` renders as ``render(node, context)`` the
    first time it is read: the scanner reads it for every location, and
    relocating a site for a mutant never does.  Sites compare and hash
    by the rendered text.
    """

    __slots__ = ("node_index", "payload", "lineno", "_description")

    def __init__(self, node_index, payload="", description="", lineno=0):
        self.node_index = node_index
        self.payload = payload
        self.lineno = lineno
        self._description = description

    @property
    def description(self):
        description = self._description
        if type(description) is not str:
            render, node, context = description
            description = self._description = render(node, context)
        return description

    def _compared(self):
        return (self.node_index, self.payload, self.description,
                self.lineno)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self):
        return (
            f"Site(node_index={self.node_index!r}, "
            f"payload={self.payload!r}, "
            f"description={self.description!r}, lineno={self.lineno!r})"
        )

    @property
    def key(self):
        if self.payload:
            return f"{self.node_index}#{self.payload}"
        return str(self.node_index)

    @classmethod
    def parse_key(cls, key):
        """Split a site key back into (node_index, payload)."""
        if "#" in key:
            index_text, payload = key.split("#", 1)
        else:
            index_text, payload = key, ""
        return int(index_text), payload


def collect_sites(image, operators):
    """One shared pass over ``image`` for every operator at once.

    Returns ``{operator: [sites]}`` where each list is identical —
    contents and order — to what ``operator.find_sites(image)`` returns,
    at the cost of zero tree traversals: candidates come from the typed
    node buckets the image indexed at construction, and statement blocks
    from its cached block list.
    """
    buckets = {}
    dispatch = {}
    block_ops = []
    for operator in operators:
        state = operator.begin_scan(image)
        sites = buckets[operator] = []
        for node_type in operator.node_types:
            dispatch.setdefault(node_type, []).append(
                (operator, sites, state)
            )
        if operator.scans_blocks:
            block_ops.append((operator, sites, state))
    for node_type, interested in dispatch.items():
        if len(interested) == 1:
            operator, sites, state = interested[0]
            for node in image.nodes_of_type(node_type):
                sites.extend(operator.visit_node(image, node, state))
        else:
            for node in image.nodes_of_type(node_type):
                for operator, sites, state in interested:
                    sites.extend(operator.visit_node(image, node, state))
    if block_ops:
        for block in image.statement_blocks():
            for operator, sites, state in block_ops:
                sites.extend(operator.visit_block(image, block, state))
    return buckets


def _iter_statement_lists(tree):
    """Yield every statement list in ``tree`` (bodies, else/finally arms).

    The whole-tree walk of the per-operator reference pass
    (``find_sites``); a mutant's splice reads its owner's fields only.
    """
    for node in ast.walk(tree):
        for field in STATEMENT_BLOCK_FIELDS:
            block = getattr(node, field, None)
            if isinstance(block, list):
                yield node, field, block


def _splice(tree, owner, first, count, replacement):
    """Replace ``count`` statements from ``first`` (by identity) in the
    block of ``owner`` that holds it with ``replacement``, and locate the
    new ones.

    ``owner`` is the copy of ``first``'s parent that
    :meth:`~repro.gswfit.astutils.FunctionImage.fresh_copy` returns, so
    the block is a private list.  An emptied block gets a ``pass`` so the
    function still compiles — the machine-code analogue is NOP-ing the
    instruction range.
    """
    for field in STATEMENT_BLOCK_FIELDS:
        block = getattr(owner, field, None)
        if not isinstance(block, list):
            continue
        for position, stmt in enumerate(block):
            if stmt is first:
                block[position:position + count] = replacement
                if not block:
                    block.append(ast.Pass())
                _locate(tree, owner, block)
                return True
    raise ValueError("statement not found in its owner's blocks")


def _locate(tree, owner, block):
    """Give each unlocated statement of ``block`` the location
    ``ast.fix_missing_locations`` would: its owner's.

    Only the new statements' subtrees are walked, so an edited tree
    compiles without a location pass over the whole tree.
    """
    for stmt in block:
        if hasattr(stmt, "lineno"):
            continue
        if not hasattr(owner, "lineno"):
            # A match case or the module: the location would come from
            # further up.
            ast.fix_missing_locations(tree)
            return
        ast.fix_missing_locations(ast.copy_location(stmt, owner))


def replace_statement(tree, owner, target, replacement):
    """Replace statement ``target`` (by identity) in a block of ``owner``
    with the ``replacement`` list."""
    return _splice(tree, owner, target, 1, list(replacement))


def remove_statements(tree, owner, first, count):
    """Remove ``count`` consecutive statements of a block of ``owner``,
    starting at ``first``."""
    return _splice(tree, owner, first, count, [])
