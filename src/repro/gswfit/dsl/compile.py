"""Compilation of validated operator specs into scanner operators.

:func:`compile_spec` turns an :class:`~repro.gswfit.dsl.spec.OperatorSpec`
into a :class:`MutationOperator` — the one operator class of the G-SWFIT
scanner, used for the twelve Table 1 fault types
(:mod:`~repro.gswfit.dsl.builtin_specs`) and for specs a user installs
alike.  The compiled operator plugs into both scan drivers (the
per-operator ``find_sites`` reference pass and the single-pass
:func:`~repro.gswfit.operators.base.collect_sites`): it resolves the
pattern's node-type names to the AST classes, instantiates the
predicate and mutation-rule vocabulary entries, and renders the
description template per site from a context computed off the anchor
node, the first time the site's description is read.
"""

import ast
import functools
import hashlib
import inspect
import string
import sys

from repro.faults.types import DynamicFaultType, FaultType
from repro.gswfit import activation, astutils, mutator, scanner
from repro.gswfit.dsl import mutations, predicates
from repro.gswfit.dsl.spec import OperatorSpec
from repro.gswfit.operators import base
from repro.gswfit.operators.base import Site, _iter_statement_lists

__all__ = ["MutationOperator", "compile_spec"]


def _call_of(node):
    """The Call node anchored at ``node`` (directly or Expr-wrapped)."""
    if isinstance(node, ast.Call):
        return node
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        return node.value
    return None


def _extract_test(node):
    test = getattr(node, "test", None)
    return ast.unparse(test) if isinstance(test, ast.AST) else None


def _extract_body_count(node):
    body = getattr(node, "body", None)
    return len(body) if isinstance(body, list) else None


def _extract_name(node):
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
        if isinstance(target, ast.Name):
            return target.id
    return None


def _extract_target(node):
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        return ast.unparse(node.targets[0])
    return None


def _extract_value(node):
    if isinstance(node, ast.Assign) and isinstance(
        node.value, ast.Constant
    ):
        return repr(node.value.value)
    return None


def _extract_call(node):
    call = _call_of(node)
    return ast.unparse(call) if call is not None else None


def _extract_func(node):
    call = _call_of(node)
    return ast.unparse(call.func) if call is not None else None


#: Base template placeholders → the per-node value extractor.  Each
#: returns None on a node whose shape lacks the key — a template naming
#: it then fails at scan time with a pointed error (the validator has
#: already confirmed the key is *known*, but cannot know every shape
#: the preconditions admit).
_EXTRACTORS = {
    "test": _extract_test,
    "body_count": _extract_body_count,
    "name": _extract_name,
    "target": _extract_target,
    "value": _extract_value,
    "call": _extract_call,
    "func": _extract_func,
}


@functools.cache
def _vocabulary_digest():
    """sha256 of the source of every module that shapes a scan or a mutant.

    Part of each operator's cache fingerprint, so it keys both the scan
    cache and the mutant cache.  A spec's behaviour is its canonical
    JSON *interpreted by* the DSL modules (predicates, mutation rules,
    this compiler, the scan drivers of ``operators/base``), and the
    scan and the mutants are shaped by more: ``astutils`` (the walk
    positions that are site keys, and the path copies mutants edit),
    ``scanner`` (location order), ``mutator`` (probe planting and
    compilation) and ``activation`` (the probe's hook name).  Editing
    any of them must invalidate cached scans and mutants.  Read once
    per process.
    """
    hasher = hashlib.sha256()
    for module in (
        predicates, mutations, sys.modules[__name__], base,
        astutils, scanner, mutator, activation,
    ):
        hasher.update(inspect.getsource(module).encode("utf-8"))
    return hasher.hexdigest()


def _matcher(image, checks, derive, state):
    """One per-function closure: anchor → the sites the rule derives.

    The preconditions fuse into a single short-circuit ``and`` chain
    ahead of the rule, so a candidate costs one closure call instead of
    a loop over (predicate, state) pairs.  The scan visits every
    candidate node of both builds, so the per-node cost is the part
    worth specializing.
    """
    if not checks:
        return lambda node: derive(image, node, state)
    if len(checks) == 1:
        (c0, s0), = checks
        return lambda node: (
            derive(image, node, state) if c0(image, node, s0) else ()
        )
    if len(checks) == 2:
        (c0, s0), (c1, s1) = checks
        return lambda node: (
            derive(image, node, state)
            if c0(image, node, s0) and c1(image, node, s1) else ()
        )
    if len(checks) == 3:
        (c0, s0), (c1, s1), (c2, s2) = checks
        return lambda node: (
            derive(image, node, state)
            if c0(image, node, s0) and c1(image, node, s1)
            and c2(image, node, s2) else ()
        )
    return lambda node: (
        derive(image, node, state)
        if all(check(image, node, s) for check, s in checks) else ()
    )


class MutationOperator:
    """A G-SWFIT mutation operator: a search pattern plus a mutation rule.

    Compiled from an :class:`~repro.gswfit.dsl.spec.OperatorSpec`: the
    pattern names what the search anchors on (:attr:`node_types`, or
    statement blocks when :attr:`scans_blocks`), the preconditions
    filter anchors, and the mutation rule derives the sites of a passing
    anchor and edits a path copy of the tree.
    """

    def __init__(self, spec):
        self.spec = spec
        name = spec.fault_type_name
        if spec.replaces:
            self.fault_type = FaultType(name)
        else:
            self.fault_type = DynamicFaultType(name)
        #: Concrete AST classes whose instances :meth:`visit_node`
        #: receives.  Exact classes, not bases — the single-pass driver
        #: dispatches by ``type(node)``.
        self.node_types = tuple(
            getattr(ast, type_name)
            for type_name in spec.pattern["node_types"]
        )
        #: When True, :meth:`visit_block` receives every statement list
        #: of the function (bodies, else/finally arms) in walk order.
        self.scans_blocks = spec.pattern["scans_blocks"]
        self._predicates = tuple(
            predicates.build_predicate(entry["kind"], entry)
            for entry in spec.preconditions
        )
        self._rule = mutations.build_mutation(
            spec.mutation["kind"], spec.mutation
        )
        # Compile the template into (literal, field, extractor) parts:
        # the per-site render is then one join over direct extractions,
        # no context dict and no format machinery.  Rule-provided keys
        # (extractor None) read the per-site context instead.
        rule_keys = self._rule.context_keys
        self._parts = tuple(
            (literal, field,
             None if field is None or field in rule_keys
             else _EXTRACTORS[field])
            for literal, field, _spec, _conv in string.Formatter().parse(
                spec.mutation["description"]
            )
        )

    def begin_scan(self, image):
        """Per-function state: a closure from anchor to derived sites.

        Preconditions and the rule prepare once per function; the
        closure is passed to every :meth:`visit_node` /
        :meth:`visit_block` call.
        """
        return _matcher(
            image,
            [
                (predicate.check, predicate.prepare(image))
                for predicate in self._predicates
            ],
            self._rule.enumerate,
            self._rule.prepare(image),
        )

    def visit_node(self, image, node, match):
        """Sites anchored on ``node`` (an instance of :attr:`node_types`).

        A site sits on the rule's target (the anchor unless the rule
        names a sub-node) and keeps the anchor's line number.  Its
        description is rendered from the anchor when first read.
        """
        found = match(node)
        if not found:
            return ()
        anchor_index = image.index_of(node)
        lineno = image.absolute_lineno(node)
        describe = self._describe
        return [
            Site(
                node_index=(
                    anchor_index if target is None
                    else image.index_of(target)
                ),
                payload=payload,
                description=(describe, node, context),
                lineno=lineno,
            )
            for target, payload, context in found
        ]

    def visit_block(self, image, block, match):
        """Sites anchored on the statement list ``block``.

        Block rules always name their target statement, whose line the
        site takes.
        """
        describe = self._describe
        return [
            Site(
                node_index=image.index_of(target),
                payload=payload,
                description=(describe, block, context),
                lineno=image.absolute_lineno(target),
            )
            for target, payload, context in match(block)
        ]

    def _describe(self, node, context):
        """Render the description template for one site.

        Called on the first read of :attr:`Site.description`.  A rule's
        context value is text or an AST node, unparsed here.
        """
        pieces = []
        for literal, field, extractor in self._parts:
            if literal:
                pieces.append(literal)
            if field is None:
                continue
            if extractor is None:
                value = context[field]
                if isinstance(value, ast.AST):
                    value = ast.unparse(value)
            else:
                value = extractor(node)
                if value is None:
                    self._missing_placeholder(field, node)
            pieces.append(value if type(value) is str else str(value))
        return "".join(pieces)

    def _missing_placeholder(self, field, node):
        raise ValueError(
            f"operator spec {self.fault_type.value!r}: description "
            f"placeholder {{{field}}} is undefined for the "
            f"{type(node).__name__} node at this site — tighten the "
            "preconditions so only nodes providing it match"
        )

    def find_sites(self, image):
        """Scan ``image`` with this operator alone (reference pass).

        Performs one full tree traversal — the historical per-operator
        scan shape.  :func:`~repro.gswfit.operators.base.collect_sites`
        produces the same sites for the whole library in a single shared
        pass; use that on hot paths.
        """
        state = self.begin_scan(image)
        sites = []
        if self.node_types:
            for node in ast.walk(image.fdef):
                if isinstance(node, self.node_types):
                    sites.extend(self.visit_node(image, node, state))
        if self.scans_blocks:
            for _owner, _field, block in _iter_statement_lists(image.fdef):
                sites.extend(self.visit_block(image, block, state))
        return sites

    def mutate(self, image, site):
        """Return a mutated copy of the image's tree, ready to compile.

        Every rule leaves the tree located: new statements are located
        where they are spliced in, and new expressions come from
        ``ast.parse`` or are operator nodes, which have no location.
        """
        tree, owner, node = image.fresh_copy(site.node_index)
        self._rule.apply(tree, owner, node, site.payload)
        return tree

    def fingerprint_payload(self):
        """Text that captures this operator's behaviour for cache keys.

        The canonical spec JSON plus a digest of the vocabulary source
        that interprets it.
        """
        return self.spec.canonical_json() + _vocabulary_digest()

    def __repr__(self):
        return f"<MutationOperator ({self.fault_type.value})>"


def compile_spec(spec):
    """Compile ``spec`` (an :class:`OperatorSpec` or raw dict) to an operator."""
    if not isinstance(spec, OperatorSpec):
        spec = OperatorSpec.from_dict(spec)
    return MutationOperator(spec)
