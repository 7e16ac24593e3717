"""Validation of operator specs, with path-precise errors.

The validator turns an untrusted dict into the *canonical* spec form —
defaults filled, key order fixed — or raises
:class:`SpecValidationError` whose message pins the offending value to
a JSONPath-style location (``$.pattern.node_types[0]: unknown AST node
type 'Assgn'``).  Canonicalization is what makes the spec digest stable:
two spellings of the same spec (defaults omitted vs written out)
canonicalize identically, so they share a digest, a cache fingerprint
and a campaign key.

The vocabulary being validated against lives next door: predicate kinds
and their parameter schemas in :mod:`~repro.gswfit.dsl.predicates`,
mutation kinds in :mod:`~repro.gswfit.dsl.mutations`.  ``source``
parameters (injected code) are syntax-checked here, at validation time,
so apply-time parse failures cannot happen for a validated spec.
"""

import ast
import re
import string

from repro.faults.types import ConstructNature, FaultType, ODCType
from repro.gswfit.dsl.mutations import MUTATIONS
from repro.gswfit.dsl.predicates import PREDICATES

__all__ = ["SpecValidationError", "validate_spec"]

_BUILTIN_NAMES = frozenset(member.value for member in FaultType)

_FAULT_TYPE_RE = re.compile(r"^[A-Z][A-Z0-9_]{1,15}$")
_FIELD_PATH_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*$")

#: Placeholders available to every description template (computed from
#: the anchor node when present); rules add their own on top.
BASE_PLACEHOLDERS = frozenset({
    "test", "body_count", "name", "value", "target", "call", "func",
})

_TOP_LEVEL_KEYS = frozenset({
    "fault_type", "replaces", "description", "nature", "odc_type",
    "field_coverage_percent", "pattern", "preconditions", "mutation",
})


class SpecValidationError(ValueError):
    """An operator spec failed validation.

    ``path`` is the JSONPath-style location of the problem inside the
    spec document; ``source`` names the file (or other origin) when
    known.  ``str(exc)`` is the user-facing message the CLI prints
    before exiting rc-2.
    """

    def __init__(self, path, message, source=None):
        self.path = path
        self.message = message
        self.source = source
        prefix = f"{source}: " if source else ""
        super().__init__(f"{prefix}{path}: {message}")


def _require(condition, path, message, source):
    if not condition:
        raise SpecValidationError(path, message, source)


def _check_type(value, kind, path, source):
    checks = {
        "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "number": lambda v: isinstance(v, (int, float))
        and not isinstance(v, bool),
        "string": lambda v: isinstance(v, str),
        "bool": lambda v: isinstance(v, bool),
    }
    _require(
        checks[kind](value), path,
        f"expected {kind}, got {type(value).__name__}", source,
    )


def _validate_params(entry, schema, kind, path, source):
    """Validate one predicate/mutation entry's parameters against ``schema``.

    Returns the canonical params dict: every declared parameter present,
    defaults filled, in schema order.
    """
    reserved = {"kind", "description"}
    accepted = ", ".join(schema) if schema else "none"
    for key in entry:
        if key in reserved:
            continue
        _require(
            key in schema, f"{path}.{key}",
            f"{kind!r} accepts no parameter {key!r} "
            f"(accepts: {accepted})", source,
        )
    params = {}
    for name, spec in schema.items():
        if name in entry:
            _check_type(entry[name], spec.kind, f"{path}.{name}", source)
            params[name] = entry[name]
        else:
            _require(
                not spec.required, path,
                f"{kind!r} requires parameter {name!r}", source,
            )
            params[name] = spec.default
    return params


def _validate_pattern(pattern, source):
    _require(
        isinstance(pattern, dict), "$.pattern",
        f"expected object, got {type(pattern).__name__}", source,
    )
    for key in pattern:
        _require(
            key in ("node_types", "scans_blocks"), f"$.pattern.{key}",
            "unknown key (pattern has: node_types, scans_blocks)", source,
        )
    scans_blocks = pattern.get("scans_blocks", False)
    _check_type(scans_blocks, "bool", "$.pattern.scans_blocks", source)
    node_types = pattern.get("node_types", [])
    if scans_blocks:
        _require(
            node_types == [], "$.pattern.scans_blocks",
            "scans_blocks is not supported together with node_types: a "
            "pattern anchors on AST nodes or on statement blocks", source,
        )
    else:
        _require(
            isinstance(node_types, list) and node_types,
            "$.pattern.node_types",
            "a non-empty list of AST node type names is required", source,
        )
    for position, name in enumerate(node_types):
        path = f"$.pattern.node_types[{position}]"
        _require(isinstance(name, str), path,
                 f"expected string, got {type(name).__name__}", source)
        resolved = getattr(ast, name, None)
        _require(
            isinstance(resolved, type) and issubclass(resolved, ast.AST),
            path, f"unknown AST node type {name!r}", source,
        )
    return {"node_types": list(node_types), "scans_blocks": scans_blocks}


def _validate_preconditions(preconditions, source):
    _require(
        isinstance(preconditions, list), "$.preconditions",
        f"expected list, got {type(preconditions).__name__}", source,
    )
    canonical = []
    for position, entry in enumerate(preconditions):
        path = f"$.preconditions[{position}]"
        _require(isinstance(entry, dict), path,
                 f"expected object, got {type(entry).__name__}", source)
        kind = entry.get("kind")
        _require(isinstance(kind, str) and kind, f"{path}.kind",
                 "a predicate kind string is required", source)
        _require(
            kind in PREDICATES, f"{path}.kind",
            f"unknown predicate {kind!r} "
            f"(known: {', '.join(sorted(PREDICATES))})", source,
        )
        _require("description" not in entry, f"{path}.description",
                 "predicates take no description", source)
        _, schema = PREDICATES[kind]
        params = _validate_params(entry, schema, kind, path, source)
        canonical.append({"kind": kind, **params})
    return canonical


def _template_placeholders(template, path, source):
    try:
        parsed = list(string.Formatter().parse(template))
    except ValueError as exc:
        raise SpecValidationError(path, f"bad template: {exc}", source)
    names = set()
    for _literal, field, format_spec, conversion in parsed:
        if field is None:
            continue
        _require(
            field and field.isidentifier(), path,
            f"template placeholders must be plain names, got {field!r}",
            source,
        )
        _require(
            not format_spec and not conversion, path,
            f"placeholder {{{field}}} may not use format specs or "
            "conversions", source,
        )
        names.add(field)
    return names


def _validate_mutation(mutation, scans_blocks, source):
    _require(
        isinstance(mutation, dict), "$.mutation",
        f"expected object, got {type(mutation).__name__}", source,
    )
    kind = mutation.get("kind")
    _require(isinstance(kind, str) and kind, "$.mutation.kind",
             "a mutation kind string is required", source)
    _require(
        kind in MUTATIONS, "$.mutation.kind",
        f"unknown mutation {kind!r} "
        f"(known: {', '.join(sorted(MUTATIONS))})", source,
    )
    cls, schema, source_mode = MUTATIONS[kind]
    _require(
        cls.scans_blocks == scans_blocks, "$.mutation.kind",
        f"{kind!r} anchors on "
        f"{'statement blocks' if cls.scans_blocks else 'AST nodes'}; "
        f"set $.pattern.scans_blocks to {str(cls.scans_blocks).lower()}",
        source,
    )
    params = _validate_params(mutation, schema, kind, "$.mutation", source)
    if "field" in params and params["field"] is not None:
        _require(
            _FIELD_PATH_RE.match(params["field"]) is not None,
            "$.mutation.field",
            f"not a dotted attribute path: {params['field']!r}", source,
        )
    if source_mode is not None and params.get("source") is not None:
        try:
            ast.parse(params["source"], mode=source_mode)
        except SyntaxError as exc:
            raise SpecValidationError(
                "$.mutation.source",
                f"not valid Python ({source_mode} mode): {exc.msg}",
                source,
            )
    template = mutation.get("description", "")
    _check_type(template, "string", "$.mutation.description", source)
    # Base placeholders are read off an anchor node; a block has none.
    allowed = (
        cls.context_keys if cls.scans_blocks
        else BASE_PLACEHOLDERS | cls.context_keys
    )
    for name in sorted(_template_placeholders(
            template, "$.mutation.description", source)):
        _require(
            name in allowed, "$.mutation.description",
            f"unknown placeholder {{{name}}} (available for "
            f"{kind!r}: {', '.join(sorted(allowed))})", source,
        )
    return {"kind": kind, "description": template, **params}


def validate_spec(data, source=None):
    """Validate ``data`` and return the canonical spec dict.

    Raises :class:`SpecValidationError` with a ``$.path``-precise
    message on the first problem found.
    """
    _require(isinstance(data, dict), "$",
             f"expected object, got {type(data).__name__}", source)
    for key in data:
        _require(key in _TOP_LEVEL_KEYS, f"$.{key}",
                 "unknown key", source)

    fault_type = data.get("fault_type")
    _require(isinstance(fault_type, str) and fault_type, "$.fault_type",
             "a fault type id string is required", source)
    _require(
        _FAULT_TYPE_RE.match(fault_type) is not None, "$.fault_type",
        f"{fault_type!r} is not a valid id (2-16 chars, uppercase "
        "letters/digits/underscore, starting with a letter)", source,
    )

    replaces = data.get("replaces", False)
    _check_type(replaces, "bool", "$.replaces", source)
    if fault_type in _BUILTIN_NAMES:
        _require(
            replaces, "$.fault_type",
            f"{fault_type!r} collides with a built-in fault type; set "
            '"replaces": true to re-express the built-in, or pick a '
            "new id", source,
        )
    else:
        _require(
            not replaces, "$.replaces",
            f"replaces is true but {fault_type!r} is not a built-in "
            "fault type", source,
        )

    canonical = {"fault_type": fault_type, "replaces": replaces}

    metadata_keys = (
        "description", "nature", "odc_type", "field_coverage_percent"
    )
    if replaces:
        for key in metadata_keys:
            _require(
                key not in data, f"$.{key}",
                "a re-expression inherits the built-in type's metadata; "
                "drop this key", source,
            )
    else:
        description = data.get("description")
        _require(
            isinstance(description, str) and description.strip(),
            "$.description",
            "a new fault type requires a description", source,
        )
        nature = data.get("nature")
        natures = [member.value for member in ConstructNature]
        _require(
            nature in natures, "$.nature",
            f"a new fault type requires a nature, one of: "
            f"{', '.join(natures)}", source,
        )
        odc_type = data.get("odc_type")
        odc_types = [member.value for member in ODCType]
        _require(
            odc_type in odc_types, "$.odc_type",
            f"a new fault type requires an odc_type, one of: "
            f"{', '.join(odc_types)}", source,
        )
        coverage = data.get("field_coverage_percent", 0.0)
        _check_type(coverage, "number", "$.field_coverage_percent", source)
        _require(coverage >= 0, "$.field_coverage_percent",
                 "must be non-negative", source)
        canonical.update({
            "description": description,
            "nature": nature,
            "odc_type": odc_type,
            "field_coverage_percent": float(coverage),
        })

    _require("pattern" in data, "$.pattern", "a pattern is required",
             source)
    pattern = canonical["pattern"] = _validate_pattern(
        data["pattern"], source
    )
    preconditions = canonical["preconditions"] = _validate_preconditions(
        data.get("preconditions", []), source
    )
    _require(
        not (preconditions and pattern["scans_blocks"]), "$.preconditions",
        "block-scanning specs take no preconditions (predicates test "
        "AST nodes)", source,
    )
    _require("mutation" in data, "$.mutation",
             "a mutation rule is required", source)
    canonical["mutation"] = _validate_mutation(
        data["mutation"], pattern["scans_blocks"], source
    )
    return canonical
