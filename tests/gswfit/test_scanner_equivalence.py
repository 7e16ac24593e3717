"""Single-pass scanner equivalence (tier-1).

The single-pass scanner is a pure optimisation: for every function of
both OS builds it must emit byte-identical fault locations — same sites,
same ``site_key`` values, same deterministic order — as the per-operator
reference scan (:func:`scan_function_per_operator`, one full AST
traversal per Table-1 operator, the historical implementation).

Both scans ask the same :class:`FunctionImage` about the function, so
the image's answers, which come from its one walk, are checked here
against the ``ast.walk`` traversals they replace.
"""

import ast
import importlib.util
import inspect
import json

from repro.gswfit import scanner
from repro.gswfit.astutils import (
    CONTROL_TRANSFER_TYPES,
    FunctionImage,
    ModuleSource,
    local_names,
    node_contains,
)
from repro.gswfit.operators import collect_sites, operator_library
from repro.gswfit.operators.base import _iter_statement_lists
from repro.gswfit.scanner import (
    scan_build,
    scan_function,
    scan_function_per_operator,
)


def _fit_functions(build):
    for display_name, module in build.modules:
        names = list(module.__exports__)
        names.extend(getattr(module, "__internal__", []))
        for name in names:
            yield display_name, module, getattr(module, name)


def _as_json(locations):
    return json.dumps([loc.to_dict() for loc in locations])


def test_single_pass_matches_reference_per_function(build):
    for display_name, module, function in _fit_functions(build):
        fast = scan_function(
            function,
            module_name=module.__name__,
            display_module=display_name,
        )
        reference = scan_function_per_operator(
            function,
            module_name=module.__name__,
            display_module=display_name,
        )
        assert _as_json(fast) == _as_json(reference), function.__qualname__


def test_scan_build_byte_identical_to_reference(build, monkeypatch):
    fast = scan_build(build)
    monkeypatch.setattr(scanner, "scan_function", scan_function_per_operator)
    reference = scan_build(build)
    assert fast.os_codename == reference.os_codename
    assert _as_json(fast.locations) == _as_json(reference.locations)


def test_scan_sources_equal_inspect_getsource(build):
    """``scan_module`` parses each module once and gives every function
    its slice of the module's lines; the slice is what
    ``inspect.getsource`` returns for it."""
    sources = {}
    for _display_name, module, function in _fit_functions(build):
        if module not in sources:
            sources[module] = ModuleSource(module)
        definition = sources[module].definition(function)
        assert definition is not None, function.__qualname__
        assert definition[0] == inspect.getsource(function), (
            function.__qualname__
        )


_EDGES = """\
from os.path import join


def keep(function):
    return function


@keep
def decorated(a):
    return a


def cut_short(a):
    return a


handler = (
lambda: 0
)

if join:
    def nested(a):
        return a


def last(a):
    # a comment inside
    return (a,
            a)
"""


def test_module_source_parses_only_top_level_defs(tmp_path):
    """A function whose stretch cannot be cut cleanly from the module,
    or that is not a top-level ``def`` of its file, gets no definition:
    the image then reads ``inspect.getsource``."""
    path = tmp_path / "edges.py"
    path.write_text(_EDGES)
    spec = importlib.util.spec_from_file_location("edges", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    source = ModuleSource(module)
    for name in ("keep", "decorated", "last"):
        function = getattr(module, name)
        text, fdef = source.definition(function)
        assert text == inspect.getsource(function), name
        assert fdef.name == name
    # The next start, a lambda at column 0, lies inside a statement.
    assert source.definition(module.cut_short) is None
    assert source.definition(module.handler) is None
    assert source.definition(module.nested) is None
    assert source.definition(module.join) is None


def _walk_positions(image):
    return [
        (type(node).__name__, getattr(node, "lineno", None),
         getattr(node, "col_offset", None))
        for node in image._index
    ]


def _described_sites(image):
    buckets = collect_sites(image, operator_library().values())
    return [
        (site.key, site.lineno, site.description)
        for sites in buckets.values() for site in sites
    ]


def test_module_source_images_equal_getsource_images(build):
    """An image built from the ``FunctionDef`` of one parse of its
    stretch of the module is the image a parse of ``inspect.getsource``
    gives: same tree with locations, source, walk and sites."""
    sources = {}
    for _display_name, module, function in _fit_functions(build):
        if module not in sources:
            sources[module] = ModuleSource(module)
        source, fdef = sources[module].definition(function)
        ours = FunctionImage(function, source=source, fdef=fdef)
        alone = FunctionImage(function)
        name = function.__qualname__
        assert ours.source == alone.source, name
        assert ast.dump(ours.tree, include_attributes=True) == ast.dump(
            alone.tree, include_attributes=True
        ), name
        assert _walk_positions(ours) == _walk_positions(alone), name
        assert _described_sites(ours) == _described_sites(alone), name


# ----------------------------------------------------------------------
# The image's answers equal the walks they replace
# ----------------------------------------------------------------------
def _awkward(a, b=len, *rest, key=None, **extra):
    """Constructs the FIT functions may lack: a ``for`` at the depth of a
    later ``Store`` name, tuple targets, loads outside the body, a nested
    def, a lambda, comprehensions and every kind of statement block."""
    total = 0
    if a:
        for i in range(a):
            total += i
        seen = [j for j in rest if j]
    late = key
    while b:
        for (k, v) in extra.items():
            total = k
        break
    else:
        total = -1
    try:
        value = b(rest)
    except ValueError as error:
        value = error
    finally:
        total = total or late

    def inner(x=total):
        return x + value

    return lambda q=late: inner(q) if seen else v


def _images(build):
    for _display_name, module, function in _fit_functions(build):
        yield FunctionImage(function, module_name=module.__name__)
    yield FunctionImage(_awkward)


def _names_loaded_from_reference(fdef):
    """The names ``Load``-read in ``fdef.body[p:]``, for each ``p``: one
    ``ast.walk`` per top-level statement."""
    body = fdef.body
    suffix = [set()] * (len(body) + 1)
    for position in range(len(body) - 1, -1, -1):
        loads = set(suffix[position + 1])
        for sub in ast.walk(body[position]):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                loads.add(sub.id)
        suffix[position] = loads
    return suffix


def test_image_walk_is_ast_walk_order(build):
    for image in _images(build):
        walked = list(ast.walk(image.tree))
        assert len(image._index) == len(walked), image.fdef.name
        assert all(
            ours is theirs for ours, theirs in zip(image._index, walked)
        ), image.fdef.name


def test_image_local_names_equal_the_walk(build):
    for image in _images(build):
        assert image.local_names() == local_names(image.fdef), (
            image.fdef.name
        )


def test_image_names_loaded_from_equal_per_statement_walks(build):
    for image in _images(build):
        assert image.names_loaded_from() == _names_loaded_from_reference(
            image.fdef
        ), image.fdef.name


def test_image_statement_blocks_are_the_walks_blocks(build):
    for image in _images(build):
        walked = [
            block for _owner, _field, block
            in _iter_statement_lists(image.fdef)
        ]
        ours = image.statement_blocks()
        assert len(ours) == len(walked), image.fdef.name
        assert all(
            mine is theirs for mine, theirs in zip(ours, walked)
        ), image.fdef.name


def test_image_subtree_answers_equal_subtree_walks(build):
    for image in _images(build):
        for node in ast.walk(image.fdef):
            subtree = list(ast.walk(node))
            for node_type in (ast.Compare, ast.Call):
                below = image.nodes_below(node, node_type)
                walked = [sub for sub in subtree if type(sub) is node_type]
                assert len(below) == len(walked), image.fdef.name
                assert all(
                    ours is theirs for ours, theirs in zip(below, walked)
                ), image.fdef.name
            assert image.subtree_has_transfer(node) == node_contains(
                node, CONTROL_TRANSFER_TYPES
            ), image.fdef.name
