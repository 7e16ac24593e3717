"""Mutant construction: from a fault location to a swappable code object.

A mutant is compiled from the *current source* of the target function by
re-running the operator's search pattern and applying its mutation rule at
the recorded site.  The resulting code object is validated to be
shape-compatible with the original (same signature, no closure cells) so a
``__code__`` swap is always safe.

The parse and the site search depend only on the function, so they are
done once per :class:`FunctionSites`; every mutant of that function then
edits a path copy of that parse
(:meth:`~repro.gswfit.astutils.FunctionImage.fresh_copy`), which shares
all but the site's subtree and its ancestors with the image and leaves
the image unedited.  A warm-up hands each group its function's source
and ``FunctionDef``, read from its module's text
(:class:`~repro.gswfit.astutils.ModuleSource`); a lone location is a
group of its own, which reads its function's source with
:func:`inspect.getsource` and parses it.  A mutant built alone and one
built with the rest of its function's locations are the same code.

``probed=True`` additionally plants a one-statement activation probe at
the top of the mutated function (see :mod:`repro.gswfit.activation`):
the probe records that the faulty code actually executed.  Unprobed
mutants are byte-identical to what the harness always produced, so
activation tracking is zero-cost when disabled.
"""

import ast
import importlib
import inspect
import sys

from repro.gswfit.activation import ACTIVATION_HOOK
from repro.gswfit.astutils import FunctionImage
from repro.gswfit.operators import collect_sites, operator_for

__all__ = [
    "FunctionSites",
    "MutantError",
    "build_image",
    "build_mutant",
    "function_source",
    "mutated_source",
    "resolve_function",
    "resolve_module",
]


class MutantError(Exception):
    """The fault location does not resolve to a buildable mutant."""


def resolve_module(module_name):
    """The live module object for ``module_name``.

    ``sys.modules`` first: the FIT modules are always already imported
    by the time anything injects into them, and the full import
    machinery (finders, spec resolution, lock) is pure overhead on the
    inject/restore hot path.  Falls back to a real import for a module
    seen for the first time.
    """
    module = sys.modules.get(module_name)
    if module is None:
        module = importlib.import_module(module_name)
    return module


def resolve_function(location):
    """Return the live function object for ``location``."""
    module = resolve_module(location.module)
    function = getattr(module, location.function, None)
    if function is None:
        raise MutantError(
            f"{location.module} has no function {location.function!r}"
        )
    return function


# (module, function) -> (code object, its source text).  A cold mutant
# build reads each function's source once: the cache's fingerprint
# hashes the text and the image parses the same text.  Cleared with the
# mutant cache (:func:`repro.gswfit.cache.clear_mutant_cache`).
source_memo = {}


def function_source(location, function):
    """The source text of ``location``'s live ``function``, read once per
    code object."""
    key = (location.module, location.function)
    entry = source_memo.get(key)
    if entry is None or entry[0] is not function.__code__:
        entry = (function.__code__, inspect.getsource(function))
        source_memo[key] = entry
    return entry[1]


def build_image(location, definition=None):
    """The image of the target function.

    ``definition`` is the function's ``(source, FunctionDef)`` as
    :meth:`~repro.gswfit.astutils.ModuleSource.definition` parses it;
    without it, the function's current source is read and parsed.
    """
    function = resolve_function(location)
    source, fdef = definition or (function_source(location, function), None)
    return FunctionImage(
        function, module_name=location.module, source=source, fdef=fdef,
    )


class FunctionSites:
    """One target function's image and its sites, by key, per operator.

    Built for the first location of a ``(module, function)`` group and
    shared by the rest: the image is built on the first :meth:`find`
    (a group whose mutants are all cached builds none), from
    ``definition`` when given (see :func:`build_image`), and each
    operator's sites are collected once, on its first location.  Finding
    a site renders no description.
    """

    def __init__(self, location, definition=None):
        self._location = location
        self._definition = definition
        self._image = None
        self._tables = {}

    @property
    def image(self):
        if self._image is None:
            self._image = build_image(self._location, self._definition)
            self._definition = None
        return self._image

    def find(self, location):
        """``(operator, site)`` that ``location`` names in this function."""
        operator = operator_for(location.fault_type)
        table = self._tables.get(operator)
        if table is None:
            table = self._tables[operator] = {}
            for site in collect_sites(self.image, (operator,))[operator]:
                table.setdefault(site.key, site)
        site = table.get(location.site_key)
        if site is None:
            raise MutantError(
                f"site {location.site_key!r} for "
                f"{location.fault_type.value} not found in "
                f"{location.module}.{location.function} — "
                f"was the FIT source modified since the scan?"
            )
        return operator, site


def _mutated_tree(location, sites=None):
    if sites is None:
        sites = FunctionSites(location)
    operator, site = sites.find(location)
    image = sites.image
    return image, operator.mutate(image, site)


def mutated_source(location):
    """Source text of the mutant (documentation and debugging aid)."""
    _image, tree = _mutated_tree(location)
    return ast.unparse(tree)


def _plant_probe(tree, fault_id):
    """Insert the activation probe as the mutant's first statement.

    The hook name resolves through the live FIT module's globals at call
    time; the injector installs/removes the hook there so the probe is
    only ever reachable while its fault is applied.  The probe takes the
    ``def`` node's location, the one ``ast.fix_missing_locations`` would
    give it, so the rest of the tree is not walked again.
    """
    probe = ast.Expr(
        value=ast.Call(
            func=ast.Name(id=ACTIVATION_HOOK, ctx=ast.Load()),
            args=[ast.Constant(value=fault_id)],
            keywords=[],
        )
    )
    fdef = tree.body[0]
    fdef.body.insert(
        0, ast.fix_missing_locations(ast.copy_location(probe, fdef))
    )


def build_mutant(location, probed=False, sites=None):
    """Compile the mutant; returns ``(original_function, mutant_code)``.

    ``sites`` is the :class:`FunctionSites` of ``location``'s function
    when the caller builds several of its mutants; without it the
    location is a group of its own.
    """
    image, tree = _mutated_tree(location, sites)
    if probed:
        _plant_probe(tree, location.fault_id)
    function = image.function
    filename = f"<gswfit:{location.fault_id}>"
    code = compile(tree, filename, "exec")
    namespace = dict(function.__globals__)
    exec(code, namespace)  # noqa: S102 - compiling our own mutant
    mutant_function = namespace[function.__name__]
    mutant_code = mutant_function.__code__
    original_code = function.__code__
    if mutant_code.co_freevars or original_code.co_freevars:
        raise MutantError(
            f"{location.function} uses closure cells; FIT functions must "
            f"be closure-free for code swapping"
        )
    if mutant_code.co_argcount != original_code.co_argcount:
        raise MutantError(
            f"mutation changed the signature of {location.function}"
        )
    return function, mutant_code
