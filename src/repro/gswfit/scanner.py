"""Step 1 of G-SWFIT: scan the target and emit the fault-location map.

Scanning is pure analysis — the target is not modified.  The output is a
:class:`~repro.faults.faultload.Faultload` whose order is deterministic:
modules in link order, functions in export order (internal helpers after
the exports, since their code belongs to the services that call them),
fault types in Table 1 order, sites in source order.

The scan is **single-pass**: each function's AST is walked once (at
:class:`~repro.gswfit.astutils.FunctionImage` construction) and every
node is dispatched to all operators whose search pattern anchors on its
class, instead of one full traversal per Table-1 operator.  The emitted
faultload is identical — same locations, same order, same ``site_key``
values — to the per-operator scan, which remains available as
:func:`scan_function_per_operator` (the reference implementation the
equivalence tests and the hot-path bench compare against).

:func:`scan_module` reads its module once
(:class:`~repro.gswfit.astutils.ModuleSource`) and builds each
function's image from one parse of its stretch of the module's lines,
instead of one :func:`inspect.getsource` (a tokenize pass) and a parse
of the whole module besides each function's own.
"""

from repro.faults.faultload import Faultload
from repro.faults.location import FaultLocation
from repro.gswfit.astutils import FunctionImage, ModuleSource
from repro.gswfit.operators import collect_sites, operator_library

__all__ = [
    "scan_function",
    "scan_function_per_operator",
    "scan_module",
    "scan_build",
]


def _locations_from_sites(image, function, display_module, sites_by_type):
    """Render per-type site lists as FaultLocations, library order.

    ``sites_by_type`` is built from :func:`operator_library`, so its
    iteration order is Table 1 first, then dynamic (spec-defined) fault
    types in registration order.
    """
    locations = []
    for fault_type, sites in sites_by_type.items():
        for site in sites:
            locations.append(FaultLocation(
                module=image.module_name,
                display_module=display_module,
                function=function.__name__,
                fault_type=fault_type,
                site_key=site.key,
                lineno=site.lineno,
                description=site.description,
            ))
    return locations


def scan_function(function, module_name=None, display_module="",
                  source=None, fdef=None):
    """Scan one function with the full operator library in one pass.

    ``source`` and ``fdef`` are the function's source text and
    ``FunctionDef`` when the caller has them (see
    :class:`~repro.gswfit.astutils.FunctionImage`).  Returns a list of
    :class:`FaultLocation` in deterministic order.
    """
    image = FunctionImage(
        function, module_name=module_name, source=source, fdef=fdef
    )
    library = operator_library()
    buckets = collect_sites(image, library.values())
    sites_by_type = {
        fault_type: buckets[operator]
        for fault_type, operator in library.items()
    }
    return _locations_from_sites(
        image, function, display_module, sites_by_type
    )


def scan_function_per_operator(function, module_name=None,
                               display_module="", source=None, fdef=None):
    """Scan one function with one full traversal per operator.

    The historical 12-pass scan shape, kept as the reference the
    single-pass scanner is verified against (and benchmarked against in
    ``benchmarks/test_hot_path.py``).  Takes the arguments of
    :func:`scan_function`, and its output is identical.
    """
    image = FunctionImage(
        function, module_name=module_name, source=source, fdef=fdef
    )
    library = operator_library()
    sites_by_type = {
        fault_type: operator.find_sites(image)
        for fault_type, operator in library.items()
    }
    return _locations_from_sites(
        image, function, display_module, sites_by_type
    )


def scan_module(module, display_module=None):
    """Scan every export, then every internal helper, of a FIT module."""
    if display_module is None:
        display_module = getattr(module, "__module_name__", module.__name__)
    names = [*module.__exports__, *getattr(module, "__internal__", ())]
    module_source = ModuleSource(module)
    locations = []
    for name in names:
        function = getattr(module, name)
        # A function that is not a top-level def of this module's file
        # keeps inspect.getsource.
        source, fdef = module_source.definition(function) or (None, None)
        locations.extend(scan_function(
            function,
            module_name=module.__name__,
            display_module=display_module,
            source=source,
            fdef=fdef,
        ))
    return locations


def scan_build(build):
    """Scan a whole OS build; returns the build's raw faultload.

    This is the un-tuned faultload: the profiling phase later restricts it
    to the API functions the benchmark targets actually exercise.
    """
    locations = []
    for display_name, module in build.modules:
        locations.extend(scan_module(module, display_module=display_name))
    return Faultload(build.codename, locations,
                     name=f"gswfit-{build.codename}")
