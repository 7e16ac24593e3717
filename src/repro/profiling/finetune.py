"""Faultload fine-tuning (Section 2.4 of the paper).

Restricts a raw scanned faultload to the locations inside the API functions
selected by cross-target profiling.  Internal helper functions of a module
stay in the faultload whenever at least one of the module's selected
exports exists — at machine-code level that helper code *is* part of the
selected services (called or inlined subroutines), so excluding it would
under-approximate the injectable surface.
"""

__all__ = ["tuned_faultload"]


def tuned_faultload(raw_faultload, selected_functions, build):
    """Restrict ``raw_faultload`` to ``selected_functions`` (+ helpers)."""
    allowed = set(selected_functions)
    for _display, module in build.modules:
        exports = set(module.__exports__)
        if exports & allowed:
            allowed |= set(getattr(module, "__internal__", []))
    return raw_faultload.restrict_to_functions(allowed)
