"""Mutants edit path copies of a function's tree (tier-1).

:meth:`~repro.gswfit.astutils.FunctionImage.fresh_copy` copies only the
site's subtree and its ancestors and shares the rest of the image's
tree.  For every location of both builds, probed and plain, the mutated
tree and its code must equal those built the way a path copy replaces:
the same rule and probe applied to a fresh parse of the source, at the
node of the same walk position.  The image's own tree must come out of
all of its function's mutants unedited.  AST classes differ across
interpreters (3.12 adds ``type_params``), so this runs on each of them.
"""

import ast
from itertools import islice

import pytest

from repro.gswfit.mutator import FunctionSites, _plant_probe, build_mutant
from repro.gswfit.scanner import scan_build
from repro.ossim.builds import NT50, NT51
from tests.gswfit.test_mutant_cache import _code_shape


class _Reparsed:
    """An image whose ``fresh_copy`` re-parses the source."""

    def __init__(self, image):
        self.source = image.source

    def fresh_copy(self, position):
        tree = ast.parse(self.source)
        node = next(islice(ast.walk(tree), position, None))
        owner = next(
            (parent for parent in ast.walk(tree)
             if node in ast.iter_child_nodes(parent)),
            None,
        )
        return tree, owner, node


def _dump(tree):
    return ast.dump(tree, include_attributes=True)


def _function_code(tree, location, function):
    namespace = dict(function.__globals__)
    exec(compile(tree, f"<gswfit:{location.fault_id}>", "exec"), namespace)
    return namespace[function.__name__].__code__


def _groups():
    groups = {}
    for build in (NT50, NT51):
        for location in scan_build(build):
            groups.setdefault(
                (location.module, location.function), []
            ).append(location)
    return list(groups.values())


@pytest.mark.parametrize("probed", [False, True])
def test_path_copies_equal_a_reparse_and_leave_the_image_unedited(probed):
    built = 0
    for locations in _groups():
        sites = FunctionSites(locations[0])
        image = sites.image
        pristine = _dump(image.tree)
        for location in locations:
            operator, site = sites.find(location)
            tree = operator.mutate(image, site)
            reference = operator.mutate(_Reparsed(image), site)
            if probed:
                _plant_probe(tree, location.fault_id)
                _plant_probe(reference, location.fault_id)
            assert _dump(tree) == _dump(reference), location.fault_id
            function, code = build_mutant(
                location, probed=probed, sites=sites
            )
            assert _code_shape(code) == _code_shape(
                _function_code(reference, location, function)
            ), location.fault_id
            built += 1
        assert _dump(image.tree) == pristine, locations[0].function
    assert built == 394 + 610
