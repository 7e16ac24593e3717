"""Per-operator tests: search patterns, preconditions, mutation semantics.

Each operator is exercised against small crafted functions written in the
FIT coding style; the mutant is compiled and *executed* to verify the
emulated fault actually behaves like the intended programming error.
"""

import ast

import pytest

from repro.faults.types import FaultType
from repro.gswfit.astutils import FunctionImage
from repro.gswfit.dsl import compile_spec
from repro.gswfit.mutator import FunctionSites
from repro.gswfit.operators import base, operator_for, operator_library
from repro.gswfit.scanner import scan_build
from repro.ossim.builds import NT50


# ----------------------------------------------------------------------
# Crafted targets (FIT style: init block, status returns, and-conditions)
# ----------------------------------------------------------------------

def sample_validation(ctx, size, flags=0):
    result = 0
    rounded = 0
    attempts = 3
    if size < 0:
        return -1
    if size > 1000 and flags != 0:
        return -2
    rounded = size + 8
    if flags == 2:
        rounded = rounded * 2
    helper_note(ctx, rounded)
    result = rounded
    return result


def helper_note(ctx, value):
    return None


def sample_bookkeeping(ctx, items):
    total = 0
    count = 0
    label = "sum"
    for item in items:
        total = total + item
        count = count + 1
    helper_note(ctx, total)
    helper_note(ctx, count)
    total = total + len(label)
    return (total, count)


def _image(function):
    return FunctionImage(function)


def _mutant(function, fault_type, site_index=0):
    image = _image(function)
    operator = operator_for(fault_type)
    sites = operator.find_sites(image)
    assert sites, f"no {fault_type.value} sites in {function.__name__}"
    tree = operator.mutate(image, sites[site_index])
    namespace = dict(function.__globals__)
    exec(compile(tree, "<mutant>", "exec"), namespace)
    return namespace[function.__name__], sites[site_index]


# ----------------------------------------------------------------------
# Library shape
# ----------------------------------------------------------------------

def test_library_covers_all_twelve_types():
    library = operator_library()
    assert set(library) == set(FaultType)
    for fault_type, operator in library.items():
        assert operator.fault_type is fault_type


def test_sites_have_stable_keys():
    image = _image(sample_validation)
    for operator in operator_library().values():
        for site in operator.find_sites(image):
            index, payload = type(site).parse_key(site.key)
            assert index == site.node_index
            assert payload == site.payload


# ----------------------------------------------------------------------
# MVI
# ----------------------------------------------------------------------

def test_mvi_targets_used_initializations_only():
    image = _image(sample_validation)
    sites = operator_for(FaultType.MVI).find_sites(image)
    described = " ".join(site.description for site in sites)
    assert "result = 0" in described
    assert "rounded = 0" in described
    # 'attempts' is never read again -> equivalent mutant, excluded.
    assert "attempts" not in described


def test_mvi_mutant_masked_on_reassigning_path():
    """Removing an init that every path overwrites is latent, not fatal."""
    mutant, _site = _mutant(sample_validation, FaultType.MVI)
    assert mutant(None, 5) == 13


def test_mvi_mutant_raises_unbound_local_on_uncovered_path():
    def target(ctx, flag):
        value = 0
        if flag:
            value = 5
        return value + 1

    mutant, _site = _mutant(target, FaultType.MVI)
    assert mutant(None, True) == 6
    with pytest.raises(UnboundLocalError):
        mutant(None, False)


# ----------------------------------------------------------------------
# MVAV / MVAE
# ----------------------------------------------------------------------

def test_mvav_requires_interesting_constant_outside_init():
    image = _image(sample_validation)
    sites = operator_for(FaultType.MVAV).find_sites(image)
    assert sites == []  # no non-zero constant reassignments here


def test_mvav_finds_and_removes_constant_reassignment():
    def target(ctx, mode):
        code = 0
        if mode == 1:
            code = 55
        return code

    mutant, _site = _mutant(target, FaultType.MVAV)
    assert target(None, 1) == 55
    assert mutant(None, 1) == 0  # the update is gone


def test_mvae_removes_expression_assignment():
    mutant, site = _mutant(sample_validation, FaultType.MVAE, 0)
    assert "rounded" in site.description
    # rounded keeps its init value 0, so result becomes 0 (flags==0 path).
    assert mutant(None, 5) == 0


def test_mvae_skips_call_expressions():
    def target(ctx, size):
        value = 0
        value = helper_note(ctx, size)
        return value

    sites = operator_for(FaultType.MVAE).find_sites(_image(target))
    assert sites == []  # RHS contains a call: MFC family, not MVAE


# ----------------------------------------------------------------------
# WVAV
# ----------------------------------------------------------------------

def test_wvav_perturbs_nonzero_constant():
    def target(ctx):
        limit = 10
        zero = 0
        return limit + zero

    image = _image(target)
    sites = operator_for(FaultType.WVAV).find_sites(image)
    assert len(sites) == 1  # zero excluded
    mutant, _site = _mutant(target, FaultType.WVAV)
    assert mutant(None) == 11  # off by one


def test_wvav_flips_booleans_and_trims_strings():
    from repro.gswfit.dsl.mutations import perturb_constant

    assert perturb_constant(True) is False
    assert perturb_constant(False) is True
    assert perturb_constant(5) == 6
    assert perturb_constant("abc") == "ab"
    assert perturb_constant("x") == "xx"
    assert perturb_constant(1.5) == 4.0


# ----------------------------------------------------------------------
# MIA / MIFS / MLAC / WLEC
# ----------------------------------------------------------------------

def test_mia_unconditionalizes_guard():
    image = _image(sample_validation)
    sites = operator_for(FaultType.MIA).find_sites(image)
    assert len(sites) == 3
    mutant, site = _mutant(sample_validation, FaultType.MIA, 0)
    assert "size < 0" in site.description
    assert mutant(None, 5) == -1  # guard body now always runs


def test_mia_requires_no_else():
    def target(ctx, flag):
        value = 0
        if flag:
            value = 1
        else:
            value = 2
        return value

    sites = operator_for(FaultType.MIA).find_sites(_image(target))
    assert sites == []


def test_mifs_excludes_returning_bodies():
    image = _image(sample_validation)
    sites = operator_for(FaultType.MIFS).find_sites(image)
    assert len(sites) == 1  # only the 'flags == 2' block has no return
    mutant, _site = _mutant(sample_validation, FaultType.MIFS)
    assert mutant(None, 5, flags=2) == 13  # doubling block gone


def test_mifs_respects_body_size_limit():
    def target(ctx, flag):
        a = 0
        if flag:
            a = a + 1
            a = a + 1
            a = a + 1
            a = a + 1
            a = a + 1
            a = a + 1
        return a

    sites = operator_for(FaultType.MIFS).find_sites(_image(target))
    assert sites == []  # 6 statements > MAX_BODY


def test_mlac_drops_one_and_operand():
    image = _image(sample_validation)
    sites = operator_for(FaultType.MLAC).find_sites(image)
    assert len(sites) == 2  # two operands of the single and-chain
    mutant, site = _mutant(sample_validation, FaultType.MLAC, 1)
    assert "flags != 0" in site.description
    # Condition is now 'size > 1000' alone.
    assert mutant(None, 2000, flags=0) == -2
    assert sample_validation(None, 2000, flags=0) == 2008


def test_mlac_three_operand_chain_keeps_two():
    def target(ctx, a, b, c):
        if a > 0 and b > 0 and c > 0:
            return 1
        return 0

    image = _image(target)
    sites = operator_for(FaultType.MLAC).find_sites(image)
    assert len(sites) == 3
    operator = operator_for(FaultType.MLAC)
    tree = operator.mutate(image, sites[0])
    source = ast.unparse(tree)
    assert "b > 0 and c > 0" in source


def test_wlec_boundary_swap():
    def target(ctx, n):
        if n < 10:
            return "small"
        return "big"

    mutant, _site = _mutant(target, FaultType.WLEC)
    assert target(None, 10) == "big"
    assert mutant(None, 10) == "small"  # '<' became '<='
    assert mutant(None, 11) == "big"


def test_wlec_ignores_equality_and_loops():
    def target(ctx, n):
        if n == 3:
            return 1
        for i in range(n):
            pass
        return 0

    sites = operator_for(FaultType.WLEC).find_sites(_image(target))
    assert sites == []


# ----------------------------------------------------------------------
# MFC / MLPC
# ----------------------------------------------------------------------

def test_mfc_removes_statement_call():
    mutant, site = _mutant(sample_validation, FaultType.MFC)
    assert "helper_note" in site.description
    assert mutant(None, 5) == 13  # value unchanged, side effect gone


def test_mfc_excludes_charge_calls():
    def target(ctx, n):
        ctx.charge(100)
        helper_note(ctx, n)
        return n

    sites = operator_for(FaultType.MFC).find_sites(_image(target))
    assert len(sites) == 1
    assert "helper_note" in sites[0].description


def test_mlpc_removes_consecutive_simple_statements():
    image = _image(sample_bookkeeping)
    sites = operator_for(FaultType.MLPC).find_sites(image)
    assert sites  # the helper_note/helper_note/total run qualifies
    mutant, _site = _mutant(sample_bookkeeping, FaultType.MLPC)
    original = sample_bookkeeping(None, [1, 2, 3])
    assert mutant(None, [1, 2, 3]) != original


def test_mlpc_skips_init_block():
    def target(ctx):
        a = 0
        b = 0
        c = 0
        return a + b + c

    sites = operator_for(FaultType.MLPC).find_sites(_image(target))
    assert sites == []


# ----------------------------------------------------------------------
# WAEP / WPFV
# ----------------------------------------------------------------------

def test_waep_perturbs_arithmetic_argument():
    def target(ctx, n):
        return helper_len(ctx, n + 2)

    mutant, _site = _mutant(target, FaultType.WAEP)
    assert target(None, 10) == 12
    assert mutant(None, 10) == 8  # '+' became '-'


def test_waep_ignores_plain_arguments():
    def target(ctx, n):
        return helper_len(ctx, n)

    sites = operator_for(FaultType.WAEP).find_sites(_image(target))
    assert sites == []


def test_wpfv_swaps_local_variable_argument():
    def target(ctx, first, second):
        checked = 0
        checked = helper_pick(first, second)
        return checked

    image = _image(target)
    sites = operator_for(FaultType.WPFV).find_sites(image)
    assert len(sites) == 1  # one site per call
    mutant, site = _mutant(target, FaultType.WPFV)
    assert target(None, "a", "b") == "a"
    swapped = mutant(None, "a", "b")
    assert swapped != "a"


def test_wpfv_never_touches_ctx():
    def target(ctx, value):
        return helper_note(ctx, value)

    image = _image(target)
    for site in operator_for(FaultType.WPFV).find_sites(image):
        assert "'ctx'" not in site.description.split("becomes")[0]


def helper_len(ctx, value):
    return value


def helper_pick(first, second):
    return first


# ----------------------------------------------------------------------
# Mutation mechanics
# ----------------------------------------------------------------------

def test_mutation_never_alters_original_image():
    image = _image(sample_validation)
    before = ast.dump(image.tree)
    operator = operator_for(FaultType.MIA)
    sites = operator.find_sites(image)
    operator.mutate(image, sites[0])
    assert ast.dump(image.tree) == before


def test_emptied_body_gets_pass():
    def target(ctx, flag):
        if flag:
            helper_note(ctx, 1)
        return 0

    image = _image(target)
    operator = operator_for(FaultType.MFC)
    sites = operator.find_sites(image)
    tree = operator.mutate(image, sites[0])
    compile(tree, "<x>", "exec")  # must stay syntactically valid
    assert "pass" in ast.unparse(tree)


def located_target(ctx, flag, mode):
    total = 0
    if flag and mode > 1:
        helper_note(ctx, 1)
    match mode:
        case 1:
            helper_note(ctx, 2)
    total = total + mode
    return total


def _location_spec(node_types, **mutation):
    return compile_spec({
        "fault_type": "TLOC",
        "description": "location test",
        "nature": "missing",
        "odc_type": "Checking",
        "pattern": {"node_types": node_types},
        "preconditions": [],
        "mutation": {**mutation, "description": "edit"},
    })


def _assert_located(operator, image, site, monkeypatch):
    """The mutant tree is located as a whole-tree location pass over an
    edit that located nothing would leave it."""
    tree = operator.mutate(image, site)
    with monkeypatch.context() as patched:
        patched.setattr(base, "_locate", lambda tree, owner, block: None)
        reference = ast.fix_missing_locations(operator.mutate(image, site))
    assert ast.dump(tree, include_attributes=True) == ast.dump(
        reference, include_attributes=True
    )
    compile(tree, "<mutant>", "exec")


def test_every_rule_locates_its_mutant_as_a_whole_tree_pass(monkeypatch):
    """Rules the built-ins do not use, over a function whose edits empty
    an ``if`` body and a ``match`` case body; then every site of the
    built-ins on one build."""
    image = _image(located_target)
    operators = [
        _location_spec(["Expr"], kind="delete-node"),
        _location_spec(["Expr"], kind="wrap-condition", source="flag"),
        _location_spec(["Return"], kind="insert-before",
                       source="total = 0\nhelper_note(ctx, 3)"),
        _location_spec(["Assign"], kind="replace-field", field="value",
                       source="mode * 2"),
        _location_spec(["If"], kind="swap-bool-operator"),
        _location_spec(["Assign"], kind="swap-binop-operator"),
        _location_spec(["If"], kind="replace-with-body"),
    ]
    for operator in operators:
        sites = operator.find_sites(image)
        assert sites, operator.spec.mutation["kind"]
        for site in sites:
            _assert_located(operator, image, site, monkeypatch)
    groups = {}
    for location in scan_build(NT50):
        key = (location.module, location.function)
        if key not in groups:
            groups[key] = FunctionSites(location)
        operator, site = groups[key].find(location)
        _assert_located(operator, groups[key].image, site, monkeypatch)
