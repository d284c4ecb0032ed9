"""Package layout rules that no single module's tests can see."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import ferrofem

PACKAGE = Path(ferrofem.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _source_module(node: ast.ImportFrom):
    """Package-relative module an import reads from: "" for the package, None if foreign."""
    if node.level:
        return node.module or ""
    if node.module == "ferrofem" or (node.module or "").startswith("ferrofem."):
        return node.module.removeprefix("ferrofem").lstrip(".")
    return None


def _cross_module_private_uses(path: Path) -> list:
    """``module._name`` accesses and ``from .module import _name`` imports in one file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = {}  # local name -> the package module it is bound to
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or _source_module(node) is None:
            continue
        source = _source_module(node)
        for alias in node.names:
            if not source:  # from . import module
                modules[alias.asname or alias.name] = alias.name
            elif _private(alias.name) and source != path.stem:
                found.append(f"{path.name}:{node.lineno} imports {source}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and modules.get(node.value.id, path.stem) != path.stem
                and _private(node.attr)):
            found.append(f"{path.name}:{node.lineno} uses {node.value.id}.{node.attr}")
    return found


def test_modules_scanned():
    assert {"assembly", "driver", "verify", "cli"} <= set(MODULES)


def test_no_module_uses_another_modules_private_names():
    # quadrature, for one, is decided in assembly alone: a module that needs
    # a rule degree asks a public assembly function for the load vector
    found = [use for stem in MODULES for use in _cross_module_private_uses(PACKAGE / f"{stem}.py")]
    assert found == []


def _references(target: str) -> list:
    """Every reference to the name ``target`` in the package: called, imported or aliased."""
    found = []
    for stem in MODULES:
        path = PACKAGE / f"{stem}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name == target:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} uses {target}")
    return found


def test_one_data_path_into_the_solve():
    # the case is the one data object a solve reads (its constants, flux,
    # boundary velocity and force); the config and the CLI keep no second
    # copy of the constants and no second data mode
    from ferrofem import cli, driver
    from ferrofem.material import MaterialParams

    found = []
    for stem in ("driver", "assembly"):
        text = (PACKAGE / f"{stem}.py").read_text()
        found += [f"{stem}.py uses {name}" for name in ("h_ext", "body_force") if name in text]
    assert found == []
    assert [f.name for f in dataclasses.fields(driver.FhdConfig)] == [
        "n", "case", "pair", "picard_iters", "oseen_iters"]
    material = {f.name for f in dataclasses.fields(MaterialParams)}
    run_fields = [f.name for f in dataclasses.fields(cli.RunConfig)]
    assert [name for name in run_fields if name in material] == []
    assert not hasattr(cli.RunConfig, "material_params")


def test_no_module_builds_block_diagonal_matrices():
    # a vector operator that acts on each component alike is stored as its
    # one scalar block and applied per component (fespace.componentwise);
    # a doubled matrix would be a second representation of the same operator
    assert _references("block_diag") == []


def test_no_module_calls_scipy_gmres():
    # the Schur solve runs linalg's own GMRES loop; scipy's beside it would be
    # a second GMRES path with its own stopping test (the parity check against
    # scipy is in tests/test_linalg.py)
    assert _references("gmres") == []


def test_only_linalg_factor_calls_splu():
    # every factorization goes through linalg.factor, the one place that
    # chooses the ordering and the pivoting
    assert [use.split(":")[0] for use in _references("splu")] == ["linalg.py"]


def test_no_module_calls_dense_eigensolvers():
    # the inf-sup constants come from one sparse shift-invert eigensolve in
    # verify; a dense Cholesky/eigh path beside it would be a second answer
    # to the same question (the dense oracle is in tests/test_verify.py)
    assert [use for name in ("eigh", "cho_factor", "cho_solve") for use in _references(name)] == []


def _counted_loop(node) -> bool:
    """A ``while`` loop, or a ``for`` loop over ``range(...)``."""
    if isinstance(node, ast.While):
        return True
    return (isinstance(node, ast.For) and isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Name) and node.iter.func.id == "range")


def _own_nodes(func):
    """The nodes of a function's body, without those of functions nested in it."""
    stack = [func]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, (ast.FunctionDef, ast.Lambda)))


def test_driver_has_one_sweep_loop():
    # both nonlinear chains run driver's one fixed-point loop, whose first
    # step is the seed; a second sweep loop would be a second place for the
    # sweep record (reports, updates) to drift
    path = PACKAGE / "driver.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    looping = [func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               and any(_counted_loop(node) for node in _own_nodes(func))]
    assert len(looping) == 1, looping


def test_no_seed_wrappers_or_sweep_tolerance():
    # the seed is the loop's first step, and the chains run fixed sweep counts
    names = ("picard_tol", "initial_guess_phi", "initial_guess_velocity")
    assert [use for name in names for use in _references(name)] == []


def test_every_eigsh_call_passes_its_own_factor():
    # without OPinv, eigsh factors A - sigma M itself with scipy's default
    # splu (COLAMD and partial pivoting), not the package's symmetric one
    calls = []
    for stem in MODULES:
        path = PACKAGE / f"{stem}.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and "eigsh" in (
                getattr(node.func, "attr", None), getattr(node.func, "id", None)
            ):
                calls.append((f"{path.name}:{node.lineno}",
                              any(kw.arg == "OPinv" for kw in node.keywords)))
    assert calls, "no eigsh call found"
    assert [where for where, ok in calls if not ok] == []


# parameter names that would carry a block size into a kernel
_BLOCK_SIZE_PARAM = re.compile(
    r"(block|chunk)s?_?(size|len)|n_?(block|chunk)s|per_(block|chunk)|element_block", re.IGNORECASE)


def test_element_block_is_a_constant_not_a_knob():
    # the per-point kernels' block size is one constant, read where the
    # blocks are cut; a parameter or a second reader would make it a setting
    uses, params = [], []
    for stem in MODULES:
        path = PACKAGE / f"{stem}.py"
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}  # node id -> name of the innermost function whose body holds it
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.Lambda)):
                args = func.args
                for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                            *filter(None, (args.vararg, args.kwarg))]:
                    if _BLOCK_SIZE_PARAM.search(arg.arg):
                        params.append(f"{path.name}:{func.lineno} {arg.arg}")
            if isinstance(func, ast.FunctionDef):
                for stmt in func.body:
                    owner.update((id(node), func.name) for node in ast.walk(stmt))
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name == "ELEMENT_BLOCK" or getattr(node, "name", None) == "ELEMENT_BLOCK":
                ctx = type(getattr(node, "ctx", None)).__name__
                uses.append((stem, owner.get(id(node), "<module>"), ctx))
    assert sorted(uses) == [("fespace", "<module>", "Store"), ("fespace", "element_blocks", "Load")]
    assert params == []


def test_one_scatter_mechanism():
    # every matrix is summed into its space's CSR pattern by bincount; a COO
    # triplet path beside it would be a second scatter with its own order
    assert [use for name in ("coo_matrix", "tocoo") for use in _references(name)] == []


# the public functions of each layer: perfbench wraps every one of them in a
# span, so a new one would change its span names, trace.spans and the
# assembly time behind assembly.elements_per_s; helpers stay private
PUBLIC_FUNCTIONS = {
    "assembly": ["assemble_convection", "assemble_edge_mass", "assemble_edge_rhs",
                 "assemble_ns_rhs", "assemble_scalar_mass", "assemble_scalar_rhs",
                 "assemble_stokes_blocks", "assemble_weighted_stiffness",
                 "elliptic_rhs_manufactured"],
    "cli": ["cmd_check", "cmd_run", "cmd_table", "format_csv", "main", "parse_config",
            "report_to_json"],
    "driver": ["oseen_ns", "picard_elliptic", "recover_fields", "solve_fhd"],
    "fespace": ["build_space", "componentwise", "edge_moments", "element_blocks",
                "eval_field", "gradient_matrix", "interpolate_edge", "interpolate_nodal",
                "quad_points", "tabulate"],
    "linalg": ["factor", "reduce_dirichlet", "solve_saddle", "solve_spd"],
    "material": ["alpha", "beta", "beta_prime_fd", "langevin", "magnetization"],
    "mesh2d": ["build_uniform_square", "from_arrays", "mesh_size"],
    "refelem": ["eval_basis", "quadrature"],
    "verify": ["case_2d_l0", "case_2d_l1", "check_branch_crossovers",
               "check_commuting_diagram", "check_convection_skew", "check_cr_kernel",
               "check_form_bounds", "check_infsup", "check_material_bounds",
               "check_stability_bounds", "convergence_orders", "curl_inf", "field_error",
               "infsup_constant", "measure_errors", "project_gradient",
               "run_convergence_study", "run_property_battery"],
}


def test_no_layer_gains_a_public_function():
    found = {}
    for stem in MODULES:
        if stem.startswith("__"):
            continue
        mod = importlib.import_module(f"ferrofem.{stem}")
        found[stem] = sorted(name for name, fn in vars(mod).items()
                             if not name.startswith("_") and inspect.isfunction(fn)
                             and fn.__module__ == mod.__name__)
    assert found == PUBLIC_FUNCTIONS
