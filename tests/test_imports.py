"""The import graph follows the commands: a fresh interpreter loads only
the covercalc modules its command needs, the package root still exports
every public name, and no module imports a name it never uses."""

import ast
import json
import os
import subprocess
import sys

import pytest

import covercalc

SRC = os.path.dirname(os.path.dirname(os.path.abspath(covercalc.__file__)))

# the public names of the package root and the module each comes from
EXPORTS = {
    "cardinal": ["ALEPH0", "Cardinal", "UNCOUNTABLE", "finite"],
    "covering": ["CoverAnswer", "CoverWitness", "Trichotomy",
                 "build_cover_witness", "classify", "nu1", "s_set", "sigma",
                 "sigma_integer"],
    "cosets": ["CosetCoverWitness", "build_coset_cover", "phi_cyclic",
               "phi_conjecture_value", "phi_finite_abelian", "phi_prime",
               "verify_coset_cover"],
    "modules": ["ModuleDescriptor", "NCSet", "descriptor_from_presentation",
                "make_descriptor", "nc_set", "normalize", "q_value"],
    "monoids": ["MonoidAnswer", "MonoidDescriptor", "classify_monoid",
                "verify_monoid_partition"],
    "oracle": ["FiniteModule", "SubmoduleSet", "enumerate_submodules",
               "materialize", "min_coset_cover_punctured",
               "min_submodule_cover", "verify_cover_witness"],
    "parser": ["parse_monoid", "parse_ring", "parse_spec", "render_descriptor"],
    "rings": ["FactoredIdeal", "MaximalIdealId", "RingHandle",
              "abstract_dedekind", "abstract_local", "factor_ideal",
              "field_ring", "gaussian_integers", "integers",
              "maximal_ideals_with_residue_at_most",
              "min_residue_cardinality", "poly_over_prime_field",
              "residue_cardinality"],
    "snf": ["smith_normal_form"],
}

SEARCH = {"oracle", "_kernels", "snf"}


def run_fresh(code):
    """Run code in a fresh interpreter; return the JSON it prints last
    and the covercalc modules loaded by then, without the package prefix."""
    probe = (f"{code}\nimport json, sys\n"
             "print(json.dumps([result, sorted(m[10:] for m in sys.modules "
             "if m.startswith('covercalc.'))]))")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    result, modules = json.loads(done.stdout.splitlines()[-1])
    return result, set(modules)


def run_cli(argv):
    """(exit code, loaded covercalc modules) of cli.main(argv)."""
    return run_fresh(f"from covercalc import cli\nresult = cli.main({argv!r})")


def test_importing_the_cli_loads_no_command():
    _, loaded = run_fresh("import covercalc.cli\nresult = None")
    assert loaded == {"cli", "errors"}


@pytest.mark.parametrize("argv, code", [
    (["sigma", "Z: R/(4) + R/(4)", "--json"], 0),
    (["phi", "Z: R/(12)", "--json"], 0),
    (["cover", "Z: R/(12) + R/(18)", "--json"], 0),
    (["sigma", "Z: R/(4)", "--no-such-option"], 64)])
def test_closed_forms_and_usage_errors_load_no_search(argv, code):
    got, loaded = run_cli(argv)
    assert got == code
    assert not loaded & SEARCH


def test_the_oracle_loads_the_search():
    got, loaded = run_cli(["oracle", "sigma", "Z: R/(4) + R/(4)", "--json"])
    assert got == 0
    assert loaded & SEARCH == {"oracle", "_kernels"}
    # only the Z[i] block takes a Smith normal form (of its lattice)
    got, loaded = run_cli(["oracle", "sigma", "Zi: R/(1+i) + R/(1+i)",
                           "--json"])
    assert got == 0
    assert SEARCH <= loaded


def test_star_import_gives_every_public_name_from_its_module():
    code = ("import sys\nnames = {}\nexec('from covercalc import *', names)\n"
            "del names['__builtins__']\n"
            f"home = {EXPORTS!r}\n"
            "result = [sorted(names), sorted(n for m, ns in home.items() "
            "for n in ns if names.get(n) is not "
            "getattr(sys.modules['covercalc.' + m], n))]")
    (names, strangers), _ = run_fresh(code)
    assert names == sorted(n for ns in EXPORTS.values() for n in ns)
    assert len(names) == 56
    assert strangers == []


def test_root_attributes():
    assert set(dir(covercalc)) >= set(covercalc.__all__)
    assert covercalc.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        covercalc.no_such_name


def test_no_module_imports_a_name_it_never_uses():
    # a CLI child writes no bytecode cache, so it compiles every module it
    # imports on every run: an import left behind costs each run
    pkg = os.path.join(SRC, "covercalc")
    unused = []
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as f:
            tree = ast.parse(f.read(), name)
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for alias in node.names:
                    bound[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {bound_name}"
                   for bound_name, line in bound.items() if bound_name not in used]
    assert unused == []


def test_the_test_reference_takes_only_the_kernels_from_covercalc():
    # a reference built from the oracle's own characters or cores would
    # check the oracle against itself
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), "reference.py")
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # from covercalc import x takes the module covercalc.x
            modules.update([f"covercalc.{alias.name}" for alias in node.names]
                           if node.module == "covercalc" else [node.module])
    assert {m for m in modules if m.split(".")[0] == "covercalc"} == \
        {"covercalc._kernels"}
