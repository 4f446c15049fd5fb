"""covercalc: exact covering numbers of direct sums of cyclic modules.

Public surface: ring adapters (rings), symbolic descriptors and
normalization (modules), covering thresholds and witnesses (covering),
punctured coset covers (cosets), cyclic-monoid sums (monoids), and the
brute-force oracle (oracle).  The text grammar lives in parser and the
command line in cli.

The names below are loaded on first use (PEP 562), so importing the
package, or one of its modules, compiles only what that code needs.
"""

_EXPORTS = {
    "cardinal": ("ALEPH0", "Cardinal", "UNCOUNTABLE", "finite"),
    "covering": ("CoverAnswer", "CoverWitness", "Trichotomy",
                 "build_cover_witness", "classify", "nu1", "s_set", "sigma",
                 "sigma_integer"),
    "cosets": ("CosetCoverWitness", "build_coset_cover", "phi_cyclic",
               "phi_conjecture_value", "phi_finite_abelian", "phi_prime",
               "verify_coset_cover"),
    "modules": ("ModuleDescriptor", "NCSet", "descriptor_from_presentation",
                "make_descriptor", "nc_set", "normalize", "q_value"),
    "monoids": ("MonoidAnswer", "MonoidDescriptor", "classify_monoid",
                "verify_monoid_partition"),
    "oracle": ("FiniteModule", "SubmoduleSet", "materialize",
               "min_coset_cover_punctured",
               "min_submodule_cover", "verify_cover_witness"),
    "parser": ("parse_monoid", "parse_ring", "parse_spec", "render_descriptor"),
    "rings": ("FactoredIdeal", "MaximalIdealId", "RingHandle",
              "abstract_dedekind", "abstract_local", "factor_ideal",
              "field_ring", "gaussian_integers", "integers",
              "maximal_ideals_with_residue_at_most",
              "min_residue_cardinality", "poly_over_prime_field",
              "residue_cardinality"),
    "snf": ("smith_normal_form",),
}

# the module each public name comes from
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
