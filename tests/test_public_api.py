"""The public names of the package: a removal that drops one fails here."""

import subprocess
import sys
from pathlib import Path

import bihomlie

PUBLIC = [
    "AxiomReport",
    "Bicharacter",
    "CORPUS_NAMES",
    "CheckItem",
    "Cochain",
    "CohomologyResult",
    "ColourAlgebra",
    "GradedBasis",
    "GradingGroup",
    "HomEndo",
    "Matrix",
    "MultiplierTable",
    "ParseError",
    "Representation",
    "SolverResult",
    "Witness",
    "adjoint_rep",
    "apply_coboundary",
    "build_osp12",
    "centroid_space",
    "check_associative_axioms",
    "check_bihom_axioms",
    "check_jordan_axioms",
    "check_lie_axioms",
    "coboundary_matrix",
    "cochain_basis",
    "cohomology_dims",
    "commutator_algebra",
    "corpus",
    "delta_twist",
    "derivation_space",
    "dual_rep",
    "generalized_derivation_space",
    "inner_derivation_space",
    "jordan_product",
    "mat2_assoc",
    "multiplier_from_omega",
    "osp12_classical",
    "parse_algebra",
    "parse_degree",
    "parse_group",
    "quasi_centroid_space",
    "quasi_derivation_space",
    "require_passing",
    "serialize_algebra",
    "sigma_twist",
    "super_bicharacter",
    "trivial_bicharacter",
    "validate_multiplier",
    "validate_representation",
    "yau_twist",
    "z2z2_colour_example",
    "zero_algebra",
]


def test_public_names_are_pinned_and_each_resolves():
    assert sorted(bihomlie.__all__) == PUBLIC
    missing = [name for name in PUBLIC if not hasattr(bihomlie, name)]
    assert missing == []


def test_the_package_and_its_cli_load_every_module():
    # a module that neither the package nor the command line imports is
    # reached by nothing but its tests
    package = Path(bihomlie.__file__).parent
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import bihomlie, "
        "bihomlie.cli; print(' '.join(m for m in sys.modules "
        "if m.startswith('bihomlie.')))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-E", "-c", code, str(package.parent)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout.split()
    modules = {f"bihomlie.{p.stem}" for p in package.glob("*.py")}
    unreached = modules - set(out) - {"bihomlie.__init__", "bihomlie.__main__"}
    assert sorted(unreached) == []
