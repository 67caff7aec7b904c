"""Algebras shared by several test modules.

The test modules build their algebras inside the tests, so a fault in the
library fails tests instead of stopping collection; these are the names
and builders they share.
"""

from fractions import Fraction

from bihomlie.algebra import ColourAlgebra
from bihomlie.constructions import commutator_algebra, yau_twist
from bihomlie.grading import GradedBasis, GradingGroup, super_bicharacter
from bihomlie.linalg import Matrix

# the names of lie_corpus(), whose algebras are built inside the tests
LIE_CORPUS = (
    "zero_3",
    "osp12_classical",
    "osp12_twist(2,3)",
    "z2z2_colour_example",
    "commutator(mat2_assoc)",
)


def gl21_units() -> ColourAlgebra:
    """The Z2-graded 3x3 matrix units under multiplication (E11, E12, E21,
    E22 even), with identity maps."""
    parity = (0, 0, 1)
    units = [(i, j) for i in range(3) for j in range(3)]
    basis = GradedBasis(
        GradingGroup(0, (2,)),
        tuple(f"E{i + 1}{j + 1}" for i, j in units),
        tuple(((parity[i] + parity[j]) % 2,) for i, j in units),
    )
    product = [
        [
            [Fraction(int(j == k and (i, l) == u)) for u in units]
            for k, l in units
        ]
        for i, j in units
    ]
    return ColourAlgebra(
        basis,
        super_bicharacter(),
        product,
        Matrix.identity(9),
        Matrix.identity(9),
        kind="associative",
    )


def gl21_twist() -> ColourAlgebra:
    """gl(2|1): the commutator algebra of :func:`gl21_units`, Yau-twisted
    by the diagonal conjugations with (1, 2, 3) and (1, 5, 7)."""
    units = [(i, j) for i in range(3) for j in range(3)]

    def conjugation(d):
        return Matrix.diagonal([Fraction(d[i], d[j]) for i, j in units])

    return yau_twist(
        commutator_algebra(gl21_units()),
        conjugation((1, 2, 3)),
        conjugation((1, 5, 7)),
    )
