"""The one memo of an algebra and of a module (``algebra.memoized``): the
forms in which the public entry points take a degree, and owners with a
warm memo under pickle and copy."""

import copy
import pickle

from bihomlie.admissibility import check_g_associative
from bihomlie.algebra import check_lie_axioms
from bihomlie.cohomology import (
    Cochain,
    adjoint_rep,
    apply_coboundary,
    coboundary_matrix,
    cochain_basis,
    cohomology_dims,
)
from bihomlie.constructions import build_osp12
from bihomlie.derivations import derivation_space, is_homogeneous_endo
from bihomlie.linalg import Matrix
from fixtures import gl21_twist

# one degree of Z2 in three forms: a list, a reduced and an unreduced tuple
FORMS = ([0], (0,), (2,))
PROTOCOLS = range(2, pickle.HIGHEST_PROTOCOL + 1)


def _answers(a, rep, gamma) -> tuple:
    odd = Matrix([[int((p, q) == (3, 0)) for q in range(5)] for p in range(5)])
    return (
        is_homogeneous_endo(a, a.alpha, gamma),
        is_homogeneous_endo(a, odd, gamma),
        derivation_space(a, 0, 0, gamma),
        cochain_basis(rep, 1, gamma),
        cochain_basis(rep, 2, gamma),
        coboundary_matrix(rep, 1, 1, gamma),
        cohomology_dims(rep, 1, 1, gamma),
        cohomology_dims(rep, 2, 1, gamma),
    )


def test_every_form_of_a_degree_gives_the_same_answer():
    # on fresh owners, and on one pair of owners queried in every form
    a = build_osp12(2, 3)
    rep = adjoint_rep(a, 0, 1)
    want = _answers(a, rep, (0,))
    assert want[:2] == (True, False)
    for gamma in FORMS:
        fresh = build_osp12(2, 3)
        assert _answers(fresh, adjoint_rep(fresh, 0, 1), gamma) == want
        assert _answers(a, rep, gamma) == want


def test_an_unreduced_cochain_degree_gives_the_reduced_image():
    rep = adjoint_rep(build_osp12(2, 3), 0, 1)
    for f in cochain_basis(rep, 1, (0,)):
        unreduced = Cochain(1, (2,), f.values, rep.dimV)
        for validate in (True, False):
            got = apply_coboundary(rep, 1, unreduced, validate=validate)
            assert got.degree == (0,)
            assert got == apply_coboundary(rep, 1, f)


def _plain(key) -> bool:
    """Whether ``key`` is plain data: strings, ints and tuples of them, so
    never a function object."""
    if isinstance(key, tuple):
        return all(map(_plain, key))
    return isinstance(key, (str, int))


def _copies(owner):
    yield from (pickle.loads(pickle.dumps(owner, p)) for p in PROTOCOLS)
    yield copy.deepcopy(owner)


def test_an_algebra_with_a_warm_memo_pickles_and_copies():
    a = build_osp12(2, 3)

    def queries(b):
        return (
            check_lie_axioms(b).to_dict(),
            derivation_space(b, 0, 0, (0,)),
            check_g_associative(b, "G6").to_dict(),
        )

    want = queries(a)
    assert a._memo and all(map(_plain, a._memo))
    for b in _copies(a):
        assert b == a and b._memo.keys() == a._memo.keys()
        assert queries(b) == want


def test_a_module_with_a_warm_memo_pickles_and_copies():
    rep = adjoint_rep(gl21_twist(), 0, 1)

    def queries(r):
        f = cochain_basis(r, 1, (0,))[0]
        return (
            [cohomology_dims(r, n, 1, (0,)) for n in (1, 2)],
            cochain_basis(r, 2, (0,)),
            apply_coboundary(r, 1, f),
        )

    want = queries(rep)
    assert all(map(_plain, rep._memo)) and all(map(_plain, rep.algebra._memo))
    for r in _copies(rep):
        assert r == rep and r._memo.keys() == rep._memo.keys()
        assert r.algebra._memo.keys() == rep.algebra._memo.keys()
        assert queries(r) == want

