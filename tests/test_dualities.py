"""Twists, duals, isomorphism table, invariant-form search."""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qtetra.dualities import (
    EIGHTFOLD_LABELS,
    DualityError,
    dual_module,
    eightfold_comparison,
    isomorphic,
    negate,
    omega_form,
    twist_rho,
)
from qtetra.exactla import ExactMatrix
from qtetra.modanalysis import (
    ModuleSpectra,
    detect_type_diameter,
    shape_of,
)
from qtetra.presentations import BOXQ, GENERATORS, omega_label
from qtetra.repbuilder import (
    EvaluationParams,
    MatrixRep,
    aq_pair_of,
    evaluation_module,
    tensor_modules,
)
from qtetra.reconstruct import reconstruct_boxq
from qtetra.scalars import SYMBOLIC
from test_exactla import (
    Q2,
    all_equations_intertwiner_space,
    boxq_q2,
    direct_sum,
    invertible_matrices,
)

CTX = SYMBOLIC
Q = CTX.q
QINV = CTX.q_power(-1)


@lru_cache(maxsize=None)
def boxq_module(d, t):
    X, Y = aq_pair_of(evaluation_module(EvaluationParams(d, t)))
    return reconstruct_boxq(X, Y)


def test_twist_identity_and_periodicity():
    mod = boxq_module(1, 'q + 1')
    assert twist_rho(mod, 0).gens == mod.gens
    assert twist_rho(mod, 4).gens == mod.gens
    once = twist_rho(mod, 1)
    assert once.gens['x01'] == mod.gens['x12']
    assert once.gens['x30'] == mod.gens['x01']
    assert once.check().passed


def test_twist_group_law():
    mod = boxq_module(1, 'q + 1')
    singles = [twist_rho(mod, n) for n in range(4)]
    for a in range(4):
        for b in range(4):
            twice = twist_rho(singles[a], b)
            assert twice.gens == singles[(a + b) % 4].gens


@st.composite
def conjugated_q2_reconstructions(draw):
    """A q = 2 module reconstructed from P (x01, x23) P^-1, with d <= 3 and
    P unimodular."""
    mod = boxq_q2(draw(st.integers(min_value=0, max_value=3)),
                  draw(st.sampled_from(['1', '3', '1/2'])))
    p = draw(invertible_matrices(mod.dimension))
    p_inv = p.inverse()
    return reconstruct_boxq(p * mod.gens['x01'] * p_inv,
                            p * mod.gens['x23'] * p_inv)


SHIFTS = st.integers(min_value=-8, max_value=8)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(conjugated_q2_reconstructions(), SHIFTS, SHIFTS)
def test_twist_group_law_and_involutions(mod, a, b):
    assert twist_rho(twist_rho(mod, a), b).gens == twist_rho(mod, a + b).gens
    assert dual_module(dual_module(mod)).gens == mod.gens
    assert negate(negate(mod)).gens == mod.gens


def test_negate_flips_type():
    mod = boxq_module(1, 'q + 1')
    flipped = negate(mod)
    assert flipped.check().passed
    eps, d, _ = detect_type_diameter(flipped.gens['x01'])
    assert (eps, d) == (-1, 1)
    report = shape_of(ModuleSpectra(flipped))
    assert report.epsilon == -1
    assert report.shape == shape_of(ModuleSpectra(mod)).shape
    assert negate(flipped).gens == mod.gens


def test_negate_trivial_module():
    flipped = negate(boxq_module(0, 1))
    minus_one = -ExactMatrix.identity(CTX, 1)
    assert all(m == minus_one for m in flipped.gens.values())


def test_dual_trivial_module():
    mod = boxq_module(0, 1)
    assert dual_module(mod).gens == mod.gens


def test_dual_module_valid_and_involutive():
    mod = boxq_module(1, 'q + 1')
    dual = dual_module(mod)
    assert dual.check().passed
    # transposition undoes itself and omega is an involution, so the
    # double dual is the original on the nose
    assert dual_module(dual).gens == mod.gens
    witness = isomorphic(dual_module(dual), mod)
    assert witness is not None


def test_isomorphic_finds_conjugations():
    mod = boxq_module(1, 'q + 1')
    p = ExactMatrix.from_rows(CTX, [[1, 2], [0, 1]])
    p_inv = p.inverse()
    moved = MatrixRep(BOXQ, CTX,
                      {g: p * m * p_inv for g, m in mod.gens.items()})
    witness = isomorphic(mod, moved)
    assert witness is not None
    for g in GENERATORS[BOXQ]:
        assert mod.gens[g] * witness == witness * moved.gens[g]


def test_isomorphic_dimension_mismatch():
    assert isomorphic(boxq_module(0, 1), boxq_module(1, 1)) is None
    with pytest.raises(DualityError):
        isomorphic(boxq_module(1, 1),
                   evaluation_module(EvaluationParams(1, 1)))


def test_eightfold_trivial_module():
    table = eightfold_comparison(boxq_module(0, 1))
    assert table.labels == EIGHTFOLD_LABELS
    assert all(all(row) for row in table.isomorphic)


def test_eightfold_structure():
    # the table contents are emitted as data; only structural properties
    # are asserted (reflexive, symmetric, rho^4-periodic)
    table = eightfold_comparison(boxq_module(1, 'q + 1'))
    iso = table.isomorphic
    assert all(iso[i][i] for i in range(8))
    assert all(iso[i][j] == iso[j][i]
               for i in range(8) for j in range(8))
    blob = table.to_dict()
    assert blob['labels'][0] == 'V rho^0'
    assert blob['isomorphic'][0][0] is True


def test_omega_form_trivial_module():
    cand = omega_form(boxq_module(0, 1))
    assert cand.solution_space_dim == 1
    assert cand.symmetric and cand.nondegenerate
    assert cand.gram == ExactMatrix.identity(CTX, 1)


def test_omega_form_two_dimensional():
    mod = boxq_module(1, 'q + 1')
    cand = omega_form(mod)
    assert cand.solution_space_dim == 1
    assert cand.symmetric
    assert cand.nondegenerate
    gram = cand.gram
    for g in GENERATORS[BOXQ]:
        lhs = mod.gens[g].transpose() * gram
        rhs = gram * mod.gens[omega_label(g)]
        assert lhs == rhs
    blob = cand.to_dict()
    assert blob['solution_space_dim'] == 1
    assert blob['gram'][0][0] == '1'


def test_omega_form_tensor_module():
    a = evaluation_module(EvaluationParams(1, 1))
    b = evaluation_module(EvaluationParams(1, 'q + 1'))
    mod = reconstruct_boxq(*aq_pair_of(tensor_modules(a, b)))
    cand = omega_form(mod)
    assert cand.solution_space_dim >= 1
    assert cand.symmetric
    assert cand.nondegenerate


def test_omega_form_empty_solution_space():
    # inequivalent one-dimensional actions admit no intertwiner at all
    two = ExactMatrix.from_rows(CTX, [[2]])
    three = ExactMatrix.from_rows(CTX, [[3]])
    one = ExactMatrix.identity(CTX, 1)
    gens = {g: one for g in GENERATORS[BOXQ]}
    gens['x12'] = two
    gens['x30'] = three
    cand = omega_form(MatrixRep(BOXQ, CTX, gens))
    assert cand.solution_space_dim == 0
    assert cand.gram is None
    assert not cand.symmetric and not cand.nondegenerate


def test_transforms_require_boxq():
    loop = evaluation_module(EvaluationParams(1, 1))
    for fn in (lambda m: twist_rho(m, 1), dual_module, negate,
               eightfold_comparison, omega_form):
        with pytest.raises(DualityError):
            fn(loop)


def _brute_force_eightfold(mod):
    """All 28 pairs solved outright, as before the relabelling shortcut."""
    dual = dual_module(mod)
    family = [twist_rho(mod, n) for n in range(4)]
    family += [twist_rho(dual, n) for n in range(4)]
    return tuple(tuple(i == j or isomorphic(family[i], family[j]) is not None
                       for j in range(8)) for i in range(8))


@pytest.mark.parametrize('which', ['direct sum', 'symbolic d = 1'])
def test_eightfold_and_omega_form_match_all_equations(which, monkeypatch):
    if which == 'direct sum':
        mod = direct_sum(boxq_q2(1, '3'), boxq_q2(0, '1'))
    else:
        mod = boxq_module(1, 'q + 1')
    table = eightfold_comparison(mod)
    form = omega_form(mod).to_dict()
    # rows alternate, so a shortcut that misplaces a cell shows
    assert table.isomorphic[0] == (True, False) * 4
    monkeypatch.setattr('qtetra.dualities.intertwiner_space',
                        all_equations_intertwiner_space)
    assert table.isomorphic == _brute_force_eightfold(mod)
    assert form == omega_form(mod).to_dict()


# -- the transforms carry the relation verdict ------------------------------

CORRUPTIONS = ('swap', 'scale', 'transpose', 'conjugate', 'shift')


@st.composite
def q2_modules_maybe_corrupted(draw):
    """A q = 2 BOXQ module (a direct sum or not), left valid half the
    time, else with one generator swapped with another, scaled by 2,
    transposed, conjugated or shifted by the identity."""
    mod = boxq_q2(draw(st.integers(min_value=0, max_value=3)),
                  draw(st.sampled_from(['1', '3'])))
    if draw(st.booleans()):
        mod = direct_sum(mod, boxq_q2(1, '3'))
    gens = dict(mod.gens)
    g, h = draw(st.permutations(GENERATORS[BOXQ]))[:2]
    how = draw(st.sampled_from(CORRUPTIONS)) if draw(st.booleans()) else None
    if how == 'swap':
        gens[g], gens[h] = gens[h], gens[g]
    elif how == 'scale':
        gens[g] = gens[g].scale(Q2.coerce(2))
    elif how == 'transpose':
        gens[g] = gens[g].transpose()
    elif how == 'conjugate':
        p = draw(invertible_matrices(mod.dimension))
        gens[g] = p * gens[g] * p.inverse()
    elif how == 'shift':
        gens[g] = gens[g] + ExactMatrix.identity(Q2, mod.dimension)
    return MatrixRep(BOXQ, Q2, gens)


TRANSFORMS = st.sampled_from(
    [(f'rho^{n}', lambda m, n=n: twist_rho(m, n)) for n in range(1, 4)]
    + [('dual', dual_module), ('negate', negate)])


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(q2_modules_maybe_corrupted(), TRANSFORMS)
def test_transforms_keep_relation_verdict(mod, transform):
    _, fn = transform
    assert fn(mod).check().passed == mod.check().passed
