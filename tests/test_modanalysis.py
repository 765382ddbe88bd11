"""Structural analysis: type detection, decompositions, flags, tables."""

from __future__ import annotations

from functools import lru_cache

import pytest

from qtetra.exactla import ExactMatrix, Subspace
from qtetra.modanalysis import (
    CHAIN,
    AnalysisError,
    Flag,
    StructuralError,
    check_action_tables,
    check_dimension_chain,
    check_key_containment,
    check_opposite,
    check_qweyl3,
    decomposition_ij,
    detect_type_diameter,
    flag_of,
    shape_of,
)
from qtetra.presentations import BOXQ, GENERATORS
from qtetra.repbuilder import (
    EvaluationParams,
    MatrixRep,
    aq_pair_of,
    evaluation_module,
    tensor_modules,
)
from qtetra.reconstruct import reconstruct_boxq
from qtetra.scalars import SYMBOLIC

CTX = SYMBOLIC
Q = CTX.q
QINV = CTX.q_power(-1)


def mat(rows):
    return ExactMatrix.from_rows(CTX, rows)


def span(*vectors):
    return Subspace.from_vectors(CTX, len(vectors[0]), list(vectors))


@lru_cache(maxsize=None)
def boxq_module(d, t):
    """Full eight-generator module over the evaluation pair (cached)."""
    X, Y = aq_pair_of(evaluation_module(EvaluationParams(d, t)))
    return reconstruct_boxq(X, Y)


@lru_cache(maxsize=None)
def tensor_module():
    a = evaluation_module(EvaluationParams(1, 1))
    b = evaluation_module(EvaluationParams(1, 'q + 1'))
    X, Y = aq_pair_of(tensor_modules(a, b))
    return reconstruct_boxq(X, Y)


def copy_with(mod, **replacements):
    gens = dict(mod.gens)
    gens.update(replacements)
    return MatrixRep(BOXQ, mod.ctx, gens)


def test_detect_trivial():
    eps, d, dec = detect_type_diameter(ExactMatrix.identity(CTX, 1))
    assert (eps, d) == (1, 0)
    assert dec.components[0].is_full()


def test_detect_two_dimensional():
    eps, d, dec = detect_type_diameter(mat([[QINV, 0], [1, Q]]))
    assert (eps, d) == (1, 1)
    assert dec.component(0) == span([0, 1])
    assert dec.component(1) == span([QINV - Q, 1])


def test_detect_negative_type():
    eps, d, dec = detect_type_diameter(mat([[-QINV, 0], [-1, -Q]]))
    assert (eps, d) == (-1, 1)
    assert dec.component(0) == span([0, 1])


def test_detect_rejects_bad_spectra():
    with pytest.raises(AnalysisError):
        detect_type_diameter(mat([[0, 1], [0, 0]]))
    # missing middle eigenvalue: {q^2, q^-2} is not {q^(d-2n)} for any d
    with pytest.raises(AnalysisError):
        detect_type_diameter(ExactMatrix.diagonal(CTX, [Q * Q, QINV * QINV]))
    with pytest.raises(AnalysisError):
        detect_type_diameter(ExactMatrix.from_rows(CTX, [[1, 0]]))


def test_decomposition_ij_basics():
    mod = boxq_module(1, 'q + 1')
    dec = decomposition_ij(mod, 0, 1)
    assert dec.component(0) == span([0, 1])
    assert dec.component(1) == span([QINV - Q, 1])
    # x02 acts as diag(q^-1, q), so its q-eigenspace is the second axis
    dec02 = decomposition_ij(mod, 0, 2)
    assert dec02.component(0) == span([0, 1])
    assert dec02.component(1) == span([1, 0])


def test_decomposition_trivial_module():
    mod = boxq_module(0, 1)
    for i in range(4):
        for j in (i + 1, i + 2):
            assert decomposition_ij(mod, i, j).components[0].is_full()


def test_decomposition_rejects_negative_type():
    mod = boxq_module(1, 1)
    negated = MatrixRep(BOXQ, CTX, {g: -m for g, m in mod.gens.items()})
    with pytest.raises(AnalysisError, match='negate'):
        decomposition_ij(negated, 0, 1)


def test_decomposition_rejects_bad_indices():
    mod = boxq_module(1, 1)
    for i, j in ((0, 0), (0, 3), (1, 0), (2, 1)):
        with pytest.raises(AnalysisError):
            decomposition_ij(mod, i, j)


def test_long_decomposition_is_inversion_of_its_inverse():
    for mod in (boxq_module(1, 'q + 1'), boxq_module(2, 'q')):
        for i in range(4):
            long = decomposition_ij(mod, i, i + 2)
            back = decomposition_ij(mod, i + 2, i)
            assert long == back.inversion()


def test_shape_small_modules():
    report = shape_of(boxq_module(1, 'q + 1'))
    assert report.passed
    assert (report.epsilon, report.d, report.shape) == (1, 1, (1, 1))
    assert shape_of(boxq_module(0, 1)).shape == (1,)


def test_shape_tensor_module():
    report = shape_of(tensor_module())
    assert report.passed
    assert report.shape == (1, 2, 1)
    assert all(dims == (1, 2, 1) for dims in report.generator_dims.values())


def test_shape_detects_nonuniform_generator():
    # swap in a generator whose eigenspace dimensions disagree
    corrupted = copy_with(
        tensor_module(),
        x01=ExactMatrix.diagonal(CTX, [Q * Q, Q * Q, 1, QINV * QINV]))
    report = shape_of(corrupted)
    assert not report.uniform
    assert not report.passed
    assert report.generator_dims['x01'] == (2, 1, 1)


def test_shape_detects_nonpalindromic():
    skew = ExactMatrix.diagonal(CTX, [Q * Q, Q * Q, 1, QINV * QINV])
    fake = MatrixRep(BOXQ, CTX, {g: skew for g in GENERATORS[BOXQ]})
    report = shape_of(fake)
    assert report.uniform
    assert not report.palindromic
    assert not report.passed


def test_flag_components():
    mod = boxq_module(1, 'q + 1')
    assert flag_of(mod, 0).components[0] == span([0, 1])
    assert flag_of(mod, 2).components[0] == span([1, 0])
    for i in range(4):
        flag = flag_of(mod, i)
        assert flag.dims == (1, 2)
        assert flag.component(-1).is_zero()
        assert flag.component(5).is_full()
    assert flag_of(boxq_module(0, 1), 3).dims == (1,)


def test_flag_consistency_violation():
    # replace x02 by a matrix with the right spectrum but wrong eigenspaces
    corrupted = copy_with(boxq_module(1, 'q + 1'),
                          x02=ExactMatrix.diagonal(CTX, [Q, QINV]))
    with pytest.raises(StructuralError):
        flag_of(corrupted, 0)


def test_flag_validation():
    with pytest.raises(AnalysisError):
        Flag(CTX, 2, [span([1, 0])])  # top component not full
    with pytest.raises(AnalysisError):
        Flag(CTX, 2, [span([1, 0]), span([0, 1])])  # not nested


def test_opposite_flag_pairs():
    mod = boxq_module(1, 'q + 1')
    dec = check_opposite(flag_of(mod, 0), flag_of(mod, 1))
    assert dec is not None
    assert dec == decomposition_ij(mod, 0, 1)
    dec13 = check_opposite(flag_of(mod, 1), flag_of(mod, 3))
    assert dec13 is not None
    assert dec13 == decomposition_ij(mod, 1, 3)


def test_flag_not_opposite_to_itself():
    flag = flag_of(boxq_module(1, 'q + 1'), 0)
    assert check_opposite(flag, flag) is None


def test_opposite_requires_matching_flags():
    a = flag_of(boxq_module(1, 'q + 1'), 0)
    b = flag_of(tensor_module(), 0)
    with pytest.raises(AnalysisError):
        check_opposite(a, b)


def test_action_tables_pass_on_valid_modules():
    for mod in (boxq_module(0, 1), boxq_module(1, 'q + 1'),
                boxq_module(2, 'q')):
        report = check_action_tables(mod)
        assert report.passed
        assert report.violations == ()
        assert report.spectrum_failures == ()


def test_action_tables_entry_perturbation():
    mod = boxq_module(1, 'q + 1')
    bad = mod.gens['x01'] + mat([[0, 1], [0, 0]])
    report = check_action_tables(copy_with(mod, x01=bad))
    assert not report.passed
    assert 'x01' in report.spectrum_failures


def test_action_tables_moved_eigenspaces():
    # conjugating one generator keeps its spectrum but breaks containments
    mod = boxq_module(1, 'q + 1')
    p = mat([[1, 1], [0, 1]])
    moved = p * mod.gens['x01'] * p.inverse()
    report = check_action_tables(copy_with(mod, x01=moved))
    assert not report.passed
    assert report.violations
    tables = {v[0] for v in report.violations}
    assert tables <= {1, 2}
    blob = report.to_dict()
    assert blob['passed'] is False
    assert blob['violations'] == [list(v) for v in report.violations]


def test_dimension_chain_small():
    report = check_dimension_chain(boxq_module(1, 'q + 1'), Q)
    assert report.passed
    assert report.dims == (1,) * 8
    assert report.to_dict()['labels'] == list(CHAIN)


def test_dimension_chain_vacuous():
    report = check_dimension_chain(boxq_module(1, 'q + 1'),
                                   CTX.q_power(5))
    assert report.passed
    assert report.dims == (0,) * 8


def test_dimension_chain_tensor():
    report = check_dimension_chain(tensor_module(), 1)
    assert report.passed
    assert report.dims == (2,) * 8


def test_dimension_chain_detects_corruption():
    mod = boxq_module(1, 'q + 1')
    report = check_dimension_chain(
        copy_with(mod, x13=ExactMatrix.diagonal(CTX, [Q, Q])), Q)
    assert not report.dims_equal
    assert not report.passed
    # same eigenspace dims but the inverse-pair subspace identity broken
    report2 = check_dimension_chain(
        copy_with(mod, x20=mod.gens['x02']), Q)
    assert report2.dims_equal
    assert not report2.inverse_pair_equal
    assert not report2.passed


def test_dimension_chain_rejects_zero_theta():
    with pytest.raises(AnalysisError):
        check_dimension_chain(boxq_module(1, 1), 0)


def test_qweyl3_along_chain():
    mod = boxq_module(1, 'q + 1')
    theta = Q  # q^d with d = 1
    for a, b in zip(CHAIN, CHAIN[1:]):
        assert check_qweyl3(mod.gens[a], mod.gens[b], theta)


def test_qweyl3_fails_for_unrelated_pair():
    a = ExactMatrix.diagonal(CTX, [Q, QINV])
    b = ExactMatrix.identity(CTX, 2)
    assert not check_qweyl3(a, b, Q)


def test_key_containment():
    mod = boxq_module(1, 'q + 1')
    for theta in (Q, QINV):
        assert check_key_containment(mod.gens['x01'], mod.gens['x23'],
                                     theta)
    narrow = ExactMatrix.diagonal(CTX, [Q, CTX.q_power(5)])
    jump = mat([[0, 0], [1, 0]])
    assert not check_key_containment(narrow, jump, Q)
