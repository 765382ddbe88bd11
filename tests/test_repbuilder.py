"""Module constructors: ladders, evaluation modules, tensors, pairs."""

from __future__ import annotations

import pytest

from qtetra.exactla import (
    ExactMatrix,
    algebra_closure_dim,
    spectrum_decompose,
)
from qtetra.presentations import AQ, check_representation
from qtetra.repbuilder import (
    EvaluationParams,
    MatrixRep,
    RepError,
    aq_pair_of,
    evaluation_module,
    standard_uq_data,
    tensor_modules,
    uqsl2_equitable_module,
)
from qtetra.scalars import SYMBOLIC, specialized

CTX = SYMBOLIC
Q = CTX.q
QINV = CTX.q_power(-1)
W = (Q - QINV) * (Q - QINV)


def mat(rows):
    return ExactMatrix.from_rows(CTX, rows)


def test_ladder_matrices_small():
    data = standard_uq_data(CTX, 1)
    assert data.K == mat([[Q, 0], [0, QINV]])
    assert data.K_inv == mat([[QINV, 0], [0, Q]])
    assert data.e_plus == mat([[0, 1], [0, 0]])
    assert data.e_minus == mat([[0, 0], [1, 0]])


def test_ladder_commutator_identity():
    # [e+, e-] = (K - K^-1)/(q - q^-1), the standard sl2 commutator,
    # pins down the chosen ladder weights
    for d in range(5):
        data = standard_uq_data(CTX, d)
        lhs = data.e_plus * data.e_minus - data.e_minus * data.e_plus
        rhs = (data.K - data.K_inv).scale(CTX.one / (Q - QINV))
        assert lhs == rhs
        assert data.K * data.e_plus == (data.e_plus * data.K).scale(Q * Q)
        assert data.K * data.K_inv == ExactMatrix.identity(CTX, d + 1)


def test_equitable_module_d0():
    rep = uqsl2_equitable_module(0)
    one = ExactMatrix.identity(CTX, 1)
    assert rep.gens == {'x': one, 'x_inv': one, 'y': one, 'z': one}


def test_equitable_module_d1_matrices():
    rep = uqsl2_equitable_module(1)
    assert rep.gens['x'] == mat([[Q, 0], [0, QINV]])
    assert rep.gens['y'] == mat([[QINV, 0], [1, Q]])
    assert rep.gens['z'] == mat([[QINV, -W], [0, Q]])
    assert rep.check().passed


def test_equitable_module_d2():
    rep = uqsl2_equitable_module(2)
    assert rep.gens['x'] == ExactMatrix.diagonal(CTX, [Q * Q, 1, QINV * QINV])
    # y = K^-1 + e^-, with e^- weights [2], [1] down the subdiagonal
    assert rep.gens['y'] == mat([
        [QINV * QINV, 0, 0],
        [Q + QINV, 1, 0],
        [0, 1, Q * Q],
    ])
    assert rep.check().passed
    assert rep.provenance == {'kind': 'uqsl2_equitable', 'd': 2}


def test_equitable_rejects_negative_weight():
    with pytest.raises(RepError):
        uqsl2_equitable_module(-1)


def test_evaluation_d1_matrices():
    t = Q  # any nonzero parameter; chosen so entries stay simple
    rep = evaluation_module(EvaluationParams(1, t))
    assert rep.gens['x1'] == mat([[Q, 0], [0, QINV]])
    assert rep.gens['y1'] == mat([[QINV, 0], [1, Q]])
    assert rep.gens['z1'] == mat([[QINV, -W], [0, Q]])
    assert rep.gens['x0'] == mat([[QINV, 0], [0, Q]])
    assert rep.gens['y0'] == mat([[Q, QINV], [0, QINV]])
    assert rep.gens['z0'] == mat([[Q, 0], [-Q * W, QINV]])
    assert rep.provenance == {'kind': 'evaluation', 'd': 1, 't': 'q'}


def test_evaluation_accepts_text_parameter():
    from_text = evaluation_module(EvaluationParams(1, 'q'))
    from_elem = evaluation_module(EvaluationParams(1, Q))
    assert from_text.gens == from_elem.gens


def test_evaluation_restricts_to_equitable():
    # the i=1 family is the plain ladder; evaluation only adds the i=0 one
    for d in range(4):
        loop = evaluation_module(EvaluationParams(d, 'q + 1'))
        plain = uqsl2_equitable_module(d)
        assert loop.gens['x1'] == plain.gens['x']
        assert loop.gens['y1'] == plain.gens['y']
        assert loop.gens['z1'] == plain.gens['z']
        assert loop.gens['x0'] == loop.gens['x1'].inverse()


def test_evaluation_d2_passes_relations():
    rep = evaluation_module(EvaluationParams(2, Q))
    assert rep.dimension == 3
    assert rep.check().passed


def test_evaluation_rejects_zero_parameter():
    with pytest.raises(RepError):
        evaluation_module(EvaluationParams(1, 0))


def test_generator_spectra_match_weights():
    for d in range(3):
        rep = evaluation_module(EvaluationParams(d, 'q + 1'))
        weights = [CTX.q_power(d - 2 * n) for n in range(d + 1)]
        for label in ('y0', 'y1'):
            dec = spectrum_decompose(rep.gens[label], weights)
            assert dec is not None
            assert dec.dims == (1,) * (d + 1)


def test_tensor_dimensions_and_relations():
    a = evaluation_module(EvaluationParams(1, 1))
    b = evaluation_module(EvaluationParams(1, 'q + 1'))
    ab = tensor_modules(a, b)
    assert ab.dimension == 4
    assert ab.check().passed
    assert ab.provenance['kind'] == 'tensor'
    assert [f['t'] for f in ab.provenance['factors']] == ['1', 'q + 1']


def test_tensor_trivial_factors():
    a = evaluation_module(EvaluationParams(0, 1))
    assert tensor_modules(a, a).dimension == 1


def test_tensor_y1_spectrum():
    a = evaluation_module(EvaluationParams(1, 1))
    b = evaluation_module(EvaluationParams(1, 'q + 1'))
    ab = tensor_modules(a, b)
    dec = spectrum_decompose(ab.gens['y1'], [Q * Q, CTX.one, QINV * QINV])
    assert dec is not None
    assert dec.dims == (1, 2, 1)


def test_tensor_generic_parameters_irreducible():
    a = evaluation_module(EvaluationParams(1, 1))
    b = evaluation_module(EvaluationParams(1, 'q + 1'))
    ab = tensor_modules(a, b)
    assert algebra_closure_dim(list(ab.gens.values())) == 16


def test_tensor_resonant_parameters_reducible():
    # parameters in ratio q^2 leave a proper invariant subspace
    a = evaluation_module(EvaluationParams(1, 1))
    b = evaluation_module(EvaluationParams(1, 'q^2'))
    ab = tensor_modules(a, b)
    assert algebra_closure_dim(list(ab.gens.values())) < 16


def test_tensor_requires_chevalley_data():
    a = evaluation_module(EvaluationParams(1, 1))
    bare = MatrixRep(a.algebra_id, a.ctx, dict(a.gens))
    with pytest.raises(RepError):
        tensor_modules(a, bare)
    with pytest.raises(RepError):
        tensor_modules(uqsl2_equitable_module(1), a)
    with pytest.raises(RepError):
        tensor_modules(a, evaluation_module(EvaluationParams(1, 2),
                                            specialized(3)))


def test_tensor_strictly_associative():
    # Kronecker products and this comultiplication associate on the nose,
    # so the two bracketings give identical matrices (not just isomorphic)
    a = evaluation_module(EvaluationParams(1, 1))
    b = evaluation_module(EvaluationParams(1, 'q + 1'))
    c = evaluation_module(EvaluationParams(1, 'q - 1'))
    left = tensor_modules(tensor_modules(a, b), c)
    right = tensor_modules(a, tensor_modules(b, c))
    assert left.gens == right.gens


def test_aq_pair_from_evaluation():
    t = CTX.parse('q + 1')
    rep = evaluation_module(EvaluationParams(1, t))
    X, Y = aq_pair_of(rep)
    assert X == mat([[QINV, 0], [1, Q]])
    assert Y == mat([[Q, CTX.one / t], [0, QINV]])
    assert check_representation('AQ', {'x': X, 'y': Y}).passed


def test_aq_pair_trivial():
    X, Y = aq_pair_of(evaluation_module(EvaluationParams(0, 1)))
    assert X == ExactMatrix.identity(CTX, 1)
    assert Y == ExactMatrix.identity(CTX, 1)


def test_aq_pair_from_tensor():
    a = evaluation_module(EvaluationParams(1, 1))
    b = evaluation_module(EvaluationParams(1, 'q + 1'))
    X, Y = aq_pair_of(tensor_modules(a, b))
    assert check_representation(AQ, {'x': X, 'y': Y}).passed
    for m in (X, Y):
        dec = spectrum_decompose(m, [Q * Q, CTX.one, QINV * QINV])
        assert dec is not None
        assert dec.dims == (1, 2, 1)


def test_aq_pair_requires_loop_module():
    with pytest.raises(RepError):
        aq_pair_of(uqsl2_equitable_module(1))


def test_specialized_context_pipeline():
    ctx = specialized(3)
    rep = evaluation_module(EvaluationParams(2, 5), ctx)
    assert rep.dimension == 3
    assert rep.check().passed
    ab = tensor_modules(rep, evaluation_module(EvaluationParams(1, 1), ctx))
    assert ab.dimension == 6
    assert ab.check().passed
