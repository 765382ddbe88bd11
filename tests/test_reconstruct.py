"""Reconstruction pipeline: frozen outputs, stage failures, round trips."""

from __future__ import annotations

import pytest

from qtetra.exactla import ExactMatrix
from qtetra.repbuilder import (
    EvaluationParams,
    aq_pair_of,
    evaluation_module,
    tensor_modules,
)
from qtetra.reconstruct import (
    ReconstructError,
    irreducible_pair,
    pair_profile,
    reconstruct_boxq,
    roundtrip_verify,
)
from qtetra.scalars import SYMBOLIC

CTX = SYMBOLIC
Q = CTX.q
QINV = CTX.q_power(-1)
W = (Q - QINV) * (Q - QINV)


def mat(rows):
    return ExactMatrix.from_rows(CTX, rows)


def evaluation_pair(d, t):
    return aq_pair_of(evaluation_module(EvaluationParams(d, t)))


def test_trivial_pair():
    one = ExactMatrix.identity(CTX, 1)
    mod = reconstruct_boxq(one, one)
    assert all(m == one for m in mod.gens.values())
    assert mod.provenance == {'kind': 'reconstructed', 'd': 0}


def test_two_dimensional_frozen_output():
    t = CTX.parse('q + 1')
    X = mat([[QINV, 0], [1, Q]])
    Y = mat([[Q, CTX.one / t], [0, QINV]])
    mod = reconstruct_boxq(X, Y)
    assert mod.gens['x01'] == X
    assert mod.gens['x23'] == Y
    assert mod.gens['x02'] == ExactMatrix.diagonal(CTX, [QINV, Q])
    assert mod.gens['x20'] == ExactMatrix.diagonal(CTX, [Q, QINV])
    assert mod.gens['x12'] == mat([[QINV, -W], [0, Q]])
    assert mod.gens['x30'] == mat([[Q, 0], [-t * W, QINV]])
    # x13 is pinned by its eigenvectors: the q-eigenline of x01 reversed
    # into the flag [1], and the q^-1 line from flag [3]
    v = [QINV - Q, CTX.one]
    w = [CTX.one, -t * (Q - QINV)]
    assert mod.gens['x13'].apply(v) == [Q * a for a in v]
    assert mod.gens['x13'].apply(w) == [QINV * a for a in w]
    assert mod.gens['x31'] == mod.gens['x13'].inverse()


def test_matches_loop_pullback():
    # the loop-algebra matrices already give one valid module structure
    # on the pair; uniqueness forces reconstruction to coincide with it
    for d, t in ((0, 1), (1, 'q + 1'), (2, 'q')):
        ev = evaluation_module(EvaluationParams(d, t))
        mod = reconstruct_boxq(*aq_pair_of(ev))
        assert mod.gens['x20'] == ev.gens['x1']
        assert mod.gens['x01'] == ev.gens['y1']
        assert mod.gens['x12'] == ev.gens['z1']
        assert mod.gens['x02'] == ev.gens['x0']
        assert mod.gens['x23'] == ev.gens['y0']
        assert mod.gens['x30'] == ev.gens['z0']
        assert mod.check().passed


def test_conjugation_equivariance():
    X, Y = evaluation_pair(1, 'q + 1')
    p = mat([[1, 1], [0, 1]])
    p_inv = p.inverse()
    direct = reconstruct_boxq(X, Y)
    moved = reconstruct_boxq(p * X * p_inv, p * Y * p_inv)
    for g, m in direct.gens.items():
        assert moved.gens[g] == p * m * p_inv


def test_profile_of_pair():
    X, Y = evaluation_pair(2, 'q')
    profile = pair_profile(X, Y)
    assert profile.d == 2
    assert profile.dec_x.dims == (1, 1, 1)


def test_spectrum_stage_rejections():
    valid2 = mat([[QINV, 0], [1, Q]])
    cases = [
        (mat([[0, 1], [0, 0]]), valid2),                    # nilpotent
        (ExactMatrix.diagonal(CTX, [Q * Q, QINV * QINV]), valid2),
        (valid2, ExactMatrix.identity(CTX, 2)),             # diameters 1, 0
        (-valid2, valid2),                                  # type -1
    ]
    for X, Y in cases:
        with pytest.raises(ReconstructError) as err:
            reconstruct_boxq(X, Y)
        assert err.value.stage == 'spectrum mismatch'
    with pytest.raises(ReconstructError):
        reconstruct_boxq(valid2, ExactMatrix.identity(CTX, 3))


def test_aq_stage_rejection():
    # right spectra, but the cubic relations fail for this 3x3 pair
    X, _ = evaluation_pair(2, 1)
    D = ExactMatrix.diagonal(CTX, [Q * Q, CTX.one, QINV * QINV])
    p = mat([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    Y = p * D * p.inverse()
    with pytest.raises(ReconstructError) as err:
        reconstruct_boxq(X, Y)
    assert err.value.stage == 'aq relations'


def test_irreducibility_stage_rejection():
    diag = ExactMatrix.diagonal(CTX, [Q, QINV])
    with pytest.raises(ReconstructError) as err:
        reconstruct_boxq(diag, diag)
    assert err.value.stage == 'irreducibility'


def test_resonant_tensor_rejected():
    a = evaluation_module(EvaluationParams(1, 1))
    b = evaluation_module(EvaluationParams(1, 'q^2'))
    X, Y = aq_pair_of(tensor_modules(a, b))
    with pytest.raises(ReconstructError) as err:
        reconstruct_boxq(X, Y)
    assert err.value.stage == 'irreducibility'


def test_irreducibility_certificates():
    X, Y = evaluation_pair(1, 1)
    cert = irreducible_pair(X, Y)
    assert cert.full
    assert (cert.dimension, cert.closure_dim) == (2, 4)
    diag = ExactMatrix.diagonal(CTX, [Q, QINV])
    small = irreducible_pair(diag, diag)
    assert not small.full
    assert small.closure_dim == 2
    assert small.to_dict()['full'] is False


def test_roundtrip_small_modules():
    for d, t in ((0, 1), (1, 'q + 1'), (2, 'q')):
        mod = reconstruct_boxq(*evaluation_pair(d, t))
        report = roundtrip_verify(mod)
        assert report.passed
        assert report.mismatched == ()


def test_roundtrip_tensor_module():
    a = evaluation_module(EvaluationParams(1, 1))
    b = evaluation_module(EvaluationParams(1, 'q + 1'))
    mod = reconstruct_boxq(*aq_pair_of(tensor_modules(a, b)))
    assert roundtrip_verify(mod).passed


def test_roundtrip_requires_boxq():
    with pytest.raises(ReconstructError):
        roundtrip_verify(evaluation_module(EvaluationParams(1, 1)))


def test_error_carries_stage():
    try:
        reconstruct_boxq(mat([[0, 1], [0, 0]]),
                         ExactMatrix.identity(CTX, 2))
    except ReconstructError as err:
        assert err.stage == 'spectrum mismatch'
        assert 'spectrum mismatch' in str(err)
    else:  # pragma: no cover
        raise AssertionError('expected a stage failure')
