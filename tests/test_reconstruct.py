"""Reconstruction pipeline: frozen outputs, stage failures, round trips."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qtetra.exactla import ExactMatrix
from qtetra.modanalysis import Flag
from qtetra.presentations import AQ, BOXQ, boxq_label, check_representation
from qtetra.repbuilder import (
    EvaluationParams,
    MatrixRep,
    aq_pair_of,
    evaluation_module,
    tensor_modules,
)
from qtetra.reconstruct import (
    ReconstructError,
    _matrix_with_eigenvalues,
    irreducible_pair,
    pair_profile,
    reconstruct_boxq,
    roundtrip_verify,
)
from qtetra.scalars import SYMBOLIC
from test_exactla import boxq_q2, invertible_matrices
from test_modanalysis import reference_check_opposite

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


# -- reconstruct o extract = identity, against the eight-matrix build -------

def reference_reconstruct_boxq(X, Y):
    """Reference: all six flag pairs through the full opposite check, all
    eight generators built from eigenvalues, and the rebuilt x01 and x23
    compared with the input pair."""
    profile = pair_profile(X, Y)
    if not check_representation(AQ, {'x': X, 'y': Y}).passed:
        raise ReconstructError('aq relations', 'failing')
    if not irreducible_pair(X, Y).full:
        raise ReconstructError('irreducibility', 'reducible')
    flags = {
        0: Flag.from_decomposition(profile.dec_x),
        1: Flag.from_decomposition(profile.dec_x.inversion()),
        2: Flag.from_decomposition(profile.dec_y),
        3: Flag.from_decomposition(profile.dec_y.inversion()),
    }
    decs = {}
    for a in range(4):
        for b in range(a + 1, 4):
            dec = reference_check_opposite(flags[a], flags[b])
            if dec is None:
                raise ReconstructError('flags not opposite', f'[{a}], [{b}]')
            decs[a, b] = dec
    gens = {}
    for i in range(4):
        for j in (i + 1, i + 2):
            jj = j % 4
            dec = decs[i, jj] if (i, jj) in decs else decs[jj, i].inversion()
            gens[boxq_label(i, j)] = _matrix_with_eigenvalues(dec)
    if not check_representation(BOXQ, gens).passed:
        raise ReconstructError('relation check', 'failing')
    if gens['x01'] != X or gens['x23'] != Y:
        raise ReconstructError('consistency', 'x01/x23 differ from the pair')
    return MatrixRep(BOXQ, X.ctx, gens)


@st.composite
def conjugated_q2_modules(draw):
    """A q = 2 module with d <= 4 and a unimodular conjugator P."""
    d = draw(st.integers(min_value=0, max_value=4))
    mod = boxq_q2(d, draw(st.sampled_from(['1', '3', '1/2'])))
    return mod, draw(invertible_matrices(mod.dimension))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(conjugated_q2_modules())
def test_reconstruct_extract_identity_on_conjugates(case):
    mod, p = case
    p_inv = p.inverse()
    moved = {g: p * m * p_inv for g, m in mod.gens.items()}
    rebuilt = reconstruct_boxq(moved['x01'], moved['x23'])
    assert rebuilt.gens == moved
    reference = reference_reconstruct_boxq(moved['x01'], moved['x23'])
    assert rebuilt.gens == reference.gens
