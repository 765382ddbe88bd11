"""Structural analysis: type detection, decompositions, flags, tables."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qtetra.modanalysis as modanalysis
from qtetra.exactla import (
    Decomposition,
    ExactMatrix,
    Subspace,
    spectrum_decompose,
    subspace_sum,
)
from qtetra.modanalysis import (
    CHAIN,
    AnalysisError,
    Flag,
    ModuleSpectra,
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
from test_dualities import q2_modules_maybe_corrupted
from test_exactla import Q2, boxq_q2, invertible_matrices

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


# -- the top-down scan against the ascending scan --------------------------

def ascending_detect_type_diameter(m: ExactMatrix):
    """Reference: try every d from 0 up, each with both signs."""
    if not m.is_square():
        raise AnalysisError('type detection needs a square matrix')
    ctx = m.ctx
    for d in range(m.rows):
        for eps in (1, -1):
            sign = ctx.one if eps == 1 else -ctx.one
            candidates = [sign * ctx.q_power(d - 2 * n)
                          for n in range(d + 1)]
            dec = spectrum_decompose(m, candidates)
            if dec is not None:
                return eps, d, dec
    raise AnalysisError('not a type-eps semisimple spectrum: no sign and '
                        'diameter match the eigenvalues of this matrix')


def detection(detect, m):
    """(eps, d, decomposition), or the AnalysisError's message."""
    try:
        return detect(m)
    except AnalysisError as exc:
        return str(exc)


BROKEN = ('valid', 'mixed signs', 'missing exponent',
          'exponent above n-1', 'nilpotent block')


@st.composite
def q2_spectra(draw):
    """P^-1 D P at q = 2 with P unimodular.  D is diagonal with the
    spectrum {eps*2^(d-2n)} (each value once or twice), or that spectrum
    broken one way; a nilpotent block is a repeated value with a 1 above
    the diagonal."""
    eps = draw(st.sampled_from([1, -1]))
    d = draw(st.integers(min_value=0, max_value=3))
    values = []
    for n in range(d + 1):
        values += [eps * Fraction(2) ** (d - 2 * n)] * draw(
            st.integers(min_value=1, max_value=2))
    broken = draw(st.sampled_from(BROKEN))
    pick = draw(st.integers(min_value=0, max_value=len(values) - 1))
    if broken == 'mixed signs':
        values[pick] = -values[pick]
    elif broken == 'missing exponent' and len(set(values)) > 1:
        values = [v for v in values if v != values[pick]]
    elif broken == 'exponent above n-1':
        values[pick] = eps * Fraction(2) ** (len(values) + draw(
            st.integers(min_value=0, max_value=2)))
    elif broken == 'nilpotent block':
        values.insert(pick, values[pick])
    size = len(values)
    rows = [[values[i] if i == j else 0 for j in range(size)]
            for i in range(size)]
    if broken == 'nilpotent block':
        rows[pick][pick + 1] = 1
    p = draw(invertible_matrices(size))
    return p.inverse() * ExactMatrix.from_rows(Q2, rows) * p


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(q2_spectra())
def test_top_down_detect_matches_ascending(m):
    assert (detection(detect_type_diameter, m)
            == detection(ascending_detect_type_diameter, m))


def test_top_down_detect_symbolic():
    p = mat([[1, 2, 0], [0, 1, -1], [1, 0, 1]])
    mixed = ExactMatrix.diagonal(CTX, [Q * Q, -CTX.one, QINV * QINV])
    cases = [p.inverse() * m * p
             for m in boxq_module(2, 'q').gens.values()]
    cases.append(p.inverse() * mixed * p)
    for m in cases:
        assert (detection(detect_type_diameter, m)
                == detection(ascending_detect_type_diameter, m))
    assert detection(detect_type_diameter, cases[0])[:2] == (1, 2)
    assert isinstance(detection(detect_type_diameter, cases[-1]), str)


def test_module_spectra_detects_each_label_once(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return detect_type_diameter(m)
    monkeypatch.setattr(modanalysis, 'detect_type_diameter', counting)
    mod = boxq_module(2, 'q')
    bad = copy_with(mod, x13=mod.gens['x13'].scale(2))
    for module, passed in ((mod, True), (bad, False)):
        calls.clear()
        spectra = ModuleSpectra(module)
        table = check_action_tables(spectra)
        assert table.passed == passed
        if passed:
            assert shape_of(spectra).passed
            assert [flag_of(spectra, i).dims for i in range(4)] == [
                (1, 2, 3)] * 4
        else:
            assert table.spectrum_failures == ('x13',)
            for _ in range(2):
                with pytest.raises(AnalysisError, match='not a type-eps'):
                    shape_of(spectra)
        assert len(calls) == 8


def test_module_spectra_needs_boxq():
    loop = evaluation_module(EvaluationParams(1, 1))
    with pytest.raises(AnalysisError):
        ModuleSpectra(loop)


def test_decomposition_ij_basics():
    spectra = ModuleSpectra(boxq_module(1, 'q + 1'))
    dec = decomposition_ij(spectra, 0, 1)
    assert dec.component(0) == span([0, 1])
    assert dec.component(1) == span([QINV - Q, 1])
    # x02 acts as diag(q^-1, q), so its q-eigenspace is the second axis
    dec02 = decomposition_ij(spectra, 0, 2)
    assert dec02.component(0) == span([0, 1])
    assert dec02.component(1) == span([1, 0])


def test_decomposition_trivial_module():
    spectra = ModuleSpectra(boxq_module(0, 1))
    for i in range(4):
        for j in (i + 1, i + 2):
            assert decomposition_ij(spectra, i, j).components[0].is_full()


def test_decomposition_rejects_negative_type():
    mod = boxq_module(1, 1)
    negated = MatrixRep(BOXQ, CTX, {g: -m for g, m in mod.gens.items()})
    with pytest.raises(AnalysisError, match='negate'):
        decomposition_ij(ModuleSpectra(negated), 0, 1)


def test_decomposition_rejects_bad_indices():
    spectra = ModuleSpectra(boxq_module(1, 1))
    for i, j in ((0, 0), (0, 3), (1, 0), (2, 1)):
        with pytest.raises(AnalysisError):
            decomposition_ij(spectra, i, j)


def test_long_decomposition_is_inversion_of_its_inverse():
    for mod in (boxq_module(1, 'q + 1'), boxq_module(2, 'q')):
        spectra = ModuleSpectra(mod)
        for i in range(4):
            long = decomposition_ij(spectra, i, i + 2)
            back = decomposition_ij(spectra, i + 2, i)
            assert long == back.inversion()


def test_shape_small_modules():
    report = shape_of(ModuleSpectra(boxq_module(1, 'q + 1')))
    assert report.passed
    assert (report.epsilon, report.d, report.shape) == (1, 1, (1, 1))
    assert shape_of(ModuleSpectra(boxq_module(0, 1))).shape == (1,)


def test_shape_tensor_module():
    report = shape_of(ModuleSpectra(tensor_module()))
    assert report.passed
    assert report.shape == (1, 2, 1)
    assert all(dims == (1, 2, 1) for dims in report.generator_dims.values())


def test_shape_detects_nonuniform_generator():
    # swap in a generator whose eigenspace dimensions disagree
    corrupted = copy_with(
        tensor_module(),
        x01=ExactMatrix.diagonal(CTX, [Q * Q, Q * Q, 1, QINV * QINV]))
    report = shape_of(ModuleSpectra(corrupted))
    assert not report.uniform
    assert not report.passed
    assert report.generator_dims['x01'] == (2, 1, 1)


def test_shape_detects_nonpalindromic():
    skew = ExactMatrix.diagonal(CTX, [Q * Q, Q * Q, 1, QINV * QINV])
    fake = MatrixRep(BOXQ, CTX, {g: skew for g in GENERATORS[BOXQ]})
    report = shape_of(ModuleSpectra(fake))
    assert report.uniform
    assert not report.palindromic
    assert not report.passed


def test_flag_components():
    spectra = ModuleSpectra(boxq_module(1, 'q + 1'))
    assert flag_of(spectra, 0).components[0] == span([0, 1])
    assert flag_of(spectra, 2).components[0] == span([1, 0])
    for i in range(4):
        flag = flag_of(spectra, i)
        assert flag.dims == (1, 2)
        assert flag.component(-1).is_zero()
        assert flag.component(5).is_full()
    assert flag_of(ModuleSpectra(boxq_module(0, 1)), 3).dims == (1,)


def test_flag_consistency_violation():
    # replace x02 by a matrix with the right spectrum but wrong eigenspaces
    corrupted = copy_with(boxq_module(1, 'q + 1'),
                          x02=ExactMatrix.diagonal(CTX, [Q, QINV]))
    with pytest.raises(StructuralError):
        flag_of(ModuleSpectra(corrupted), 0)


def test_flag_validation():
    with pytest.raises(AnalysisError):
        Flag(CTX, 2, [span([1, 0])])  # top component not full
    with pytest.raises(AnalysisError):
        Flag(CTX, 2, [span([1, 0]), span([0, 1])])  # not nested


def test_opposite_flag_pairs():
    spectra = ModuleSpectra(boxq_module(1, 'q + 1'))
    dec = check_opposite(flag_of(spectra, 0), flag_of(spectra, 1))
    assert dec is not None
    assert dec == decomposition_ij(spectra, 0, 1)
    dec13 = check_opposite(flag_of(spectra, 1), flag_of(spectra, 3))
    assert dec13 is not None
    assert dec13 == decomposition_ij(spectra, 1, 3)


def test_flag_not_opposite_to_itself():
    flag = flag_of(ModuleSpectra(boxq_module(1, 'q + 1')), 0)
    assert check_opposite(flag, flag) is None


def test_opposite_requires_matching_flags():
    a = flag_of(ModuleSpectra(boxq_module(1, 'q + 1')), 0)
    b = flag_of(ModuleSpectra(tensor_module()), 0)
    with pytest.raises(AnalysisError):
        check_opposite(a, b)


# -- the opposite-flag lemma against the full check ------------------------

def reference_check_opposite(a: Flag, b: Flag):
    """Reference: every a_i /\\ b_j with i + j < d, then the direct sum
    of the V_n, and both flags induced back from it."""
    if a.d != b.d or a.ambient_dim != b.ambient_dim:
        raise AnalysisError('flags must share diameter and ambient space')
    d = a.d
    for i in range(d + 1):
        for j in range(d - i):
            if not a.component(i).intersect(b.component(j)).is_zero():
                return None
    components = [a.component(n).intersect(b.component(d - n))
                  for n in range(d + 1)]
    total, direct = subspace_sum(components)
    if not (direct and total.is_full()):
        return None
    dec = Decomposition(a.ctx, a.ambient_dim, components)
    if Flag.from_decomposition(dec) != a:
        return None
    if Flag.from_decomposition(dec.inversion()) != b:
        return None
    return dec


def _flag_from_columns(p: ExactMatrix, cuts):
    """The flag whose n-th component spans the first cuts[n] columns."""
    columns = [[row[k] for row in p.data] for k in range(p.cols)]
    return Flag(Q2, p.rows, [Subspace.from_vectors(Q2, p.rows, columns[:c])
                             for c in cuts])


@st.composite
def q2_flag_pairs(draw):
    """Two q = 2 flags of one diameter on Q^n.  'opposite' reads a and b
    off one basis, from its two ends with the same cut; 'perturbed' adds
    a column to another in b's copy of the basis; 'mismatched cut' gives
    b another cut of the same basis; 'random' gives b its own basis."""
    n = draw(st.integers(min_value=1, max_value=5))
    d = draw(st.integers(min_value=0, max_value=n))
    cut = st.lists(st.integers(min_value=0, max_value=n), min_size=d,
                   max_size=d).map(lambda c: sorted(c) + [n])
    cuts_a = draw(cut)
    kind = draw(st.sampled_from(['opposite', 'perturbed', 'mismatched cut',
                                 'random']))
    p = draw(invertible_matrices(n))
    reverse = ExactMatrix.from_rows(
        Q2, [[int(i + j == n - 1) for j in range(n)] for i in range(n)])
    # b's basis runs from the other end, so with the same cut its
    # components are sums of a's last blocks
    cuts_b = [n - c for c in reversed([0] + cuts_a[:-1])]
    p_b = p * reverse
    if kind == 'perturbed' and n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        k = draw(st.integers(min_value=-2, max_value=2))
        rows = [list(row) for row in p_b.data]
        for row in rows:
            row[i] = row[i] + k * row[j]
        p_b = ExactMatrix.from_rows(Q2, rows)
    elif kind == 'mismatched cut':
        cuts_b = draw(cut)
    elif kind == 'random':
        p_b = draw(invertible_matrices(n))
    return _flag_from_columns(p, cuts_a), _flag_from_columns(p_b, cuts_b)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(q2_flag_pairs())
def test_check_opposite_matches_reference(pair):
    a, b = pair
    assert check_opposite(a, b) == reference_check_opposite(a, b)


def test_action_tables_pass_on_valid_modules():
    for mod in (boxq_module(0, 1), boxq_module(1, 'q + 1'),
                boxq_module(2, 'q')):
        report = check_action_tables(ModuleSpectra(mod))
        assert report.passed
        assert report.violations == ()
        assert report.spectrum_failures == ()


def test_action_tables_entry_perturbation():
    mod = boxq_module(1, 'q + 1')
    bad = mod.gens['x01'] + mat([[0, 1], [0, 0]])
    report = check_action_tables(ModuleSpectra(copy_with(mod, x01=bad)))
    assert not report.passed
    assert 'x01' in report.spectrum_failures


def test_action_tables_moved_eigenspaces():
    # conjugating one generator keeps its spectrum but breaks containments
    mod = boxq_module(1, 'q + 1')
    p = mat([[1, 1], [0, 1]])
    moved = p * mod.gens['x01'] * p.inverse()
    report = check_action_tables(ModuleSpectra(copy_with(mod, x01=moved)))
    assert not report.passed
    assert report.violations
    tables = {v[0] for v in report.violations}
    assert tables <= {1, 2}
    blob = report.to_dict()
    assert blob['passed'] is False
    assert blob['violations'] == [list(v) for v in report.violations]


# -- the membership test against the coordinate-block check ---------------

class _DecCoords:
    """A decomposition with coordinates in its concatenated eigenbasis."""

    def __init__(self, dec):
        columns = []
        blocks = []
        for k in range(dec.d + 1):
            vectors = dec.component(k).vectors()
            blocks.append((len(columns), len(columns) + len(vectors)))
            columns.extend(vectors)
        self.dec = dec
        self.blocks = tuple(blocks)
        self.inv = ExactMatrix.from_columns(dec.ctx, columns).inverse()


def _reference_image_inside(ctx, op, shift, coords, n, allowed, d):
    if shift == 'high':
        op = op.minus_scalar(ctx.q_power(d - 2 * n))
    elif shift == 'low':
        op = op.minus_scalar(ctx.q_power(2 * n - d))
    allowed_set = {k for k in allowed(n, d) if 0 <= k <= d}
    excluded = [coords.blocks[m] for m in range(d + 1)
                if m not in allowed_set]
    for v in coords.dec.component(n).vectors():
        w = coords.inv.apply(op.apply(v))
        for lo, hi in excluded:
            if any(w[r] for r in range(lo, hi)):
                return False
    return True


def reference_check_action_tables(spectra):
    """Reference: coordinates in each decomposition's eigenbasis, and a
    zero test on the blocks of the excluded components.  Raises
    IndexError when a decomposition's diameter is below x01's."""
    mod = spectra.mod
    ctx = mod.ctx
    decs = {}
    failures = []
    for i, j in modanalysis._LABEL_PAIRS:
        label = modanalysis.boxq_label(i, j)
        try:
            decs[label] = _DecCoords(decomposition_ij(spectra, i, j))
        except AnalysisError:
            failures.append(label)
    if failures:
        return modanalysis.TableReport(-1, (), tuple(failures))
    d = decs['x01'].dec.d
    violations = []
    tables = ((1, modanalysis._TABLE1, 1), (2, modanalysis._TABLE2, 2))
    for table_no, table, op_offset in tables:
        for i in range(4):
            op = mod.gens[modanalysis.boxq_label(i, i + op_offset)]
            for (a, b), shift, allowed in table:
                coords = decs[modanalysis.boxq_label(i + a, i + b)]
                for n in range(coords.dec.d + 1):
                    if not _reference_image_inside(ctx, op, shift, coords,
                                                   n, allowed, d):
                        violations.append(
                            (table_no, modanalysis._row_name(a, b), i, n))
    return modanalysis.TableReport(d, tuple(violations), ())


@st.composite
def q2_mixed_diameter_modules(draw):
    """Eight semisimple type-1 q = 2 generators on Q^n, n <= 4, each
    P D P^-1 with its own diameter: D holds every 2^(d-2k), k = 0..d, at
    least once, and P is unimodular or the identity."""
    n = draw(st.integers(min_value=1, max_value=4))
    gens = {}
    for g in GENERATORS[BOXQ]:
        d = draw(st.integers(min_value=0, max_value=n - 1))
        extra = draw(st.lists(st.integers(min_value=0, max_value=d),
                              min_size=n - d - 1, max_size=n - d - 1))
        ks = sorted(list(range(d + 1)) + extra)
        diag = ExactMatrix.diagonal(
            Q2, [Q2.coerce(Fraction(2) ** (d - 2 * k)) for k in ks])
        if draw(st.booleans()):
            p = draw(invertible_matrices(n))
            diag = p * diag * p.inverse()
        gens[g] = diag
    return MatrixRep(BOXQ, Q2, gens)


TABLE_INPUTS = st.one_of(
    st.builds(boxq_q2, st.integers(min_value=0, max_value=3),
              st.sampled_from(['1', '3', '1/2'])),
    q2_modules_maybe_corrupted(),
    q2_mixed_diameter_modules())


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(TABLE_INPUTS)
def test_action_tables_match_reference(mod):
    spectra = ModuleSpectra(mod)
    report = check_action_tables(spectra)
    try:
        expected = reference_check_action_tables(spectra)
    except IndexError:
        # the reference indexes past a shorter decomposition's blocks
        assert isinstance(report, modanalysis.TableReport)
        return
    assert report == expected


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
