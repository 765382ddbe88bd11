from fractions import Fraction
from functools import lru_cache

import pytest
import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qtetra.exactla import (
    Decomposition,
    ExactMatrix,
    LinAlgError,
    algebra_closure_dim,
    eigenspace,
    intertwiner_space,
    invertible_witness,
    kernel,
    matrix_from_flat,
    spectrum_decompose,
    specialize_matrix,
    subspace_intersect,
    subspace_sum,
    Subspace,
    _nullspace_vectors,
)
from qtetra.dualities import negate
from qtetra.reconstruct import reconstruct_boxq
from qtetra.repbuilder import (
    EvaluationParams,
    MatrixRep,
    aq_pair_of,
    evaluation_module,
)
from qtetra.scalars import SYMBOLIC, specialized

CTX = SYMBOLIC
Q = CTX.q
QINV = CTX.q_power(-1)


def span(*vectors, ambient=None):
    ambient = ambient if ambient is not None else len(vectors[0])
    return Subspace.from_vectors(CTX, ambient, [list(v) for v in vectors])


def lower() -> ExactMatrix:
    # the d=1 equitable y-matrix
    return ExactMatrix(CTX, [[QINV, CTX.zero], [CTX.one, Q]])


def upper() -> ExactMatrix:
    return ExactMatrix(CTX, [[Q, CTX.one], [CTX.zero, QINV]])


def test_matrix_basics():
    a = lower()
    ident = ExactMatrix.identity(CTX, 2)
    assert a * ident == a
    assert (a - a).is_zero()
    assert a.transpose().transpose() == a
    assert (a * a.inverse()) == ident
    assert a.apply([CTX.zero, CTX.one]) == [CTX.zero, Q]


def test_inverse_of_singular_matrix():
    m = ExactMatrix.from_rows(CTX, [[1, 1], [1, 1]])
    with pytest.raises(LinAlgError):
        m.inverse()


def test_eigenspace_examples():
    a = lower()
    assert eigenspace(a, Q) == span((0, 1))
    assert eigenspace(a, QINV) == span((QINV - Q, CTX.one))
    assert eigenspace(ExactMatrix.identity(CTX, 3), CTX.one).dim == 3
    # exactness: M v = theta v for every basis vector
    for theta in (Q, QINV):
        space = eigenspace(a, theta)
        for v in space.vectors():
            assert a.apply(v) == [theta * x for x in v]


def test_eigenspace_requires_square():
    with pytest.raises(LinAlgError):
        eigenspace(ExactMatrix.zeros(CTX, 2, 3), CTX.one)


def test_subspace_sum_examples():
    total, direct = subspace_sum([span((1, 0)), span((0, 1))])
    assert total.is_full() and direct
    total, direct = subspace_sum([span((1, 0)), span((1, 0))])
    assert total == span((1, 0)) and not direct
    a = lower()
    total, direct = subspace_sum([eigenspace(a, Q), eigenspace(a, QINV)])
    assert total.is_full() and direct


def test_subspace_intersect_examples():
    full = Subspace.full(CTX, 2)
    assert subspace_intersect(full, span((1, 1))) == span((1, 1))
    assert subspace_intersect(span((1, 0)), span((0, 1))).is_zero()
    w = span((QINV - Q, CTX.one))
    assert subspace_intersect(span((0, 1), (1, 0)), w) == w


def test_subspace_mismatched_ambient():
    with pytest.raises(LinAlgError):
        subspace_sum([span((1, 0)), span((1, 0, 0))])
    with pytest.raises(LinAlgError):
        subspace_intersect(span((1, 0)), span((1, 0, 0)))


def test_modular_dimension_law():
    vectors = [
        (CTX.one, Q, CTX.zero),
        (CTX.zero, CTX.one, QINV),
        (Q, CTX.zero, CTX.one),
        (CTX.one, CTX.one, CTX.one),
    ]
    samples = [span(v, ambient=3) for v in vectors]
    samples.append(span(vectors[0], vectors[1], ambient=3))
    samples.append(span(vectors[2], vectors[3], ambient=3))
    samples.append(Subspace.zero(CTX, 3))
    samples.append(Subspace.full(CTX, 3))
    for a in samples:
        for b in samples:
            total, _ = subspace_sum([a, b])
            inter = subspace_intersect(a, b)
            assert a.dim + b.dim == total.dim + inter.dim


def test_spectrum_decompose_examples():
    m = ExactMatrix.diagonal(CTX, [Q, QINV])
    dec = spectrum_decompose(m, [Q, QINV])
    assert dec is not None
    assert dec.components[0] == span((1, 0))
    assert dec.components[1] == span((0, 1))

    nil = ExactMatrix.from_rows(CTX, [[0, 1], [0, 0]])
    assert spectrum_decompose(nil, [CTX.zero]) is None

    t = CTX.one
    tri = ExactMatrix(CTX, [[Q, CTX.one / t], [CTX.zero, QINV]])
    dec = spectrum_decompose(tri, [Q, QINV])
    assert dec is not None and dec.dims == (1, 1)


def test_spectrum_decompose_rejects_duplicates():
    m = ExactMatrix.identity(CTX, 2)
    with pytest.raises(LinAlgError):
        spectrum_decompose(m, [Q, Q])


def test_spectrum_decompose_zero_components():
    m = ExactMatrix.diagonal(CTX, [Q, QINV])
    assert spectrum_decompose(m, [Q, QINV, CTX.q_power(5)]) is None


def test_projection_reassembly():
    # success of spectrum_decompose means sum(theta_n P_n) rebuilds M
    t = CTX.q + 1
    m = ExactMatrix(CTX, [[Q, CTX.one / t], [CTX.zero, QINV]])
    dec = spectrum_decompose(m, [Q, QINV])
    cols = [v for comp in dec.components for v in comp.vectors()]
    basis = ExactMatrix.from_columns(CTX, cols)
    basis_inv = basis.inverse()
    acc = ExactMatrix.zeros(CTX, 2)
    offset = 0
    for theta, comp in zip((Q, QINV), dec.components):
        sel = ExactMatrix.zeros(CTX, 2)
        for k in range(comp.dim):
            sel.data[offset + k][offset + k] = CTX.one
        offset += comp.dim
        acc = acc + theta * (basis * sel * basis_inv)
    assert acc == m


def test_decomposition_conventions():
    m = ExactMatrix.diagonal(CTX, [Q, QINV])
    dec = spectrum_decompose(m, [Q, QINV])
    assert dec.component(-1).is_zero()
    assert dec.component(2).is_zero()
    assert dec.inversion().components == tuple(reversed(dec.components))
    sums = dec.partial_sums()
    assert sums[0] == dec.components[0]
    assert sums[1].is_full()


def _closure_oracle(mats):
    """Algebra dimension computed independently with sympy: grow the span
    of the words one length at a time until its rank stops growing."""
    n = mats[0].rows
    sym = [sympy.Matrix([[sympy.sympify(m.ctx.to_text(e).replace('^', '**'))
                          for e in row] for row in m.data]) for m in mats]
    span_rows = [list(sympy.eye(n))]
    while True:
        grown = span_rows + [list(sympy.Matrix(n, n, row) * g)
                             for row in span_rows for g in sym]
        basis = sympy.Matrix(grown).rowspace(simplify=True)
        if len(basis) == len(span_rows):
            return len(basis)
        span_rows = [list(v) for v in basis]


def test_algebra_closure_examples():
    assert algebra_closure_dim([ExactMatrix.identity(CTX, 2)]) == 1
    assert algebra_closure_dim([ExactMatrix.diagonal(CTX, [Q, QINV])]) == 2
    pair = [lower(), upper()]
    assert algebra_closure_dim(pair) == 4
    assert _closure_oracle(pair) == 4


def test_algebra_closure_order_free():
    assert algebra_closure_dim([upper(), lower()]) == 4


def test_algebra_closure_specialized_mode():
    ctx2 = specialized(2)
    pair = [specialize_matrix(lower(), ctx2), specialize_matrix(upper(), ctx2)]
    assert algebra_closure_dim(pair) == 4


def test_kernel_matches_rank():
    m = ExactMatrix.from_rows(CTX, [[1, 1, 0], [0, 0, 1]])
    null = kernel(m)
    assert null.dim == 1
    assert m.apply(null.vectors()[0]) == [CTX.zero, CTX.zero]
    assert m.rank() + null.dim == m.cols


def test_intertwiner_schur_case():
    gens = {'a': lower(), 'b': upper()}
    space = intertwiner_space(gens, gens)
    assert space.dim == 1
    witness = invertible_witness(space, 2)
    assert witness is not None
    # Schur: the only self-intertwiners are scalar multiples of the identity
    flat = space.basis[0]
    m = matrix_from_flat(CTX, list(flat), 2)
    assert m.data[0][1] == CTX.zero and m.data[1][0] == CTX.zero
    assert m.data[0][0] == m.data[1][1]


def test_intertwiner_recovers_conjugator():
    p = ExactMatrix.from_rows(CTX, [[1, 1], [0, 1]])
    p_inv = p.inverse()
    gens_a = {'a': lower(), 'b': upper()}
    gens_b = {k: p_inv * m * p for k, m in gens_a.items()}
    space = intertwiner_space(gens_a, gens_b)
    assert space.dim == 1
    witness = invertible_witness(space, 2)
    # witness must be a scalar multiple of p
    ratio = witness * p.inverse()
    assert ratio.data[0][1] == CTX.zero and ratio.data[1][0] == CTX.zero
    assert ratio.data[0][0] == ratio.data[1][1]


def test_intertwiner_rejects_mismatch():
    with pytest.raises(LinAlgError):
        intertwiner_space({'a': lower()}, {'b': lower()})
    with pytest.raises(LinAlgError):
        intertwiner_space({'a': lower()},
                          {'a': ExactMatrix.identity(CTX, 3)})


def test_specialize_matrix():
    ctx2 = specialized(2)
    m = specialize_matrix(lower(), ctx2)
    assert m.data[0][0] == Fraction(1, 2)
    assert m.ctx == ctx2


# -- the staged solve against the all-equations solve ----------------------

def all_equations_intertwiner_space(gens_a, gens_b):
    """Reference: every label's n^2 equations in n^2 unknowns at once."""
    labels = sorted(gens_a)
    first = gens_a[labels[0]]
    ctx, n = first.ctx, first.rows
    rows = []
    for g in labels:
        a, b = gens_a[g], gens_b[g]
        for i in range(n):
            for j in range(n):
                row = [ctx.zero] * (n * n)
                for k in range(n):
                    if a.data[i][k]:
                        row[k * n + j] = row[k * n + j] + a.data[i][k]
                for l in range(n):
                    if b.data[l][j]:
                        row[i * n + l] = row[i * n + l] - b.data[l][j]
                rows.append(row)
    return Subspace.from_vectors(ctx, n * n,
                                 _nullspace_vectors(ctx, rows, n * n))


Q2 = specialized(2)


@lru_cache(maxsize=None)
def boxq_q2(d, t):
    X, Y = aq_pair_of(evaluation_module(EvaluationParams(d, t), Q2))
    return reconstruct_boxq(X, Y)


def direct_sum(*mods):
    ctx = mods[0].ctx
    n = sum(m.dimension for m in mods)
    gens = {}
    for g in mods[0].gens:
        rows = [[ctx.zero] * n for _ in range(n)]
        offset = 0
        for m in mods:
            for i, row in enumerate(m.gens[g].data):
                rows[offset + i][offset:offset + m.dimension] = row
            offset += m.dimension
        gens[g] = ExactMatrix(ctx, rows)
    return MatrixRep(mods[0].algebra_id, ctx, gens)


def conjugate(mod, p):
    p_inv = p.inverse()
    return {g: p_inv * m * p for g, m in mod.gens.items()}


def _q2_module(kind):
    if kind == 'sum':
        return direct_sum(boxq_q2(1, '3'), boxq_q2(1, '3'))
    if kind == 'mixed':
        return direct_sum(boxq_q2(0, '1'), boxq_q2(1, '1'))
    d, t = kind
    return boxq_q2(d, t)


MODULES = st.sampled_from([(0, '1'), (1, '1'), (1, '3'), (2, '2'),
                           'sum', 'mixed'])


@st.composite
def invertible_matrices(draw, n):
    """L * U with L unit lower and U unit upper triangular."""
    entries = draw(st.lists(st.integers(min_value=-3, max_value=3),
                            min_size=n * n, max_size=n * n))
    cell = [entries[i * n:(i + 1) * n] for i in range(n)]
    lower = [[cell[i][j] if j < i else int(i == j) for j in range(n)]
             for i in range(n)]
    upper = [[cell[i][j] if j > i else int(i == j) for j in range(n)]
             for i in range(n)]
    return ExactMatrix.from_rows(Q2, lower) * ExactMatrix.from_rows(Q2, upper)


@st.composite
def module_pairs(draw):
    """A q = 2 module against a conjugate of it, its negation (an empty
    space), or a conjugate with x01 shifted by the identity."""
    mod = _q2_module(draw(MODULES))
    other = draw(st.sampled_from(['conjugate', 'negate', 'shifted']))
    if other == 'negate':
        gens_b = negate(mod).gens
    else:
        gens_b = conjugate(mod, draw(invertible_matrices(mod.dimension)))
        if other == 'shifted':
            gens_b['x01'] = gens_b['x01'] + ExactMatrix.identity(
                Q2, mod.dimension)
    return mod.gens, gens_b


@st.composite
def generic_pairs(draw):
    """Three labels of small integer matrices, doubled or not, against a
    conjugate in which one label may be changed: no relation among the
    labels makes any of them redundant."""
    n = draw(st.integers(min_value=1, max_value=2))
    entries = st.integers(min_value=-2, max_value=2)
    gens = {g: ExactMatrix.from_rows(Q2, draw(st.lists(
                st.lists(entries, min_size=n, max_size=n),
                min_size=n, max_size=n)))
            for g in 'abc'}
    mod = MatrixRep('generic', Q2, gens)
    if draw(st.booleans()):
        mod = direct_sum(mod, mod)
    gens_b = conjugate(mod, draw(invertible_matrices(mod.dimension)))
    changed = draw(st.sampled_from(['a', 'b', 'c', None]))
    if changed:
        gens_b[changed] = gens_b[changed] + ExactMatrix.identity(
            Q2, mod.dimension)
    return mod.gens, gens_b


PROPERTY = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(module_pairs())
def test_staged_intertwiner_matches_all_equations(pair):
    gens_a, gens_b = pair
    assert (intertwiner_space(gens_a, gens_b)
            == all_equations_intertwiner_space(gens_a, gens_b))


@PROPERTY
@given(generic_pairs())
def test_staged_intertwiner_matches_all_equations_generic(pair):
    gens_a, gens_b = pair
    assert (intertwiner_space(gens_a, gens_b)
            == all_equations_intertwiner_space(gens_a, gens_b))


def test_staged_intertwiner_spaces_cover_dimensions():
    # the property test reaches empty, one- and higher-dimensional spaces
    one = boxq_q2(1, '3')
    assert intertwiner_space(one.gens, negate(one).gens).dim == 0
    assert intertwiner_space(one.gens, one.gens).dim == 1
    double = direct_sum(one, one)
    assert intertwiner_space(double.gens, double.gens).dim == 4


def test_staged_intertwiner_symbolic():
    X, Y = aq_pair_of(evaluation_module(EvaluationParams(1, 'q + 1')))
    mod = reconstruct_boxq(X, Y)
    moved = conjugate(mod, ExactMatrix.from_rows(CTX, [[1, 2], [-1, 3]]))
    space = intertwiner_space(mod.gens, moved)
    assert space.dim == 1
    assert space == all_equations_intertwiner_space(mod.gens, moved)


@st.composite
def closure_inputs(draw):
    """q = 2 pairs of size n <= 4: generic (usually full), block upper
    triangular (reducible), diagonal (commuting), or a weighted shift with
    one corner entry, which needs words of length up to 2n - 2."""
    n = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(['generic', 'block', 'diagonal', 'chain']))
    cut = draw(st.integers(min_value=1, max_value=max(1, n - 1)))
    entries = st.integers(min_value=-3, max_value=3)
    if kind == 'chain':
        nonzero = entries.filter(bool)
        shift = [[draw(nonzero) if j == i + 1 else 0 for j in range(n)]
                 for i in range(n)]
        corner = [[draw(nonzero) if (i, j) == (n - 1, 0) else 0
                   for j in range(n)] for i in range(n)]
        return [ExactMatrix.from_rows(Q2, shift),
                ExactMatrix.from_rows(Q2, corner)]

    def keep(i, j):
        if kind == 'diagonal':
            return i == j
        return kind == 'generic' or not (i >= cut > j)

    return [ExactMatrix.from_rows(Q2, [
                [draw(entries) if keep(i, j) else 0 for j in range(n)]
                for i in range(n)]) for _ in range(2)]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(closure_inputs())
def test_algebra_closure_matches_rank_oracle(gens):
    assert algebra_closure_dim(gens) == _closure_oracle(gens)
