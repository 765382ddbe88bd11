"""Dense exact linear algebra over a scalar field context.

Everything here is generic over the elements a ``FieldContext`` produces:
matrices and subspaces never inspect coefficients, they only add, multiply,
divide and test for zero.  Subspaces carry a unique reduced-echelon basis so
that equality of subspaces is plain ``==`` on the stored vectors; this is
what lets decompositions and flags be compared structurally elsewhere.

The one place specialization is used as more than a convenience is
``algebra_closure_dim``: full rank at a specialized q certifies full rank
over Q(q) (a matrix's rank can only drop under evaluation), so the Burnside
certificate tries a few sample points before falling back to the exact
symbolic span.  A "not full" verdict is always established symbolically.
"""

from __future__ import annotations

import os

from qtetra.scalars import (
    FieldContext,
    SpecializationError,
    specialized,
)

WORD_CAP_ENV = 'QTETRA_WORD_CAP'
_CERTIFICATE_POINTS = (2, 3, 5)


class LinAlgError(ValueError):
    """Structural misuse: shape mismatch, singular inverse, bad arguments."""


class ExactMatrix:
    """Dense matrix over a field context; treated as immutable."""

    __slots__ = ('ctx', 'rows', 'cols', 'data')

    def __init__(self, ctx: FieldContext, data):
        self.ctx = ctx
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        if self.rows == 0:
            raise LinAlgError('matrix needs at least one row')
        self.cols = len(self.data[0])
        if any(len(row) != self.cols for row in self.data):
            raise LinAlgError('ragged matrix rows')

    @classmethod
    def from_rows(cls, ctx, rows):
        """Build from any entries the context can coerce (nums, text)."""
        return cls(ctx, [[ctx.coerce(v) for v in row] for row in rows])

    @classmethod
    def from_columns(cls, ctx, columns):
        return cls(ctx, [list(row) for row in zip(*columns)])

    @classmethod
    def identity(cls, ctx, n):
        return cls(ctx, [[ctx.one if i == j else ctx.zero
                          for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, ctx, rows, cols=None):
        cols = rows if cols is None else cols
        return cls(ctx, [[ctx.zero] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, ctx, entries):
        entries = list(entries)
        m = cls.zeros(ctx, len(entries))
        for i, v in enumerate(entries):
            m.data[i][i] = v
        return m

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and self.ctx == other.ctx
                and self.data == other.data)

    def __repr__(self):
        return f'ExactMatrix({self.rows}x{self.cols})'

    def transpose(self):
        return ExactMatrix(self.ctx, [list(c) for c in zip(*self.data)])

    def is_zero(self):
        return not any(any(row) for row in self.data)

    def is_square(self):
        return self.rows == self.cols

    def __add__(self, other):
        self._match(other)
        return ExactMatrix(self.ctx, [
            [a + b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other):
        self._match(other)
        return ExactMatrix(self.ctx, [
            [a - b for a, b in zip(ra, rb)]
            for ra, rb in zip(self.data, other.data)])

    def __neg__(self):
        return ExactMatrix(self.ctx, [[-a for a in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise LinAlgError(
                    f'cannot multiply {self.rows}x{self.cols} '
                    f'by {other.rows}x{other.cols}')
            zero = self.ctx.zero
            bdata = other.data
            out = []
            for arow in self.data:
                orow = []
                for j in range(other.cols):
                    acc = zero
                    for k, a in enumerate(arow):
                        if a:
                            b = bdata[k][j]
                            if b:
                                acc = acc + a * b
                    orow.append(acc)
                out.append(orow)
            return ExactMatrix(self.ctx, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        c = self.ctx.coerce(c)
        return ExactMatrix(self.ctx, [[c * a for a in row] for row in self.data])

    def apply(self, vector):
        """Matrix times a column vector (a plain list of elements)."""
        if len(vector) != self.cols:
            raise LinAlgError('vector length mismatch')
        zero = self.ctx.zero
        out = []
        for row in self.data:
            acc = zero
            for a, v in zip(row, vector):
                if a and v:
                    acc = acc + a * v
            out.append(acc)
        return out

    def minus_scalar(self, theta):
        """self - theta*I."""
        if not self.is_square():
            raise LinAlgError('square matrix required')
        out = ExactMatrix(self.ctx, self.data)
        for i in range(self.rows):
            out.data[i][i] = out.data[i][i] - theta
        return out

    def eigenspace(self, theta) -> 'Subspace':
        return eigenspace(self, theta)

    def kron(self, other):
        """Tensor product with blocks ordered by this matrix's indices."""
        ctx = self.ctx
        out = []
        for arow in self.data:
            for brow in other.data:
                row = []
                for a in arow:
                    if a:
                        row.extend(a * b if b else ctx.zero for b in brow)
                    else:
                        row.extend([ctx.zero] * other.cols)
                out.append(row)
        return ExactMatrix(ctx, out)

    def rank(self):
        _, pivots = _rref(self.ctx, self.data)
        return len(pivots)

    def inverse(self):
        if not self.is_square():
            raise LinAlgError('square matrix required')
        n = self.rows
        ident = ExactMatrix.identity(self.ctx, n)
        aug = [list(row) + list(irow)
               for row, irow in zip(self.data, ident.data)]
        reduced, pivots = _rref(self.ctx, aug)
        if pivots != list(range(n)):
            raise LinAlgError('matrix is not invertible')
        return ExactMatrix(self.ctx, [row[n:] for row in reduced])

    def _match(self, other):
        if not isinstance(other, ExactMatrix):
            raise LinAlgError('matrix expected')
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError('shape mismatch')


def specialize_matrix(m: ExactMatrix, ctx: FieldContext) -> ExactMatrix:
    """Evaluate every entry of a symbolic matrix at ctx's q value."""
    return ExactMatrix(ctx, [[ctx.specialize(v) for v in row]
                             for row in m.data])


def _rref(ctx, rows):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ctx.one / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        lead = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


class _Echelon:
    """Incrementally maintained RREF, keyed by pivot column."""

    def __init__(self, ctx, ncols):
        self.ctx = ctx
        self.ncols = ncols
        self.piv = {}

    def insert(self, vec):
        """Reduce vec against the span; add it if independent."""
        vec = list(vec)
        for c, row in self.piv.items():
            x = vec[c]
            if x:
                vec = [a - x * b for a, b in zip(vec, row)]
        lead = next((c for c in range(self.ncols) if vec[c]), None)
        if lead is None:
            return False
        inv = self.ctx.one / vec[lead]
        vec = [a * inv for a in vec]
        for c, row in self.piv.items():
            x = row[lead]
            if x:
                self.piv[c] = [a - x * b for a, b in zip(row, vec)]
        self.piv[lead] = vec
        return True

    @property
    def dim(self):
        return len(self.piv)

    def reduced_rows(self):
        return [self.piv[c] for c in sorted(self.piv)], sorted(self.piv)


def _nullspace_vectors(ctx, rows, ncols):
    """Canonical-form basis of {x : Rx = 0} for the given equation rows."""
    ech = _Echelon(ctx, ncols)
    for row in rows:
        ech.insert(row)
    reduced, pivots = ech.reduced_rows()
    pivot_set = set(pivots)
    vecs = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ctx.zero] * ncols
        v[free] = ctx.one
        for row, p in zip(reduced, pivots):
            v[p] = -row[free]
        vecs.append(v)
    return vecs


class Subspace:
    """A subspace of K^n with its unique reduced-echelon basis.

    Basis vectors are stored as tuples with leading entry 1 at strictly
    increasing pivot coordinates and zeros above/below other pivots, so two
    equal subspaces always hold identical tuples.
    """

    __slots__ = ('ctx', 'ambient_dim', 'basis', 'pivots')

    def __init__(self, ctx, ambient_dim, basis, pivots):
        self.ctx = ctx
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, ctx, ambient_dim, vectors):
        vectors = [list(v) for v in vectors]
        if any(len(v) != ambient_dim for v in vectors):
            raise LinAlgError('vector length does not match ambient dimension')
        rows, pivots = _rref(ctx, vectors) if vectors else ([], [])
        return cls(ctx, ambient_dim, tuple(tuple(r) for r in rows),
                   tuple(pivots))

    @classmethod
    def zero(cls, ctx, ambient_dim):
        return cls(ctx, ambient_dim, (), ())

    @classmethod
    def full(cls, ctx, ambient_dim):
        ident = ExactMatrix.identity(ctx, ambient_dim)
        return cls(ctx, ambient_dim, tuple(tuple(r) for r in ident.data),
                   tuple(range(ambient_dim)))

    @property
    def dim(self):
        return len(self.basis)

    def is_zero(self):
        return not self.basis

    def is_full(self):
        return self.dim == self.ambient_dim

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ctx == other.ctx
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __repr__(self):
        return f'Subspace(dim {self.dim} of {self.ambient_dim})'

    def reduce(self, vector):
        """Remainder of a vector after subtracting its span component."""
        v = list(vector)
        for row, p in zip(self.basis, self.pivots):
            x = v[p]
            if x:
                v = [a - x * b for a, b in zip(v, row)]
        return v

    def contains(self, vector):
        return not any(self.reduce(vector))

    def contains_subspace(self, other):
        return all(self.contains(v) for v in other.basis)

    def vectors(self):
        return [list(v) for v in self.basis]

    def intersect(self, other: 'Subspace') -> 'Subspace':
        return subspace_intersect(self, other)


def subspace_sum(parts):
    """Sum of subspaces; also reports whether the sum is direct."""
    parts = list(parts)
    if not parts:
        raise LinAlgError('subspace_sum needs at least one part')
    ctx, ambient = parts[0].ctx, parts[0].ambient_dim
    if any(p.ambient_dim != ambient for p in parts):
        raise LinAlgError('mismatched ambient dimensions')
    vectors = [v for p in parts for v in p.basis]
    total = Subspace.from_vectors(ctx, ambient, vectors)
    return total, total.dim == sum(p.dim for p in parts)


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the Zassenhaus double-block reduction."""
    if a.ambient_dim != b.ambient_dim:
        raise LinAlgError('mismatched ambient dimensions')
    ctx, n = a.ctx, a.ambient_dim
    if a.is_zero() or b.is_zero():
        return Subspace.zero(ctx, n)
    zero_row = (ctx.zero,) * n
    stacked = [list(v) + list(v) for v in a.basis]
    stacked += [list(v) + list(zero_row) for v in b.basis]
    rows, _ = _rref(ctx, stacked)
    inter = [row[n:] for row in rows if not any(row[:n])]
    return Subspace.from_vectors(ctx, n, inter)


def kernel(m: ExactMatrix) -> Subspace:
    return Subspace.from_vectors(
        m.ctx, m.cols, _nullspace_vectors(m.ctx, m.data, m.cols))


def eigenspace(m: ExactMatrix, theta) -> Subspace:
    """The eigenspace ker(m - theta*I); empty basis when theta is not an
    eigenvalue."""
    if not m.is_square():
        raise LinAlgError('eigenspace needs a square matrix')
    return kernel(m.minus_scalar(theta))


class Decomposition:
    """An ordered list of subspaces whose direct sum is the whole space.

    Components outside 0..d read as the zero subspace, matching the
    convention V_{-1} = V_{d+1} = 0.
    """

    __slots__ = ('ctx', 'ambient_dim', 'components')

    def __init__(self, ctx, ambient_dim, components):
        self.ctx = ctx
        self.ambient_dim = ambient_dim
        self.components = tuple(components)

    @property
    def d(self):
        return len(self.components) - 1

    @property
    def dims(self):
        return tuple(c.dim for c in self.components)

    def component(self, n) -> Subspace:
        if 0 <= n <= self.d:
            return self.components[n]
        return Subspace.zero(self.ctx, self.ambient_dim)

    def inversion(self) -> 'Decomposition':
        return Decomposition(self.ctx, self.ambient_dim,
                             tuple(reversed(self.components)))

    def partial_sums(self):
        """Subspaces V_0, V_0+V_1, ..., V_0+...+V_d (the induced flag data)."""
        sums = []
        acc = None
        for comp in self.components:
            acc = comp if acc is None else subspace_sum([acc, comp])[0]
            sums.append(acc)
        return sums

    def __eq__(self, other):
        return (isinstance(other, Decomposition)
                and self.ctx == other.ctx
                and self.ambient_dim == other.ambient_dim
                and self.components == other.components)


def spectrum_decompose(m: ExactMatrix, candidates, allow_zero=False,
                       first=None):
    """Eigenspace decomposition for the given candidate eigenvalues.

    Returns the ordered Decomposition iff the eigenspaces fill the whole
    space (eigenspaces of distinct eigenvalues are independent, so filling
    is equivalent to the dimensions summing to n); otherwise None.  With
    ``allow_zero`` false, a candidate with no eigenvector also yields None.
    ``first`` is the eigenspace of ``candidates[0]`` when the caller has
    computed it already.
    """
    if not m.is_square():
        raise LinAlgError('spectrum_decompose needs a square matrix')
    candidates = list(candidates)
    for i, a in enumerate(candidates):
        for b in candidates[i + 1:]:
            if a == b:
                raise LinAlgError('duplicate candidate eigenvalues')
    spaces = []
    remaining = m.rows
    for index, theta in enumerate(candidates):
        space = (first if index == 0 and first is not None
                 else eigenspace(m, theta))
        if not allow_zero and space.is_zero():
            return None
        remaining -= space.dim
        if remaining < 0:
            return None
        spaces.append(space)
    if remaining != 0:
        return None
    return Decomposition(m.ctx, m.rows, spaces)


def _flatten(m: ExactMatrix):
    return [v for row in m.data for v in row]


def default_word_cap(n: int) -> int:
    """Word-length cap of the closure search: $QTETRA_WORD_CAP, else 2n."""
    env = os.environ.get(WORD_CAP_ENV)
    if env is not None:
        try:
            cap = int(env)
        except ValueError:
            raise LinAlgError(f'{WORD_CAP_ENV} must be an integer, '
                              f'got {env!r}') from None
        if cap < 1:
            raise LinAlgError(f'{WORD_CAP_ENV} must be positive, got {cap}')
        return cap
    return 2 * n


def _closure_span(gens, cap, n):
    ctx = gens[0].ctx
    full = n * n
    ech = _Echelon(ctx, full)
    ident = ExactMatrix.identity(ctx, n)
    ech.insert(_flatten(ident))
    frontier = [ident]
    length = 0
    while frontier and length < cap and ech.dim < full:
        length += 1
        new_frontier = []
        for w in frontier:
            for g in gens:
                p = w * g
                if ech.insert(_flatten(p)):
                    new_frontier.append(p)
            if ech.dim == full:
                break
        frontier = new_frontier
        if ech.dim == full:
            break
    stabilized = ech.dim == full or not frontier
    return ech.dim, stabilized


def algebra_closure_dim(gens, cap=None):
    """Dimension of the span of all words in ``gens`` up to the cap.

    Returns (dim, stabilized).  The identity (empty word) is always
    included; dim = n^2 certifies absolute irreducibility, and a stabilized
    dim < n^2 certifies a proper invariant structure.  For symbolic inputs
    a full-rank result at a specialized sample point is accepted as the
    (sound) certificate; everything else is computed symbolically.
    """
    gens = list(gens)
    if not gens:
        raise LinAlgError('algebra_closure_dim needs at least one generator')
    n = gens[0].rows
    ctx = gens[0].ctx
    for g in gens:
        if not g.is_square() or g.rows != n:
            raise LinAlgError('generators must be square of equal size')
        if g.ctx != ctx:
            raise LinAlgError('generators from different field contexts')
    if cap is None:
        cap = default_word_cap(n)
    if ctx.is_symbolic:
        for point in _CERTIFICATE_POINTS:
            spec_ctx = specialized(point)
            try:
                spec_gens = [specialize_matrix(g, spec_ctx) for g in gens]
            except SpecializationError:
                continue
            dim, _ = _closure_span(spec_gens, cap, n)
            if dim == n * n:
                return dim, True
    return _closure_span(gens, cap, n)


def intertwiner_space(gens_a, gens_b) -> Subspace:
    """All matrices S with M_a(g) S = S M_b(g) for every generator label.

    The result lives in the n^2-dimensional matrix space, flattened row by
    row.  The two assignments must share the label set and the dimension.

    Labels are solved one at a time, the sparsest first so that the span
    has shrunk before dense matrices multiply through it.  Each keeps the
    combinations sum c_i S_i of the span so far (basis S_1..S_k, at first
    the n^2 matrix units) whose residuals M_a(g) S_i - S_i M_b(g) cancel: a
    solve in k unknowns.  The reduced-echelon result is order-independent.
    """
    if set(gens_a) != set(gens_b):
        raise LinAlgError('generator label mismatch')
    labels = sorted(gens_a)
    if not labels:
        raise LinAlgError('empty generator assignment')
    first = gens_a[labels[0]]
    ctx, n = first.ctx, first.rows
    for gens in (gens_a, gens_b):
        for g in labels:
            m = gens[g]
            if not m.is_square() or m.rows != n:
                raise LinAlgError('intertwiner_space needs equal square '
                                  'dimensions on both sides')
    labels.sort(key=lambda g: (
        sum(map(bool, _flatten(gens_a[g]) + _flatten(gens_b[g]))), g))
    basis = ExactMatrix.identity(ctx, n * n).data
    for g in labels:
        a, b = gens_a[g], gens_b[g]
        residuals = [_flatten(a * s - s * b)
                     for s in (matrix_from_flat(ctx, v, n) for v in basis)]
        coeffs = _nullspace_vectors(ctx, zip(*residuals), len(basis))
        if not coeffs:
            return Subspace.zero(ctx, n * n)
        basis = (ExactMatrix(ctx, coeffs) * ExactMatrix(ctx, basis)).data
    return Subspace.from_vectors(ctx, n * n, basis)


def matrix_from_flat(ctx, flat, n) -> ExactMatrix:
    return ExactMatrix(ctx, [list(flat[i * n:(i + 1) * n]) for i in range(n)])


def invertible_witness(space: Subspace, n: int):
    """An invertible matrix in a subspace of the flattened matrix space.

    Tries each basis vector, then a few deterministic integer combinations.
    Returns None when no trial is invertible (for intertwiner spaces of
    dimension <= 1 this decision is exact).
    """
    if space.ambient_dim != n * n:
        raise LinAlgError('ambient dimension is not n^2')
    ctx = space.ctx
    candidates = [list(v) for v in space.basis]
    if len(space.basis) > 1:
        weight_rows = [[1] * len(space.basis),
                       list(range(1, len(space.basis) + 1)),
                       [2 ** i for i in range(len(space.basis))]]
        for weights in weight_rows:
            combo = [ctx.zero] * (n * n)
            for w, v in zip(weights, space.basis):
                wc = ctx.coerce(w)
                combo = [a + wc * b for a, b in zip(combo, v)]
            candidates.append(combo)
    for flat in candidates:
        m = matrix_from_flat(ctx, flat, n)
        if m.rank() == n:
            return m
    return None
