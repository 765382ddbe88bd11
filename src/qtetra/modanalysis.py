"""Structural analysis of eight-generator modules.

Given a module for the eight-generator algebra, this module detects its
type and diameter from generator spectra, computes the eigenspace
decompositions [i,j], the shape, and the four flags [0]..[3], and checks
the structural facts that characterize valid irreducible type-1 modules.
Each generator's spectrum is detected once per module: a ``ModuleSpectra``
keeps the eight results, and the shape, the action tables and the flags
all read from it.  The checks:

* every generator is semisimple with spectrum {eps*q^(d-2n) : 0 <= n <= d};
* all eight generators report the same type, diameter, and shape, and
  the shape is palindromic;
* the two six-row action tables (how x_{i,i+1} and x_{i,i+2} move the
  components of each decomposition);
* the four flags are mutually opposite, and intersecting flag components
  recovers every decomposition;
* eigenspace-dimension equalities along the eight-term q-Weyl chain
  x02 -> x23 -> x31 -> x12 -> x20 -> x01 -> x13 -> x30.

Violations of the structural checks come back inside reports, so callers
can analyze corrupted or foreign input and see exactly what failed;
exceptions are reserved for inputs the analysis cannot even start on
(non-semisimple spectra, type -1 where type 1 is required).
"""

from __future__ import annotations

from dataclasses import dataclass

from qtetra.exactla import (
    Decomposition,
    ExactMatrix,
    Subspace,
    spectrum_decompose,
    subspace_sum,
)
from qtetra.presentations import BOXQ, GENERATORS, boxq_label, require_boxq


class AnalysisError(ValueError):
    """Input outside the analyzable range (bad spectrum, wrong type)."""


class StructuralError(AnalysisError):
    """A structural consistency check failed loudly."""


class Flag:
    """A nested chain U_0 <= U_1 <= ... <= U_d with U_d the full space."""

    __slots__ = ('ctx', 'ambient_dim', 'components')

    def __init__(self, ctx, ambient_dim, components):
        components = tuple(components)
        if not components:
            raise AnalysisError('a flag needs at least one component')
        prev = None
        for comp in components:
            if comp.ambient_dim != ambient_dim:
                raise AnalysisError('flag component has wrong ambient space')
            if prev is not None and not comp.contains_subspace(prev):
                raise AnalysisError('flag components are not nested')
            prev = comp
        if not components[-1].is_full():
            raise AnalysisError('top flag component must be the full space')
        self.ctx = ctx
        self.ambient_dim = ambient_dim
        self.components = components

    @classmethod
    def from_decomposition(cls, dec: Decomposition) -> Flag:
        return cls(dec.ctx, dec.ambient_dim, dec.partial_sums())

    @property
    def d(self) -> int:
        return len(self.components) - 1

    def component(self, n: int) -> Subspace:
        if n < 0:
            return Subspace.zero(self.ctx, self.ambient_dim)
        if n > self.d:
            return self.components[-1]
        return self.components[n]

    @property
    def dims(self) -> tuple:
        return tuple(c.dim for c in self.components)

    def __eq__(self, other):
        return (isinstance(other, Flag)
                and self.ambient_dim == other.ambient_dim
                and self.components == other.components)

    def __repr__(self):
        return f'Flag(dims={self.dims})'


def detect_type_diameter(m: ExactMatrix):
    """Find (epsilon, d) with spectrum {eps*q^(d-2n)} and the decomposition.

    Scans from the top: the largest k <= n-1 for which eps*q^k (+1 tried
    before -1) has an eigenvector fixes the only possible answer, d = k
    with that eps.  A larger d would need the eigenvalue eps*q^d, which is
    absent; a smaller d, or the other sign, leaves the eps*q^k eigenvectors
    uncovered, since |q| != 1 keeps all the values +-q^j distinct.  So one
    ``spectrum_decompose`` at (eps, k), reusing the probed eigenspace,
    decides, and its failure is final.
    """
    if not m.is_square():
        raise AnalysisError('type detection needs a square matrix')
    ctx = m.ctx
    probes = ((eps, k) for k in range(m.rows - 1, -1, -1) for eps in (1, -1))
    for eps, k in probes:
        sign = ctx.one if eps == 1 else -ctx.one
        top = m.eigenspace(sign * ctx.q_power(k))
        if top.is_zero():
            continue
        candidates = [sign * ctx.q_power(k - 2 * n) for n in range(k + 1)]
        dec = spectrum_decompose(m, candidates, first=top)
        if dec is not None:
            return eps, k, dec
        break
    raise AnalysisError('not a type-eps semisimple spectrum: no sign and '
                        'diameter match the eigenvalues of this matrix')


class ModuleSpectra:
    """The spectra of one BOXQ module's eight generators, each detected once.

    A generator's ``detect_type_diameter`` runs on first use; its result,
    (epsilon, d, decomposition) or the ``AnalysisError`` it raised, is
    kept, and every later use reads it or raises that error again.
    """

    __slots__ = ('mod', '_detected')

    def __init__(self, mod):
        require_boxq(mod, AnalysisError)
        self.mod = mod
        self._detected = {}

    def detected(self, label: str):
        """(epsilon, d, decomposition) of the generator ``label``."""
        if label not in self._detected:
            try:
                found = detect_type_diameter(self.mod.gens[label])
            except AnalysisError as exc:
                found = exc
            self._detected[label] = found
        found = self._detected[label]
        if isinstance(found, AnalysisError):
            raise found
        return found


def decomposition_ij(spectra: ModuleSpectra, i: int,
                     j: int) -> Decomposition:
    """Eigenspace decomposition [i,j]: component n has eigenvalue q^(d-2n)."""
    if (j - i) % 4 not in (1, 2):
        raise AnalysisError(f'no generator with indices ({i}, {j})')
    eps, _, dec = spectra.detected(boxq_label(i, j))
    if eps != 1:
        raise AnalysisError('module has type -1; apply the negate twist '
                            'before computing decompositions')
    return dec


_LABEL_PAIRS = tuple((i, j) for i in range(4) for j in (i + 1, i + 2))


@dataclass(frozen=True)
class ShapeReport:
    """Shape of the module plus the uniformity certificate.

    ``shape`` comes from the decomposition [0,1]; the certificate records
    whether all eight generators agree on type, diameter, and component
    dimensions, and whether the shape is palindromic.
    """

    epsilon: int
    d: int
    shape: tuple
    uniform: bool
    palindromic: bool
    generator_dims: dict

    @property
    def passed(self) -> bool:
        return self.uniform and self.palindromic


def shape_of(spectra: ModuleSpectra) -> ShapeReport:
    """Read the shape and certify it is generator-independent."""
    detected = {g: spectra.detected(g) for g in GENERATORS[BOXQ]}
    eps, d, dec = detected['x01']
    shape = dec.dims
    uniform = all(e == eps and dd == d and dc.dims == shape
                  for e, dd, dc in detected.values())
    palindromic = shape == tuple(reversed(shape))
    gen_dims = {g: dc.dims for g, (_, _, dc) in detected.items()}
    return ShapeReport(eps, d, shape, uniform, palindromic, gen_dims)


def flag_of(spectra: ModuleSpectra, i: int) -> Flag:
    """The flag [i], with the three-way consistency check.

    The flag is induced by the decomposition [i,i+1]; the inversion of
    [i-1,i] and the decomposition [i,i+2] must induce the same flag, and
    a disagreement raises a structural error.
    """
    flag = Flag.from_decomposition(decomposition_ij(spectra, i, i + 1))
    from_prev = Flag.from_decomposition(
        decomposition_ij(spectra, i - 1, i).inversion())
    from_long = Flag.from_decomposition(decomposition_ij(spectra, i, i + 2))
    if flag != from_prev or flag != from_long:
        raise StructuralError(
            f'flag [{i % 4}] differs between its three inducing '
            f'decompositions')
    return flag


def check_opposite(a: Flag, b: Flag):
    """Intersect two flags; return the decomposition iff they are opposite.

    Opposite means: components a_i and b_j intersect trivially whenever
    i + j < d, and the spaces V_n = a_n /\\ b_(d-n) form a direct-sum
    decomposition inducing a (forward) and b (reversed).  Returns None
    when any part fails.  Two tests decide it (the opposite-flag lemma,
    Ito-Tanabe-Terwilliger 2001): a_i /\\ b_(d-1-i) = 0 for i < d, which
    by nesting contains every a_i /\\ b_j with i + j < d, and
    sum_n dim V_n = dim V.  In sum_n v_n = 0 with v_n in V_n, the last
    nonzero v_n lies in a_(n-1) /\\ b_(d-n) = 0, so the V_n sum directly to
    V.  For n < d, V_0 + ... + V_n <= a_n and V_(n+1) + ... + V_d <=
    b_(d-1-n) fill dim V between them, while a_n /\\ b_(d-1-n) = 0 bounds
    dim a_n + dim b_(d-1-n) by dim V: both are equalities, so the V_n
    induce a and b.
    """
    if a.d != b.d or a.ambient_dim != b.ambient_dim:
        raise AnalysisError('flags must share diameter and ambient space')
    d = a.d
    for i in range(d):
        if not a.component(i).intersect(b.component(d - 1 - i)).is_zero():
            return None
    components = [a.component(n).intersect(b.component(d - n))
                  for n in range(d + 1)]
    if sum(c.dim for c in components) != a.ambient_dim:
        return None
    return Decomposition(a.ctx, a.ambient_dim, components)


def _offset_name(k: int) -> str:
    k %= 4
    return 'i' if k == 0 else f'i+{k}'


def _row_name(a: int, b: int) -> str:
    return f'[{_offset_name(a)},{_offset_name(b)}]'


# rows: (decomposition offsets, eigenvalue shift, allowed components)
# shift 'high' subtracts q^(d-2n), 'low' subtracts q^(2n-d), None nothing
_TABLE1 = (
    ((0, 1), 'high', lambda n, d: ()),
    ((1, 2), 'low', lambda n, d: (n - 1,)),
    ((2, 3), None, lambda n, d: (n - 1, n, n + 1)),
    ((3, 0), 'low', lambda n, d: (n + 1,)),
    ((0, 2), 'high', lambda n, d: (n - 1,)),
    ((1, 3), 'low', lambda n, d: (n - 1,)),
)
_TABLE2 = (
    ((0, 1), 'high', lambda n, d: tuple(range(n))),
    ((1, 2), 'high', lambda n, d: tuple(range(n + 1, d + 1))),
    ((2, 3), 'low', lambda n, d: (n - 1,)),
    ((3, 0), 'low', lambda n, d: (n + 1,)),
    ((0, 2), 'high', lambda n, d: ()),
    ((1, 3), None, lambda n, d: tuple(range(n - 1, d + 1))),
)


@dataclass(frozen=True)
class TableReport:
    """Action-table verdicts: violations as (table, row, i, n) tuples."""

    d: int
    violations: tuple
    spectrum_failures: tuple

    @property
    def passed(self) -> bool:
        return not self.violations and not self.spectrum_failures

    def to_dict(self) -> dict:
        return {
            'd': self.d,
            'passed': self.passed,
            'violations': [list(v) for v in self.violations],
            'spectrum_failures': list(self.spectrum_failures),
        }


class _DecCoords:
    """A decomposition with coordinates in its concatenated eigenbasis.

    Containment in a sum of components becomes a zero test on the
    coordinate blocks of the excluded components, which avoids one
    subspace-sum elimination per table row.
    """

    __slots__ = ('dec', 'blocks', 'inv')

    def __init__(self, dec):
        columns = []
        blocks = []
        for k in range(dec.d + 1):
            vectors = dec.component(k).vectors()
            blocks.append((len(columns), len(columns) + len(vectors)))
            columns.extend(vectors)
        basis = ExactMatrix.from_columns(dec.ctx, columns)
        self.dec = dec
        self.blocks = tuple(blocks)
        self.inv = basis.inverse()


def _image_inside(ctx, op, shift, coords, n, allowed, d) -> bool:
    """Does (op - theta*I) map component n into the allowed components?"""
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


def check_action_tables(spectra: ModuleSpectra) -> TableReport:
    """Verify both six-row action tables for every i in Z_4 and every n."""
    mod = spectra.mod
    ctx = mod.ctx
    decs = {}
    failures = []
    for i, j in _LABEL_PAIRS:
        label = boxq_label(i, j)
        try:
            decs[label] = _DecCoords(decomposition_ij(spectra, i, j))
        except AnalysisError:
            failures.append(label)
    if failures:
        return TableReport(-1, (), tuple(failures))
    d = decs['x01'].dec.d
    violations = []
    for table_no, table, op_offset in ((1, _TABLE1, 1), (2, _TABLE2, 2)):
        for i in range(4):
            op = mod.gens[boxq_label(i, i + op_offset)]
            for (a, b), shift, allowed in table:
                coords = decs[boxq_label(i + a, i + b)]
                for n in range(coords.dec.d + 1):
                    if not _image_inside(ctx, op, shift, coords, n,
                                         allowed, d):
                        violations.append(
                            (table_no, _row_name(a, b), i, n))
    return TableReport(d, tuple(violations), ())


# the q-Weyl chain: consecutive entries (r, s) satisfy the defining
# relation (q*r*s - q^-1*s*r)/(q - q^-1) = 1
CHAIN = ('x02', 'x23', 'x31', 'x12', 'x20', 'x01', 'x13', 'x30')


@dataclass(frozen=True)
class ChainReport:
    """Eigenspace dimensions along the chain at alternating theta^(+-1)."""

    theta_text: str
    dims: tuple
    dims_equal: bool
    inverse_pair_equal: bool

    @property
    def passed(self) -> bool:
        return self.dims_equal and self.inverse_pair_equal

    def to_dict(self) -> dict:
        return {
            'theta': self.theta_text,
            'labels': list(CHAIN),
            'dims': list(self.dims),
            'dims_equal': self.dims_equal,
            'inverse_pair_equal': self.inverse_pair_equal,
            'passed': self.passed,
        }


def check_dimension_chain(mod, theta) -> ChainReport:
    """Check the chain's dimension equalities at theta.

    Walks the eight generators of the chain, computing eigenspace
    dimensions at theta for even positions and theta^-1 for odd ones;
    all eight must agree.  Also checks that the theta-eigenspace of x02
    equals the theta^-1-eigenspace of x20 as subspaces (inverse pair).
    """
    require_boxq(mod, AnalysisError)
    ctx = mod.ctx
    theta = ctx.coerce(theta)
    if not theta:
        raise AnalysisError('theta must be nonzero')
    theta_inv = ctx.one / theta
    spaces = []
    for pos, label in enumerate(CHAIN):
        value = theta if pos % 2 == 0 else theta_inv
        spaces.append(mod.gens[label].eigenspace(value))
    dims = tuple(s.dim for s in spaces)
    dims_equal = len(set(dims)) == 1
    pair_equal = spaces[0] == mod.gens['x20'].eigenspace(theta_inv)
    return ChainReport(ctx.to_text(theta), dims, dims_equal, pair_equal)


def _geometric_sum(m: ExactMatrix, start, ratio) -> Subspace:
    """Sum of eigenspaces of m at start, ratio*start, ratio^2*start, ..."""
    total = Subspace.zero(m.ctx, m.rows)
    value = start
    for _ in range(m.rows):
        total = subspace_sum([total, m.eigenspace(value)])[0]
        value = value * ratio
    return total


def check_qweyl3(a: ExactMatrix, b: ExactMatrix, theta) -> bool:
    """Subspace-sum identity for a q-Weyl pair (a, b):
    sum_n V_a(q^(-2n) theta) equals sum_n V_b(q^(2n) theta^-1)."""
    ctx = a.ctx
    theta = ctx.coerce(theta)
    if not theta:
        raise AnalysisError('theta must be nonzero')
    left = _geometric_sum(a, theta, ctx.q_power(-2))
    right = _geometric_sum(b, ctx.one / theta, ctx.q_power(2))
    return left == right


def check_key_containment(a: ExactMatrix, b: ExactMatrix, theta) -> bool:
    """Cubic-relation containment: b maps V_a(theta) into
    V_a(q^2 theta) + V_a(theta) + V_a(q^-2 theta)."""
    ctx = a.ctx
    theta = ctx.coerce(theta)
    source = a.eigenspace(theta)
    parts = [a.eigenspace(ctx.q_power(2) * theta),
             source,
             a.eigenspace(ctx.q_power(-2) * theta)]
    parts = [s for s in parts if not s.is_zero()]
    if not parts:
        return True
    target = subspace_sum(parts)[0]
    return all(target.contains(b.apply(v)) for v in source.vectors())
