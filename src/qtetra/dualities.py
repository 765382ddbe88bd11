"""Module transforms: rotation twists, sign flip, duals, and the
invariant-form experiment.

For the eight-generator algebra three symmetries act on modules.  Each
sends every defining relation to a relation (the word-level tests prove
it), so the transforms are relabelings that certify nothing:

* ``twist_rho``: precompose the action with the rotation that shifts all
  generator indices by n (so the new x_ij acts as the old x_{i+n,j+n});
* ``negate``: flip the sign of every generator (flips the detected type);
* ``dual_module``: the dual-space action (r.f)(v) = f(omega(r).v), which
  in the dual basis sends x_ij to the transpose of the matrix of
  omega(x_ij) -- the antiautomorphism omega composed with the transpose's
  product reversal leaves the relations intact.

``eightfold_comparison`` tabulates which of the eight modules V rho^n,
V* rho^n (n = 0..3) are isomorphic, using invertible intertwiners; the
table is emitted as data, no particular pattern is asserted.

``omega_form`` searches for a bilinear form G with (r.u, v) = (u, omega(r).v),
i.e. transpose(M(x_ij)) G = G M(omega(x_ij)) for all eight generators, and
reports what it finds; existence is an open conjecture, so the result is
a report, never an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

from qtetra.exactla import (
    ExactMatrix,
    intertwiner_space,
    invertible_witness,
    matrix_from_flat,
)
from qtetra.presentations import (
    BOXQ,
    GENERATORS,
    omega_label,
    require_boxq,
    rho_label,
)
from qtetra.repbuilder import MatrixRep


class DualityError(ValueError):
    """Invalid transform input (wrong algebra, zero scale factor)."""


def twist_rho(mod: MatrixRep, n: int) -> MatrixRep:
    """Twist by the index rotation: new x_ij acts as old x_{i+n,j+n}."""
    require_boxq(mod, DualityError)
    n %= 4
    gens = {g: mod.gens[rho_label(g, n)] for g in GENERATORS[BOXQ]}
    return MatrixRep(BOXQ, mod.ctx, gens,
                     provenance={'kind': 'rho_twist', 'n': n,
                                 'base': mod.provenance})


def dual_module(mod: MatrixRep) -> MatrixRep:
    """The dual module: x_ij acts as transpose(matrix of omega(x_ij))."""
    require_boxq(mod, DualityError)
    gens = {g: mod.gens[omega_label(g)].transpose()
            for g in GENERATORS[BOXQ]}
    return MatrixRep(BOXQ, mod.ctx, gens,
                     provenance={'kind': 'dual', 'base': mod.provenance})


def negate(mod: MatrixRep) -> MatrixRep:
    """Flip the sign of every generator (type eps becomes -eps)."""
    require_boxq(mod, DualityError)
    return MatrixRep(BOXQ, mod.ctx, {g: -m for g, m in mod.gens.items()},
                     provenance={'kind': 'negate', 'base': mod.provenance})


def isomorphic(a: MatrixRep, b: MatrixRep):
    """An invertible intertwiner between two modules, or None.

    Modules with equal matrices are isomorphic through the identity.
    Otherwise the search is exact for intertwiner spaces of dimension <= 1
    (the irreducible case); for larger spaces a handful of deterministic
    combinations is tried and a miss returns None.
    """
    if a.algebra_id != b.algebra_id:
        raise DualityError('cannot compare modules of different algebras')
    if a.dimension != b.dimension:
        return None
    if a.gens == b.gens:
        return ExactMatrix.identity(a.ctx, a.dimension)
    space = intertwiner_space(a.gens, b.gens)
    return invertible_witness(space, a.dimension)


EIGHTFOLD_LABELS = tuple(f'{base} rho^{n}'
                         for base in ('V', 'V*') for n in range(4))


@dataclass(frozen=True)
class EightfoldTable:
    """Pairwise isomorphism verdicts for the eight twisted/dual modules."""

    labels: tuple
    isomorphic: tuple

    def to_dict(self) -> dict:
        return {'labels': list(self.labels),
                'isomorphic': [list(row) for row in self.isomorphic]}


def eightfold_comparison(mod: MatrixRep) -> EightfoldTable:
    """Compare V rho^n and V* rho^n for n = 0..3, all 64 ordered pairs.

    Twisting both modules by rho^-m only relabels their intertwiner
    equations, so with m = i mod 4 the pair (i, j) has the verdict of a
    pair in row 0 or 4: ten solves fill the table.
    """
    dual = dual_module(mod)
    family = [twist_rho(mod, n) for n in range(4)]
    family += [twist_rho(dual, n) for n in range(4)]
    size = len(family)
    table = [[False] * size for _ in range(size)]
    for i in range(size):
        table[i][i] = True
        m = i % 4
        for j in range(i + 1, size):
            if m:
                verdict = table[i - m][j - j % 4 + (j - m) % 4]
            else:
                verdict = isomorphic(family[i], family[j]) is not None
            table[i][j] = verdict
            table[j][i] = verdict
    return EightfoldTable(EIGHTFOLD_LABELS,
                          tuple(tuple(row) for row in table))


@dataclass(frozen=True)
class BilinearFormCandidate:
    """Outcome of the invariant-form search.

    ``gram`` is None when the solution space is zero; otherwise it is one
    solution: an invertible one if any of the tried candidates is, else the
    identity when every transpose(M(x_ij)) equals M(omega(x_ij)), else the
    first basis vector of the solution space.
    """

    gram: object
    symmetric: bool
    nondegenerate: bool
    solution_space_dim: int

    def to_dict(self) -> dict:
        blob = {'symmetric': self.symmetric,
                'nondegenerate': self.nondegenerate,
                'solution_space_dim': self.solution_space_dim}
        if self.gram is not None:
            blob['gram'] = [[self.gram.ctx.to_text(e) for e in row]
                            for row in self.gram.data]
        else:
            blob['gram'] = None
        return blob


def omega_form(mod: MatrixRep) -> BilinearFormCandidate:
    """Solve transpose(M(x_ij)) G = G M(omega(x_ij)) for all generators."""
    require_boxq(mod, DualityError)
    n = mod.dimension
    transposed = {g: mod.gens[g].transpose() for g in GENERATORS[BOXQ]}
    twisted = {g: mod.gens[omega_label(g)] for g in GENERATORS[BOXQ]}
    space = intertwiner_space(transposed, twisted)
    if space.is_zero():
        return BilinearFormCandidate(None, False, False, 0)
    gram = invertible_witness(space, n)
    if gram is None and transposed == twisted:
        gram = ExactMatrix.identity(mod.ctx, n)
    if gram is None:
        gram = matrix_from_flat(mod.ctx, list(space.basis[0]), n)
    nondegenerate = gram.rank() == n
    if nondegenerate:
        # sanity identity for the found witness, G^-1 M^T G == M(omega)
        for g in GENERATORS[BOXQ]:
            if transposed[g] * gram != gram * twisted[g]:
                raise DualityError('invariant-form identity failed for a '
                                   'nondegenerate witness (internal error)')
    return BilinearFormCandidate(gram, gram == gram.transpose(),
                                 nondegenerate, space.dim)
