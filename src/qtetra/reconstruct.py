"""Reconstruction of the full eight-generator module from a pair (X, Y).

The input pair plays the roles of the generators x01 and x23.  The
pipeline runs five stages, each with a named failure mode:

1. ``spectrum``: both matrices must be semisimple with spectrum exactly
   {q^(d-2n) : 0 <= n <= d} for a common diameter d (type (1,1); pairs of
   type (-1,*) or (*,-1) must be normalized by the caller first).
2. ``aq relations``: the pair must satisfy both cubic q-Serre relations.
3. ``irreducibility``: the pair must generate the full matrix algebra
   (Burnside certificate); reducible pairs are rejected because the flag
   intersections below can silently degenerate on them.
4. ``flags not opposite``: flags [0], [1] are induced by the eigenspace
   decomposition of X (forward and reversed), flags [2], [3] by that of
   Y; the pairs [0],[2]; [0],[3]; [1],[2]; [1],[3] must be opposite
   ([0],[1] and [2],[3] are, and give back X's and Y's decompositions).
5. ``relation check``: x01 = X and x23 = Y; for each other generator
   label (i,j), take the decomposition with component n = flag[i]_n
   intersect flag[j]_(d-n) and give x_ij the eigenvalue q^(d-2n) there;
   the eight matrices must pass all twenty defining relations.

The whole construction is spectral, so the result does not depend on any
internal basis choice beyond the input basis itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from qtetra.exactla import (
    ExactMatrix,
    algebra_closure_dim,
)
from qtetra.modanalysis import (
    AnalysisError,
    Flag,
    check_opposite,
    detect_type_diameter,
)
from qtetra.presentations import (
    AQ,
    BOXQ,
    boxq_label,
    check_representation,
    require_boxq,
)
from qtetra.repbuilder import MatrixRep


class ReconstructError(ValueError):
    """A pipeline stage rejected the input; ``stage`` names it."""

    def __init__(self, stage: str, message: str):
        super().__init__(f'{stage}: {message}')
        self.stage = stage


@dataclass(frozen=True)
class AqPairProfile:
    """Spectral data of an accepted pair: diameter and the
    eigenvalue-ordered decompositions of X and Y."""

    d: int
    dec_x: object
    dec_y: object


@dataclass(frozen=True)
class IrreducibilityCertificate:
    """Burnside certificate: the pair spans a dim-`closure_dim` algebra."""

    dimension: int
    closure_dim: int

    @property
    def full(self) -> bool:
        return self.closure_dim == self.dimension ** 2


def pair_profile(X: ExactMatrix, Y: ExactMatrix) -> AqPairProfile:
    """Stage 1: certify the type-(1,1) spectra and read off the diameter."""
    if X.ctx != Y.ctx:
        raise ReconstructError('spectrum mismatch',
                               'pair uses mixed field contexts')
    if not (X.is_square() and Y.is_square() and X.rows == Y.rows):
        raise ReconstructError('spectrum mismatch',
                               'pair must be square matrices of equal size')
    profiles = []
    for name, m in (('X', X), ('Y', Y)):
        try:
            eps, d, dec = detect_type_diameter(m)
        except AnalysisError as exc:
            raise ReconstructError('spectrum mismatch',
                                   f'{name}: {exc}') from None
        if eps != 1:
            raise ReconstructError(
                'spectrum mismatch',
                f'{name} has type -1 spectrum; rescale the pair to '
                f'type (1,1) first')
        profiles.append((d, dec))
    (dx, dec_x), (dy, dec_y) = profiles
    if dx != dy:
        raise ReconstructError('spectrum mismatch',
                               f'diameters differ: X has {dx}, Y has {dy}')
    return AqPairProfile(dx, dec_x, dec_y)


def irreducible_pair(X: ExactMatrix,
                     Y: ExactMatrix) -> IrreducibilityCertificate:
    """Burnside certificate for the algebra generated by the pair."""
    return IrreducibilityCertificate(X.rows, algebra_closure_dim([X, Y]))


def _matrix_with_eigenvalues(dec) -> ExactMatrix:
    """The operator acting as q^(d-2n) on component n of a decomposition."""
    ctx = dec.ctx
    d = dec.d
    cols, diag = [], []
    for n, comp in enumerate(dec.components):
        for v in comp.vectors():
            cols.append(v)
            diag.append(ctx.q_power(d - 2 * n))
    basis = ExactMatrix.from_columns(ctx, cols)
    return basis * ExactMatrix.diagonal(ctx, diag) * basis.inverse()


def reconstruct_boxq(X: ExactMatrix, Y: ExactMatrix) -> MatrixRep:
    """Build the unique eight-generator module structure over a pair."""
    profile = pair_profile(X, Y)
    ctx, d = X.ctx, profile.d

    aq_report = check_representation(AQ, {'x': X, 'y': Y})
    if not aq_report.passed:
        raise ReconstructError('aq relations',
                               f'failing: {list(aq_report.failing)}')

    cert = irreducible_pair(X, Y)
    if not cert.full:
        raise ReconstructError(
            'irreducibility',
            f'pair generates a dim-{cert.closure_dim} algebra, need '
            f'{X.rows ** 2} (reducible input rejected)')

    flags = {
        0: Flag.from_decomposition(profile.dec_x),
        1: Flag.from_decomposition(profile.dec_x.inversion()),
        2: Flag.from_decomposition(profile.dec_y),
        3: Flag.from_decomposition(profile.dec_y.inversion()),
    }
    decs = {}
    for a in (0, 1):
        for b in (2, 3):
            dec = check_opposite(flags[a], flags[b])
            if dec is None:
                raise ReconstructError('flags not opposite',
                                       f'flag pair [{a}], [{b}]')
            decs[a, b] = dec

    gens = {'x01': X, 'x23': Y}
    for i, j in ((0, 2), (1, 2), (1, 3), (2, 0), (3, 0), (3, 1)):
        dec = decs[i, j] if i < j else decs[j, i].inversion()
        gens[boxq_label(i, j)] = _matrix_with_eigenvalues(dec)

    report = check_representation(BOXQ, gens)
    if not report.passed:
        raise ReconstructError('relation check',
                               f'failing: {list(report.failing)}')

    return MatrixRep(BOXQ, ctx, gens,
                     provenance={'kind': 'reconstructed', 'd': d},
                     aux={'irreducibility': cert,
                          'relations': report})


@dataclass(frozen=True)
class RoundtripReport:
    """Entrywise comparison of a module against its own reconstruction."""

    passed: bool
    mismatched: tuple


def roundtrip_verify(mod: MatrixRep) -> RoundtripReport:
    """Extract (x01, x23), reconstruct, and compare all eight matrices."""
    require_boxq(mod, lambda msg: ReconstructError('spectrum mismatch', msg))
    rebuilt = reconstruct_boxq(mod.gens['x01'], mod.gens['x23'])
    mismatched = tuple(g for g in mod.gens
                       if rebuilt.gens[g] != mod.gens[g])
    return RoundtripReport(not mismatched, mismatched)
