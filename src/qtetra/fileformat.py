"""Bit-exact JSON interchange for modules and generator pairs.

Scalars are stored as the canonical text produced by the field context,
so a file generated here parses and re-serializes byte-identically.
Reading decodes the JSON once and checks the structure only; the scalars
are decoded once, by ``to_module`` / ``to_pair``.
Two document kinds share one schema version:

* a module file carries the full generator map of one algebra;
* a pair file carries the two matrices fed to reconstruction.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field

from qtetra.exactla import ExactMatrix
from qtetra.presentations import GENERATORS
from qtetra.repbuilder import MatrixRep
from qtetra.scalars import (
    SYMBOLIC,
    FieldContext,
    ScalarError,
    specialized,
)

SCHEMA_VERSION = 1
PAIR_KIND = 'aq_pair'


class FileFormatError(ValueError):
    """Malformed, inconsistent, or unsupported document content."""


def _field_blob(ctx) -> dict:
    if ctx.is_symbolic:
        return {'mode': 'symbolic'}
    return {'mode': 'specialized', 'q_value': str(ctx.q_value)}


def _ctx_from_blob(blob) -> FieldContext:
    if not isinstance(blob, dict) or 'mode' not in blob:
        raise FileFormatError('field must be an object with a "mode" key')
    mode = blob['mode']
    if mode == 'symbolic':
        if 'q_value' in blob:
            raise FileFormatError('symbolic field takes no q_value')
        return SYMBOLIC
    if mode == 'specialized':
        q_value = blob.get('q_value')
        if not isinstance(q_value, str):
            raise FileFormatError('q_value must be a string')
        try:
            return specialized(q_value)
        except ScalarError as exc:
            raise FileFormatError(f'bad q_value: {exc}') from None
    raise FileFormatError(f'unknown field mode {mode!r}')


def _matrix_rows(m: ExactMatrix) -> list:
    return [[m.ctx.to_text(v) for v in row] for row in m.data]


def _check_rows(rows, n: int, what: str) -> None:
    if (not isinstance(rows, list) or len(rows) != n
            or any(not isinstance(r, list) or len(r) != n
                   or not all(isinstance(v, str) for v in r) for r in rows)):
        raise FileFormatError(f'{what} must be a {n}x{n} array of strings')


def _matrix_from_rows(ctx, rows, what: str) -> ExactMatrix:
    try:
        return ExactMatrix(ctx, [[ctx.parse(v) for v in row] for row in rows])
    except ScalarError as exc:
        raise FileFormatError(f'bad scalar in {what}: {exc}') from None


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + '\n'


def _checked_toplevel(doc, required: tuple) -> int:
    """Check the keys every document carries; return its dimension."""
    version = doc.get('schema_version')
    # JSON true is a Python bool, and True == 1
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise FileFormatError(
            f'unsupported schema_version {version!r} '
            f'(expected {SCHEMA_VERSION})')
    missing = [k for k in required if k not in doc]
    if missing:
        raise FileFormatError(f'missing keys: {", ".join(missing)}')
    dimension = doc['dimension']
    if type(dimension) is not int or dimension < 1:
        raise FileFormatError('dimension must be a positive integer')
    return dimension


@dataclass(frozen=True)
class ModuleFile:
    """One algebra module: generator matrices plus build metadata."""

    algebra_id: str
    dimension: int
    field_blob: dict
    generators: dict
    provenance: dict = field(default_factory=dict)

    @classmethod
    def from_module(cls, rep: MatrixRep) -> 'ModuleFile':
        return cls(algebra_id=rep.algebra_id,
                   dimension=rep.dimension,
                   field_blob=_field_blob(rep.ctx),
                   generators={g: _matrix_rows(m)
                               for g, m in rep.gens.items()},
                   provenance=dict(rep.provenance))

    @classmethod
    def _from_doc(cls, doc: dict) -> 'ModuleFile':
        dimension = _checked_toplevel(
            doc, ('algebra_id', 'dimension', 'field', 'generators'))
        algebra_id = doc['algebra_id']
        if not isinstance(algebra_id, str) or algebra_id not in GENERATORS:
            raise FileFormatError(f'unknown algebra_id {algebra_id!r}')
        gens = doc['generators']
        expected = set(GENERATORS[algebra_id])
        if not isinstance(gens, dict) or set(gens) != expected:
            raise FileFormatError(
                f'generators must carry exactly the labels '
                f'{sorted(expected)}')
        for g, rows in gens.items():
            _check_rows(rows, dimension, f'generator {g}')
        provenance = doc.get('provenance', {})
        if not isinstance(provenance, dict):
            raise FileFormatError('provenance must be an object')
        return cls(algebra_id=algebra_id, dimension=dimension,
                   field_blob=doc['field'], generators=gens,
                   provenance=provenance)

    def to_module(self) -> MatrixRep:
        ctx = _ctx_from_blob(self.field_blob)
        gens = {g: _matrix_from_rows(ctx, rows, f'generator {g}')
                for g, rows in self.generators.items()}
        return MatrixRep(self.algebra_id, ctx, gens,
                         provenance=dict(self.provenance))

    def to_json(self) -> str:
        return _canonical_json({
            'schema_version': SCHEMA_VERSION,
            'algebra_id': self.algebra_id,
            'dimension': self.dimension,
            'field': self.field_blob,
            'generators': self.generators,
            'provenance': self.provenance,
        })


@dataclass(frozen=True)
class PairFile:
    """The two-matrix input consumed by reconstruction."""

    dimension: int
    field_blob: dict
    matrices: dict

    @classmethod
    def from_pair(cls, X: ExactMatrix, Y: ExactMatrix) -> 'PairFile':
        if X.ctx is not Y.ctx and X.ctx != Y.ctx:
            raise FileFormatError('pair matrices use different contexts')
        if not (X.is_square() and Y.is_square() and X.rows == Y.rows):
            raise FileFormatError('pair matrices must be square, same size')
        return cls(dimension=X.rows, field_blob=_field_blob(X.ctx),
                   matrices={'X': _matrix_rows(X), 'Y': _matrix_rows(Y)})

    @classmethod
    def _from_doc(cls, doc: dict) -> 'PairFile':
        dimension = _checked_toplevel(
            doc, ('kind', 'dimension', 'field', 'matrices'))
        if doc['kind'] != PAIR_KIND:
            raise FileFormatError(f'unknown pair kind {doc["kind"]!r}')
        matrices = doc['matrices']
        if not isinstance(matrices, dict) or set(matrices) != {'X', 'Y'}:
            raise FileFormatError('matrices must carry exactly X and Y')
        for k in ('X', 'Y'):
            _check_rows(matrices[k], dimension, f'matrix {k}')
        return cls(dimension=dimension, field_blob=doc['field'],
                   matrices=matrices)

    def to_pair(self) -> tuple:
        ctx = _ctx_from_blob(self.field_blob)
        return tuple(_matrix_from_rows(ctx, self.matrices[k], f'matrix {k}')
                     for k in ('X', 'Y'))

    def to_json(self) -> str:
        return _canonical_json({
            'schema_version': SCHEMA_VERSION,
            'kind': PAIR_KIND,
            'dimension': self.dimension,
            'field': self.field_blob,
            'matrices': self.matrices,
        })


def parse_document(text: str):
    """Dispatch on content: a ModuleFile or a PairFile."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f'not valid JSON: {exc}') from None
    if not isinstance(doc, dict):
        raise FileFormatError('document must be a JSON object')
    if 'matrices' in doc:
        return PairFile._from_doc(doc)
    return ModuleFile._from_doc(doc)


def read_document(path: str):
    try:
        with open(path, encoding='utf-8') as handle:
            return parse_document(handle.read())
    except OSError as exc:
        raise FileFormatError(f'cannot read {path}: {exc}') from None


def write_text(path: str, text: str) -> None:
    """Write atomically: a temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix='.qtetra-', suffix='.tmp')
    try:
        with os.fdopen(fd, 'w', encoding='utf-8') as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
