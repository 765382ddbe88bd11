"""The benchmark's traced mode wraps qtetra names by attribute; each must
still exist, so a renamed or deleted patch point fails here, and each
layer the dualities and reconstruction pipelines pass through must still
be reached through its patched name."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import qtetra.cli as cli
import qtetra.fileformat as fileformat
import qtetra.scalars as scalars

TRACING = Path(__file__).resolve().parents[1] / 'perfbench' / 'tracing.py'


def _tracing_module():
    spec = importlib.util.spec_from_file_location('perfbench_tracing',
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _names_by_command(tracer) -> dict:
    """Span names grouped by the command span they run under."""
    # span: [id, parent, name, ...]
    seen = {}
    for span in tracer.spans:
        root = span
        while root[1] is not None:
            root = tracer.spans[root[1]]
        seen.setdefault(root[2], set()).add(span[2])
    return seen


def test_tracer_patch_points_exist():
    before = (cli.read_document, vars(scalars.FieldContext)['parse'],
              vars(fileformat.ModuleFile)['to_module'])
    tracer = _tracing_module().Tracer()
    try:
        tracer.install()
        assert cli.read_document is not before[0]
    finally:
        tracer.uninstall()
    assert (cli.read_document, vars(scalars.FieldContext)['parse'],
            vars(fileformat.ModuleFile)['to_module']) == before


def test_tracer_sees_every_layer_of_reconstruct_and_dualities(tmp_path):
    ev = str(tmp_path / 'ev.json')
    mod = str(tmp_path / 'mod.json')
    assert cli.main(['build', 'evaluation', '--d', '1', '--t', 'q + 1',
                     '--out', ev]) == 0
    tracer = _tracing_module().Tracer()
    try:
        tracer.install()
        assert cli.main(['reconstruct', ev, '--out', mod]) == 0
        assert cli.main(['dualities', 'twist', mod, '--n', '1',
                         '--out', str(tmp_path / 'twist.json')]) == 0
        assert cli.main(['dualities', 'eightfold', mod, '--format', 'json',
                         '--out', str(tmp_path / 'eight.json')]) == 0
    finally:
        tracer.uninstall()
    seen = _names_by_command(tracer)
    assert set(seen) == {'cli.reconstruct', 'cli.dualities'}
    assert {'reconstruct.eigenvalues', 'modanalysis.opposite',
            'presentations.check'} <= seen['cli.reconstruct']
    assert {'presentations.check', 'dualities.transform',
            'exactla.intertwiner'} <= seen['cli.dualities']


def test_tracer_sees_the_build_path(tmp_path):
    ev = str(tmp_path / 'ev.json')
    assert cli.main(['build', 'evaluation', '--d', '1', '--t', 'q',
                     '--out', ev]) == 0
    tracer = _tracing_module().Tracer()
    try:
        tracer.install()
        assert cli.main(['build', 'tensor', ev, ev,
                         '--out', str(tmp_path / 'tensor.json')]) == 0
    finally:
        tracer.uninstall()
    seen = _names_by_command(tracer)
    assert set(seen) == {'cli.build'}
    assert {'repbuilder.build', 'presentations.check'} <= seen['cli.build']
