"""The benchmark's traced mode wraps qtetra names by attribute; each must
still exist, so a renamed or deleted patch point fails here."""

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
