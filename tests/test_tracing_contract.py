"""The benchmark's traced mode wraps named engine entry points
(``LAYER_TARGETS`` in ``perfbench/tracing.py``).  A refactor that
renames or removes one breaks ``perfbench/run.py --trace 1`` without
failing any engine test, so every target must resolve here, and
installing and uninstalling the tracer must wrap and then restore each
of them.  No engine run is involved."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_layer_target_resolves(tracing):
    missing = []
    for span, module_name, attr in tracing.LAYER_TARGETS:
        try:
            _resolve(module_name, attr)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{span}: {module_name}.{attr} ({exc})")
    assert not missing


def test_install_wraps_every_target_and_uninstall_restores(tracing):
    targets = {(module_name, attr): _resolve(module_name, attr)
               for _span, module_name, attr in tracing.LAYER_TARGETS}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for key, original in targets.items():
            assert getattr(_resolve(*key), "__wrapped__", None) \
                is original, key
    finally:
        tracer.uninstall()
    for key, original in targets.items():
        assert _resolve(*key) is original, key
