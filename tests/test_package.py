import importlib.util
from pathlib import Path

import sqkd3


def test_every_export_resolves():
    missing = [name for name in sqkd3.__all__ if not hasattr(sqkd3, name)]
    assert missing == []


def test_digest_script_imports():
    # loading runs the script's imports, not its outputs
    path = Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.outputs)
