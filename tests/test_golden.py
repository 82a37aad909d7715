"""Every shipped number, pinned: the golden outputs of tests/golden/."""
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def test_outputs_match_golden(tmp_path):
    codes = {name: regen.run(ini, tmp_path / name)
             for name, ini in regen.scenarios().items()}
    assert codes == dict.fromkeys(regen.scenarios(), 0)
    changes, problems = regen.compare(regen.HERE, tmp_path)
    assert problems == []
    assert {k: d for k, d in changes.items() if d > regen.RTOL} == {}
