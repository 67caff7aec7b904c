"""The golden-output contract of tools/golden.py: every record hashed
here must match ``tests/golden.sha256``.

A change that moves an output on purpose regenerates the file with
``python3 tools/golden.py write tests/golden.sha256`` and names the moved
records, which ``python3 tools/golden.py diff OLD NEW`` lists.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.sha256"
_spec = importlib.util.spec_from_file_location(
    "golden", ROOT / "tools" / "golden.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_every_record_matches_the_golden_hashes():
    assert golden.differences(golden.read(GOLDEN), golden.hashes()) == []


def test_diff_names_every_changed_missing_and_new_record(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    golden.write(old, {"a": "1", "b": "2", "c": "3"})
    golden.write(new, {"a": "1", "b": "9", "d": "4"})
    assert golden.main(["diff", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "changed  b",
        "missing  c",
        "new      d",
        "3 of 4 records differ",
    ]
    assert golden.main(["diff", str(old), str(old)]) == 0
    assert golden.read(old) == {"a": "1", "b": "2", "c": "3"}
