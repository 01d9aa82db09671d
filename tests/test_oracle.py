"""The C3 fixture against the independent oracle that wrote it."""

import importlib.util
import json
from pathlib import Path

ORACLE = Path(__file__).parent.parent / "tools" / "contradiction_bound_oracle.py"


def test_contradiction_bound_fixture_is_what_the_oracle_computes(fixtures_dir):
    spec = importlib.util.spec_from_file_location("contradiction_bound_oracle", ORACLE)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    stored = json.loads((fixtures_dir / "contradiction_bound.json").read_text(encoding="utf-8"))
    computed = oracle.fixture()
    # only the versions that last wrote the file may differ
    del stored["environment"], computed["environment"]
    assert stored == computed
