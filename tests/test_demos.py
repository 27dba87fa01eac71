import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_four_demos_found():
    assert [d.name for d in DEMOS] == ["01_building_groups.py", "02_centralizer_classes.py",
                                       "03_extraspecial_and_checks.py", "04_isoclinism.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo):
    res = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout
