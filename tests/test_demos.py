"""Each demo runs to completion against the current library API."""

import pytest

from conftest import ROOT, run_python


@pytest.mark.parametrize("name", ["01_equilibrium_basics", "02_effective_range",
                                  "03_train_chains", "04_color_counting_multiscale",
                                  "05_graph_batching"])
def test_demo_runs(name, tmp_path):
    result = run_python(str(ROOT / "demos" / f"{name}.py"), cwd=tmp_path)
    assert result.returncode == 0, result.stderr
