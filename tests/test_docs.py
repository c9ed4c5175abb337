"""The README quickstart and every demo script run as published."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# each demo script and a headline of its output
DEMOS = {
    "diversity_multiplexing.py": ["optimal frontier for mt = mr = 4"],
    "ergodic_capacity.py": ["normalized ergodic capacity, m = 4"],
    "outage_and_rho_norm.py": ["rho_norm [dB]"],
    "rayleigh_convergence.py": ["KS(m*lam, Wishart)"],
    "zero_outage_feedback.py": ["staleness sweep", "two pinned streams"],
}


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script, capsys):
    runpy.run_path(str(ROOT / "demos" / script), run_name="__main__")
    out = capsys.readouterr().out
    for headline in DEMOS[script]:
        assert headline in out


def test_readme_quickstart_runs(capsys):
    code = re.search(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    # the seed-0 spectrum of (2,2,3): ascending, the pinned value exactly 1.0
    assert capsys.readouterr().out.splitlines()[0] == "[0.23910838 1.        ]"
