"""Each demo script runs to completion.

A demo runs from a copy in a temporary directory: demo 05 writes its SVG
next to its own file, so running it in place would rewrite the committed
panel; the panel it writes there must equal the committed one byte for byte.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import platform_eq

DEMO_DIR = pathlib.Path(__file__).resolve().parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))
PANEL = ("05_regions_and_figures", "sign_z_panel.svg")  # the demo and the panel it writes


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    package_root = str(pathlib.Path(platform_eq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))))
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    if demo.stem == PANEL[0]:
        assert (tmp_path / PANEL[1]).read_bytes() == (DEMO_DIR / PANEL[1]).read_bytes()
