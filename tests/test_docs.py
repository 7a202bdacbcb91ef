"""The README's config block and the demos stay true to the code.

The README lists every config key with its default in a ``jsonc`` block;
with the ``//`` comments stripped it must equal ``cli.DEFAULTS``. Every
script in ``demos/`` must run to completion and remove its temp files.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from explor.cli import DEFAULTS

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_config() -> dict:
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```jsonc\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1, "expected exactly one jsonc block in the README"
    return json.loads(re.sub(r"//[^\n]*", "", blocks[0]))


def test_readme_config_block_is_defaults():
    assert readme_config() == DEFAULTS


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # TMPDIR points here, so a demo that leaves its temp directory behind shows up.
    assert not list(tmp_path.glob("explor_demo_*"))
