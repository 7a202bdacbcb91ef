"""The README's config block, the demos and the package exports stay true to the code.

The README lists every config key with its default in a ``jsonc`` block;
with the ``//`` comments stripped it must equal ``cli.DEFAULTS``, and the
comments on ``method`` and ``loss_mode`` list their choices in order. Every
script in ``demos/`` must run to completion and remove its temp files.
Every name in ``explor.__all__`` must exist on the package, and every
``explor`` command in the README's ``sh`` blocks must parse.
"""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import explor
from explor.cli import DEFAULTS, METHODS, build_parser
from explor.model import LOSS_MODES

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_config_block() -> str:
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```jsonc\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1, "expected exactly one jsonc block in the README"
    return blocks[0]


def readme_config() -> dict:
    return json.loads(re.sub(r"//[^\n]*", "", readme_config_block()))


def test_readme_config_block_is_defaults():
    assert readme_config() == DEFAULTS


@pytest.mark.parametrize("key,choices", [("method", METHODS), ("loss_mode", LOSS_MODES)])
def test_readme_lists_every_choice_in_order(key, choices):
    comments = re.findall(rf'^\s*"{key}":[^\n]*//([^\n]*)$', readme_config_block(), flags=re.M)
    assert len(comments) == 1, f"expected one commented {key!r} line in the config block"
    assert [c.strip() for c in comments[0].split("|")] == list(choices)


def readme_commands() -> list:
    """Every ``explor ...`` line of the README's ``sh`` blocks, backslash continuations joined."""
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip().startswith("explor ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 7
    for line in commands:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


def test_every_export_exists():
    assert sorted(n for n in explor.__all__ if not hasattr(explor, n)) == []


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
