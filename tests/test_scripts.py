"""Smoke tests: each script under scripts/ runs end to end in a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

import voicepd

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    src = str(Path(voicepd.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)


def test_same_outputs_of_the_tree_and_itself():
    root = SCRIPTS.parent
    done = run_script("same_outputs.py", root, "--seeds", 0, "--workloads", "extract")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["1 commands, 2 output files: 0 differ"]


def test_same_outputs_names_a_changed_output(tmp_path):
    # a copy whose SURE threshold moves one feature column of every row
    src = Path(voicepd.__file__).resolve().parent
    copy = tmp_path / "src" / "voicepd"
    copy.mkdir(parents=True)
    for path in src.glob("*.py"):
        text = path.read_text()
        if path.name == "features.py":
            text = text.replace("DEFAULT_SURE_THRESHOLD = 0.2", "DEFAULT_SURE_THRESHOLD = 0.3")
        (copy / path.name).write_text(text)
    done = run_script("same_outputs.py", tmp_path, "--seeds", 0, "--workloads", "extract")
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines() == ["differs: extract/seed0/features.csv",
                                        "1 commands, 2 output files: 1 differ"]
