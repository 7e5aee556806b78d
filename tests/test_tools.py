"""The command-line behaviour of tools/codelines.py."""

import subprocess
import sys
from pathlib import Path

CODELINES = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"


def _codelines(*args, cwd):
    return subprocess.run(
        [sys.executable, str(CODELINES), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
    )


def test_codelines_default_is_the_package_from_any_directory(tmp_path):
    # the default used to be read relative to the current directory
    run = _codelines(cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0].endswith("src/plantsim/__init__.py")
    assert lines[-1].endswith("  total")


def test_codelines_missing_path_exits_two(tmp_path):
    # used to end in a FileNotFoundError traceback
    for arg in ("--help", "nowhere.py"):
        run = _codelines(arg, cwd=tmp_path)
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr == f"codelines: no such file or directory: {arg}\n"
