"""What ``import repro`` loads: no process machinery (every run executes in
one process)."""

import os
import subprocess
import sys

_CHILD = (
    "import sys, repro\n"
    "print(' '.join(m for m in ('multiprocessing', 'repro.lint.partition_rules') "
    "if m in sys.modules))\n"
)


def test_import_repro_leaves_the_process_pool_unloaded():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    result = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
