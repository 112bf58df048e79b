"""The benchmark tracer must find every name it wraps in the package.

``perfbench/tracer.py`` replaces functions by name in the milsde modules
that look them up.  A refactor that drops or renames one of those names
breaks every traced benchmark run; this test shows it in about a second.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the package as a benchmark call imports it: the CLI pulls in every module
_INSTALL = """
import milsde
import milsde.cli
from tracer import SITES, Tracer
Tracer().install(milsde)
print(len(SITES))
"""


def test_tracer_installs_on_the_package():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", _INSTALL], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0
