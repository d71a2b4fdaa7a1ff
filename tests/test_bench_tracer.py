"""The benchmark's tracer still finds every name it wraps.

perfbench/tracer.py wraps package functions by name and refuses to run
when one is missing or escapes wrapping.  Installing it here makes a
rename under src/ fail the test suite instead of only traced benchmark
runs.  The tracer is imported from perfbench/, never edited.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import nto1
from tracer import Tracer
assert nto1.__file__.startswith({src!r}), nto1.__file__
Tracer().install()
print("installed")
"""


def test_tracer_installs_on_the_package():
    script = SCRIPT.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "perfbench"))
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       cwd=ROOT, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "installed"
