"""The package's public surface: every name in ``moodkit.__all__``
resolves, on first access, from the module that defines it."""

import os
import subprocess
import sys

import moodkit


def test_every_public_name_resolves_in_a_fresh_interpreter():
    # In a child process, so that no name is already resolved and cached.
    code = """
import moodkit
names = moodkit.__all__
assert len(set(names)) == len(names), names
assert set(names) <= set(dir(moodkit)), set(names) - set(dir(moodkit))
star = {}
exec("from moodkit import *", star)
for name in names:
    assert getattr(moodkit, name) is star[name], name
assert getattr(moodkit, "NO_SUCH", None) is None
try:
    moodkit.NO_SUCH
except AttributeError as exc:
    assert "NO_SUCH" in str(exc), exc
else:
    raise AssertionError("moodkit.NO_SUCH resolved")
"""
    src_dir = os.path.dirname(os.path.dirname(moodkit.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=60)

