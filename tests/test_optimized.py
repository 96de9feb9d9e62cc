"""The package's own checks are raises, not asserts, so ``python -O`` keeps them."""
import os
import subprocess
import sys

import stacksort

SCRIPT = """
import math
import os
import sys
import tempfile
from unittest import mock
from stacksort import (
    CorruptRecordError, ReductionNotFoundError, VerificationFailedError, families, hooks, load,
    reduce_stationary, search, spectrum, witness)

if __debug__:
    sys.exit("asserts are still on")


def expect(error, call):
    try:
        call()
    except error:
        return
    sys.exit(f"no {error.__name__}")


with mock.patch.object(search, "factorial", lambda n: math.factorial(n) + 1):
    expect(VerificationFailedError, lambda: spectrum(4))
with mock.patch.object(families, "fertility", lambda p: 13):
    expect(VerificationFailedError, lambda: witness(12))
with mock.patch.object(hooks, "_reduction_candidate", lambda p, hook: (2, 1)):
    expect(ReductionNotFoundError, lambda: reduce_stationary((1, 3, 2, 4), 1))
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "cache.jsonl")
    with open(path, "w") as fh:
        fh.write('{"perm":"1 1","fertility":"2"}\\n')
    expect(CorruptRecordError, lambda: load(path))
    with open(path, "w") as fh:
        fh.write('{"perm":"1","fertility":1.5}\\n')
    expect(CorruptRecordError, lambda: load(path))
print("ok")
"""


def test_checks_raise_under_python_O():
    src = os.path.dirname(os.path.dirname(stacksort.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-O", "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")
