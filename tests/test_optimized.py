"""The package's own checks are raises, not asserts, so ``python -O`` keeps them."""
from conftest import in_new_interpreter, outcome

SCRIPT = """
import math
import os
import sys
import tempfile
from unittest import mock
from stacksort import (
    CorruptRecordError, Hook, ReductionNotFoundError, VerificationFailedError, families, hooks,
    load, reduce_stationary, search, spectrum, witness)

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
with mock.patch.object(hooks, "enumerate_vhc", lambda p: [(Hook(1, 3),), (Hook(1, 4),)]), \
        mock.patch.object(hooks, "induced_composition", lambda p, c: (2, 1)):
    expect(VerificationFailedError, lambda: reduce_stationary((2, 1, 3, 4), 1))
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
    assert outcome(in_new_interpreter("-O", "-c", SCRIPT)) == (0, "ok\n", "")
