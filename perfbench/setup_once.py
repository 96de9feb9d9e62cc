"""One benchmark set-up, timed in a fresh interpreter.

    python3 perfbench/setup_once.py WORKLOAD SEED

Imports ``stacksort`` from this checkout's ``src/``, builds the workload's
inputs and writes its fixture, then prints the seconds that took. The clock
starts before any import, so every module the package pulls in, its own
and the standard library's, is paid for here as it is by a user's first
command. ``run.py`` starts this several times and reports the median as
``setup_s``.
"""
import time

_START = time.perf_counter()

import importlib  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def import_package():
    """Import ``stacksort`` afresh from this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "stacksort", "cli.py")):
        raise SystemExit(f"perfbench: no stacksort sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "stacksort" or m.startswith("stacksort.")]:
        del sys.modules[name]
    package = importlib.import_module("stacksort")
    importlib.import_module("stacksort.cli")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported stacksort from {package.__file__}")
    return package


def main(argv: list[str]) -> None:
    workload, seed = argv
    import_package()
    os.makedirs(WORK_DIR, exist_ok=True)
    workloads.build(workload, int(seed), WORK_DIR)
    print(time.perf_counter() - _START)


if __name__ == "__main__":
    main(sys.argv[1:])
