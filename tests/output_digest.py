"""One digest of everything ``bfre`` prints over a fixed corpus of runs.

    PYTHONPATH=src python3 tests/output_digest.py

It writes the benchmark's seed-1 workload files with ``bench/workloads.py``
into a temporary directory and runs these commands in-process on them, on
the problems in ``tests/data`` and on the golden problems:

- ``feasible``, ``feasible --no-simplify`` and ``feasible --tol 1e-7``;
- ``solve`` and ``solve --no-simplify``;
- ``simplify --explain``;
- ``verify`` with the workload's flags (``--step 0.25 --cap 2000``, the
  goldens' flags, on ``tests/data``), and ``verify --step 0.5 --tol 1e-6``
  with the same flags besides ``--step``, since the default cap of two
  million grid points takes seconds a file.

It prints the number of runs and one blake2b digest of every run's argv,
exit code, stdout and stderr, in order.  Two checkouts that print the same
line printed the same bytes on every run.  Files are named by a relative
path, so the digest does not depend on where the checkout or the temporary
directory lies.

It exits 0 when every run ended in ``SystemExit``, and 1 when one raised
anything else, which it reports on stderr.  It needs only the standard
library; pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

from bfre.cli import main  # noqa: E402

#: ``verify`` flags for the problems under ``tests/data``.
DATA_VERIFY_ARGS = ("--step", "0.25", "--cap", "2000")


def commands(verify_args: tuple[str, ...]) -> list[tuple[str, ...]]:
    """Each command run on one problem file, as (command, *flags after the
    file)."""
    rest = list(verify_args)
    del rest[rest.index("--step") : rest.index("--step") + 2]
    return [
        ("feasible",),
        ("feasible", "--no-simplify"),
        ("feasible", "--tol", "1e-7"),
        ("solve",),
        ("solve", "--no-simplify"),
        ("simplify", "--explain"),
        ("verify", *verify_args),
        ("verify", "--step", "0.5", "--tol", "1e-6", *rest),
    ]


def run(argv: list[str]) -> tuple[object, str, str, bool]:
    """One in-process ``bfre`` run: (exit code, stdout, stderr, crashed).  A
    run that raises anything but ``SystemExit`` crashed, and its code is the
    exception's type name."""
    out, err = io.StringIO(), io.StringIO()
    crashed = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is recorded, and the runs go on
            code, crashed = type(exc).__name__, True
            traceback.print_exc(file=sys.__stderr__)
    return code, out.getvalue(), err.getvalue(), crashed


@contextlib.contextmanager
def cwd(path: str):
    """Run the block in directory ``path``."""
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def corpus(tmp: str):
    """(directory, relative file, verify flags) for every problem, in a
    fixed order."""
    for workload in sorted(workloads.WORKLOADS):
        out = os.path.join(tmp, workload)
        for record in workloads.write_workload(workload, 1, out):
            yield tmp, f"{workload}/{record['file']}", workloads.WORKLOADS[workload]["verify_args"]
    data = os.path.join("tests", "data")
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, data)):
        dirnames.sort()
        rel = os.path.relpath(dirpath, ROOT)
        for name in sorted(filenames):
            if name.endswith(".json"):
                yield ROOT, os.path.join(rel, name), DATA_VERIFY_ARGS


def main_digest() -> int:
    digest = hashlib.blake2b()
    runs = crashes = 0
    with tempfile.TemporaryDirectory() as tmp:
        for directory, path, verify_args in corpus(tmp):
            with cwd(directory):
                for command, *flags in commands(verify_args):
                    argv = [command, path, *flags]
                    code, out, err, crashed = run(argv)
                    record = repr((argv, code, out, err)).encode()
                    digest.update(len(record).to_bytes(8, "big"))
                    digest.update(record)
                    runs += 1
                    crashes += crashed
    print(f"{runs} runs {digest.hexdigest()}")
    if crashes:
        print(f"{crashes} runs raised an exception", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
