r"""Which functions under ``src/repro/`` no command enters.

    python tools/reached.py 'python benchmarks/e2e/run.py' 'python -m pytest benchmarks -q'

Runs each command through the shell from the checkout's root, with
``PYTHONPATH`` set to a ``sitecustomize`` directory and then ``src``:
every Python process the commands start — the e2e harness's
subprocesses included — installs a ``sys.setprofile`` hook and, at
exit, writes the code of every function it entered.  Prints
``path:line qualname`` for each function defined under ``src/repro/``
that no process entered; exits 1 if a command failed.

Run it in a scratch clone: the benches rewrite ``benchmarks/results/``.
The hook is slow: ``pytest benchmarks`` takes about 15 minutes under it
on a two-core box.

What every run reaches is the union over every command that runs the
system — the five e2e workloads, the benches, the examples and each CLI
command — with ``D`` exported as an empty scratch directory::

    python tools/reached.py \
      'python benchmarks/e2e/run.py' \
      'python -m pytest benchmarks -q' \
      'for f in examples/*.py; do python "$f" || exit 1; done' \
      'python -m repro.cli gen-directory --employees 200 --out "$D/dit.ldif"' \
      'python -m repro.cli gen-carrier --subscribers 200 --out "$D/carrier.ldif"' \
      'python -m repro.cli gen-workload --employees 200 --queries 200 --out "$D/trace"' \
      'python -m repro.cli case-study' \
      'python -m repro.cli obs' \
      'python -m repro.cli recovery --journal-dir "$D/journal"' \
      'python -m repro.cli snapshot --snapshot-dir "$D/snapshots"' \
      'python -m repro.cli soak --hours 0.5 --tenants 2 --seed 7'

``recovery`` and ``snapshot`` require their directory: without it they
exit 2, are reported failed, and the functions only they enter drop out
of the trace.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

HOOK = """\
import atexit, os, sys, threading
_entered = {}
def _hook(frame, event, arg):
    if event == "call":
        _entered.setdefault(id(frame.f_code), frame.f_code)
def _dump():
    sys.setprofile(None)
    with open(os.path.join(os.environ["REACHED_OUT"], str(os.getpid())), "a") as fh:
        fh.writelines(f"{c.co_filename}:{c.co_firstlineno}\\n" for c in _entered.values())
atexit.register(_dump)
sys.setprofile(_hook)
threading.setprofile(_hook)
"""


def _functions(node, prefix=""):
    """``(first line, qualname)`` of every function below *node*; a
    decorated function's code starts at its first decorator."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFS):
            yield min([child.lineno] + [d.lineno for d in child.decorator_list]), prefix + child.name
        if isinstance(child, DEFS + (ast.ClassDef,)):
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix)


def main(commands) -> int:
    with tempfile.TemporaryDirectory() as hook_dir, tempfile.TemporaryDirectory() as out:
        Path(hook_dir, "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        env = dict(os.environ, REACHED_OUT=out, PYTHONPATH=f"{hook_dir}{os.pathsep}{ROOT / 'src'}")
        failed = [c for c in commands if subprocess.run(c, shell=True, cwd=ROOT, env=env).returncode]
        entered = {line for dump in Path(out).iterdir() for line in dump.read_text().splitlines()}
    for path in sorted(PACKAGE.rglob("*.py")):
        for first, name in sorted(_functions(ast.parse(path.read_text(encoding="utf-8")))):
            if f"{path}:{first}" not in entered:
                print(f"{path.relative_to(ROOT)}:{first} {name}")
    for command in failed:
        print(f"failed: {command}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
