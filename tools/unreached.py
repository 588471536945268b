"""Which function bodies under ``src/repro`` does nothing enter?

    python3 tools/unreached.py [--functions]

Runs, under call tracing, the four suite workloads (``--seconds 2`` at
``--trace 0`` and ``--trace 1``), the seven ``examples/*.py``, the two
``tools/scenarios.py`` paths (every serve protocol op over TCP; durable
writes, a fault-point kill and a reopen) and the tier-1 tests, then prints
per module how many function lines were entered by no workload, example or
scenario, and how many by nothing at all (``--functions`` also names the
functions only tier-1 entered and those nothing entered).  Evidence for ROADMAP's "Delete by
evidence": a function only its own unit test enters is a candidate; so is one
nothing enters.

Tracing is a generated ``sitecustomize`` module put first on ``PYTHONPATH``,
so every Python process a run starts — the suite's worker subprocesses, the
servers the smoke tests spawn — installs ``sys.setprofile`` and
``threading.setprofile`` and writes the code objects it entered to a file when
it exits.  Stdlib only.  A function's lines run from its first decorator to
its last statement, less the ``def``s nested in it.  Runs are slower traced, so timing assertions in tier-1 may fail: the exit
codes are printed, not enforced.
"""

from __future__ import annotations

import ast
import glob
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro") + os.sep
WORKLOADS = ("point_serve", "scan_agg", "mimic_pipeline", "ingest_dash")

HOOK = '''\
import atexit, os, sys, threading
_entered = set()
def _profile(frame, event, arg):
    if event == "call":
        _entered.add(frame.f_code)
def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    while True:
        try:
            codes = list(_entered)  # a daemon thread may still be adding
            break
        except RuntimeError:
            pass
    with open(os.path.join({out!r}, str(os.getpid())), "w") as out:
        for code in codes:
            name = os.path.abspath(code.co_filename)
            if name.startswith({package!r}):
                out.write(name + "\\t" + str(code.co_firstlineno) + "\\n")
threading.setprofile(_profile)
sys.setprofile(_profile)
atexit.register(_dump)
'''


def traced(label: str, commands: list[list[str]], work: str) -> set[tuple[str, int]]:
    """Run ``commands`` with the hook installed; the (file, first line) pairs entered."""
    hook, out = os.path.join(work, label, "hook"), os.path.join(work, label, "out")
    os.makedirs(hook)
    os.makedirs(out)
    with open(os.path.join(hook, "sitecustomize.py"), "w") as handle:
        handle.write(HOOK.format(out=out, package=PACKAGE))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([hook, SRC]))
    for command in commands:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, check=False)
        print(f"[{label}] exit {done.returncode}: {' '.join(command[1:])}", file=sys.stderr)
    entered = set()
    for path in glob.glob(os.path.join(out, "*")):
        with open(path) as handle:
            for line in handle:
                name, _, first = line.rstrip("\n").partition("\t")
                entered.add((name, int(first)))
    return entered


def functions(path: str) -> list[tuple[str, int, int]]:
    """``(qualified name, first line as a code object reports it, own lines)``."""
    with open(path) as handle:
        tree = ast.parse(handle.read())
    found = []

    def visit(node: ast.AST, prefix: str) -> set[int]:
        """Lines of ``node`` taken by the defs nested in it (recording each)."""
        taken: set[int] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                whole = set(range(min([child.lineno] + [d.lineno for d in child.decorator_list]),
                                  child.end_lineno + 1))
                found.append((name, min(whole), len(whole - visit(child, name + "."))))
                taken |= whole
            elif isinstance(child, ast.ClassDef):
                taken |= visit(child, f"{prefix}{child.name}.")
            else:
                taken |= visit(child, prefix)
        return taken

    visit(tree, "")
    return found


def main() -> None:
    python = sys.executable
    suite = os.path.join("benchmarks", "suite", "run.py")
    with tempfile.TemporaryDirectory(prefix="unreached-") as work:
        served = traced("workloads", [
            [python, suite, "--workload", name, "--seconds", "2", "--trace", trace]
            for name in WORKLOADS for trace in ("0", "1")], work)
        served |= traced("examples", [
            [python, path] for path in sorted(glob.glob(os.path.join("examples", "*.py")))],
            work)
        served |= traced("scenarios", [
            [python, os.path.join("tools", "scenarios.py"), name] for name in ("serve", "crash")],
            work)
        tested = traced("tier-1", [[python, "-m", "pytest", "-q", "-p", "no:cacheprovider"]],
                        work)
    rows, idle, tested_only = [], [], []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)):
        module = os.path.relpath(path, PACKAGE)
        total = unserved = unentered = 0
        for name, first, lines in functions(path):
            total += lines
            if (path, first) not in served:
                unserved += lines
                if (path, first) in tested:
                    tested_only.append((module, name, lines))
                else:
                    unentered += lines
                    idle.append((module, name, lines))
        rows.append((module, total, unserved, unentered))
    print(f"{'module':<44}{'lines':>11}{'no workload/example/scenario':>30}{'nothing':>9}")
    for module, total, unserved, unentered in sorted(rows, key=lambda r: (-r[2], r[0])):
        if unserved:
            print(f"{module:<44}{total:>11}{unserved:>30}{unentered:>9}")
    print(f"{'total':<44}{sum(r[1] for r in rows):>11}{sum(r[2] for r in rows):>30}"
          f"{sum(r[3] for r in rows):>9}   ({len(idle)} functions entered by nothing)")
    if "--functions" in sys.argv[1:]:
        for title, found in (("entered only by tier-1", tested_only),
                             ("entered by nothing", idle)):
            print(f"\n{title}: {len(found)} functions, {sum(r[2] for r in found)} lines")
            for module, name, lines in found:
                print(f"  {module}::{name}  {lines}")


if __name__ == "__main__":
    main()
