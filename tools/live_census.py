"""Function census of ``src/repro/live/`` under a pytest run.

Runs pytest in this process with a :func:`sys.setprofile` hook that
records every function called from a module under ``src/repro/live/``,
then prints, per module, how many of the functions defined there (every
``def``, methods and nested functions included) the run called, and
names the ones it never did.  With no pytest arguments it runs the
tier-1 suite (``-x -q``, the default marker expression, which leaves out
``live``)::

    python tools/live_census.py                       # tier-1
    python tools/live_census.py -- -m live            # any pytest args
    python tools/live_census.py --require driver.py worker.py

``--require MODULE ...`` exits 1 if any listed module has a function the
run never called (or if pytest itself failed).  The hook costs about 1.8x
on the run's wall time.
"""

from __future__ import annotations

import argparse
import ast
import sys
import threading
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
LIVE = ROOT / "src" / "repro" / "live"


def defined_functions(path: Path) -> Dict[int, str]:
    """First line of each function's code object → its qualified name.

    A decorated function's code starts at its first decorator, which is
    the line the interpreter reports as ``co_firstlineno``.
    """
    found: Dict[int, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[first] = name
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def census(pytest_args: List[str]) -> Tuple[int, Set[Tuple[str, int]]]:
    """Run pytest under the hook; its exit code and the (file, first
    line) of every live function it called."""
    import pytest

    prefix = str(LIVE) + "/"
    called: Set[Tuple[str, int]] = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                called.add((code.co_filename, code.co_firstlineno))

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return int(code), called


def report(called: Set[Tuple[str, int]]) -> Dict[str, List[str]]:
    """Print the table; return module → functions never called."""
    missed: Dict[str, List[str]] = {}
    total_called = total = 0
    print(f"\n{'module':<16} {'called':>7} {'defined':>8}")
    for path in sorted(LIVE.glob("*.py")):
        functions = defined_functions(path)
        hit = {line for file, line in called if file == str(path)}
        missed[path.name] = [
            name for line, name in sorted(functions.items()) if line not in hit
        ]
        n_called = len(functions) - len(missed[path.name])
        total_called += n_called
        total += len(functions)
        print(f"{path.name:<16} {n_called:>7} {len(functions):>8}")
    print(f"{'total':<16} {total_called:>7} {total:>8}")
    for module, names in missed.items():
        if names:
            print(f"never called in {module}: {', '.join(names)}")
    return missed


def main(argv: List[str] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    pytest_args = ["-x", "-q"]
    if "--" in argv:
        split = argv.index("--")
        argv, pytest_args = argv[:split], argv[split + 1 :]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--require", nargs="*", default=[], metavar="MODULE")
    args = parser.parse_args(argv)
    unknown = [m for m in args.require if not (LIVE / m).is_file()]
    if unknown:
        parser.error(f"no such module under {LIVE}: {', '.join(unknown)}")
    code, called = census(pytest_args)
    missed = report(called)
    short = [m for m in args.require if missed[m]]
    if code:
        print(f"pytest exited {code}")
    if short:
        print(f"functions never called in required modules: {', '.join(short)}")
    return 1 if code or short else 0


if __name__ == "__main__":
    sys.exit(main())
