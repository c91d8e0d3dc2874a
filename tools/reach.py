"""Fail on any function of src/lofs that none of the product's surfaces enters.

Usage: python3 tools/reach.py

The surfaces are what lofs answers for, each run in process:

- ``lofs suite``, the acceptance battery;
- the seed-1 requests of the ``cli-mixed`` benchmark workload with their
  known-defect probes, generated by ``perfbench/clidocs.py``;
- one set-up and one pass of the ``sweeps`` benchmark workload;
- the CLI calls of the CI file's enumeration step and its size-limit step.

One ``cProfile`` profiler runs over all of them and records every code
object entered.  The functions are listed from the syntax tree of each
module of src/lofs, methods and nested functions included, and a function
is reached when its code object (file, first line, name) was entered.
The exit code is 0 when every function outside ``ALLOWED`` is reached,
and 1 when one is not.  It is also 1 when an entry of ``ALLOWED`` names
no function or a reached one, so the list stays as short as it can be.
"""

from __future__ import annotations

import ast
import contextlib
import cProfile
import importlib
import io
import os
import pkgutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

import lofs  # noqa: E402
from lofs import formats  # noqa: E402
from lofs.order import MonotoneMap, antichain, chain, identity  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# Functions that no surface enters, each kept for a reason stated here.
ALLOWED = {
    # reprs: for a reader at the prompt or in a failing test's message
    "adjunction.RaliWitness.__repr__",
    "factorisation.FactorisationData.__repr__",
    "order.FinPreorder.__repr__",
    "order.MonotoneMap.__repr__",
    "order.Square.__repr__",
    "topology.FiniteSpace.__repr__",
    # example constructors, exported for a reader's own examples
    "order.antichain",
    "order.diamond",
    "order.indiscrete",
    "order.vee",
    # read by tests as references: the unit of the down-set monad, and the
    # writer of a map document, which the CI file uses to write its inputs
    "downsets.unit",
    "formats.map_to_obj",
}


def functions():
    """{(file, first line, name): dotted name} for every function of src/lofs."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(path, first, child.name)] = f"{prefix}.{child.name}"
                walk(child, path, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}.{child.name}")
            else:
                walk(child, path, prefix)

    for path in sorted((SRC / "lofs").glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), str(path.resolve()), path.stem)
    return found


@contextlib.contextmanager
def quiet():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        yield


def workload_pass(name, workdir):
    """One set-up and one pass of a benchmark workload, then its probes."""
    wl = WORKLOADS[name](DEFAULT_SEED)
    units = wl.setup(lofs)
    wl.prepare(workdir)
    with wl.pass_context():
        for unit in units:
            wl.run(lofs, unit)
    wl.probe(lofs)


def write_inputs(workdir):
    """The input files of the CI file's size-limit step."""
    docs = {
        "space.json": formats.preorder_to_obj(antichain(13), "space"),
        "map.json": formats.map_to_obj(identity(chain(3))),
        "chain3.json": formats.preorder_to_obj(chain(3)),
        "full.json": [formats.map_to_obj(identity(chain(2)))],
        "antichain2.json": formats.preorder_to_obj(antichain(2)),
        "point.json": [formats.map_to_obj(MonotoneMap(chain(1), chain(3), [0]))],
        "discrete5.json": formats.map_to_obj(identity(antichain(5))),
    }
    for name, obj in docs.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as out:
            out.write(formats.dumps(obj))


# the CLI calls of the CI file's enumeration and size-limit steps, the
# latter on the files of ``write_inputs``
CI_CALLS = [
    ["--max-size", "6", "enumerate", "6"],
    ["--max-size", "6", "enumerate", "--posets-only", "6"],
    ["--max-size", "6", "classify"],
    ["classify", "--max-size", "0"],
    ["--max-carrier", "100", "filter-space", "space.json"],
    ["--max-carrier", "8", "factor", "map.json"],
    ["enumerate", "6"],
    ["--max-carrier", "1", "classify", "--max-size", "3"],
    ["--max-size", "2", "classify", "--max-size", "4"],
    ["--max-carrier", "8", "kan-injective", "chain3.json", "full.json"],
    ["--max-carrier", "7", "kan-injective", "antichain2.json", "point.json"],
    ["--max-carrier", "8", "check", "top-coalgebra", "discrete5.json"],
    ["--max-carrier", "30", "suite", "--criteria", "2,3,4"],
]


def main():
    for info in pkgutil.iter_modules(lofs.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            importlib.import_module(f"lofs.{info.name}")
    if Path(lofs.__file__).resolve().parent != SRC / "lofs":
        sys.exit(f"reach: lofs imported from {lofs.__file__}, not from {SRC}")
    cli = lofs.cli
    with tempfile.TemporaryDirectory() as cli_dir, tempfile.TemporaryDirectory() as ci_dir:
        write_inputs(ci_dir)
        profiler = cProfile.Profile(builtins=False)
        profiler.enable()
        try:
            with quiet():
                cli.main(["suite"])
            workload_pass("cli-mixed", cli_dir)
            workload_pass("sweeps", None)
            previous = os.getcwd()
            os.chdir(ci_dir)
            try:
                with quiet():
                    for argv in CI_CALLS:
                        cli.main(argv)
            finally:
                os.chdir(previous)
        finally:
            profiler.disable()
    entered = {
        (os.path.realpath(e.code.co_filename), e.code.co_firstlineno, e.code.co_name)
        for e in profiler.getstats()
        if not isinstance(e.code, str)
    }
    found = functions()
    names = set(found.values())
    reached = {name for key, name in found.items() if key in entered}
    unreached = sorted(names - reached - ALLOWED)
    print(f"reach: {len(reached)} of {len(names)} functions of src/lofs entered, {len(ALLOWED)} allowed")
    for name in unreached:
        print(f"reach: not entered: {name}")
    for name in sorted(ALLOWED - names):
        print(f"reach: allowed but no such function: {name}")
    for name in sorted(ALLOWED & reached):
        print(f"reach: allowed but entered: {name}")
    return 1 if unreached or ALLOWED - names or ALLOWED & reached else 0


if __name__ == "__main__":
    sys.exit(main())
