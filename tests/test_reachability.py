"""Every function in src/wres is reached by the CLI, or is allowed not to be.

A subprocess installs a call tracer before it imports wres, so calls made
at import time (the closed-form shapes, for one) count too, then drives
the CLI through verify at dims 2, 4 and 6, parts and einstein in text
and JSON, and the named and file curvature sources.  The functions are
listed with ast and keyed by file and first line, the line of the first
decorator for a decorated function, as a code object counts it:
co_qualname would name them directly but needs Python 3.11.  A helper
that only the tests call belongs in tests/oracles.py, not in the engine.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"

# functions the CLI never calls, each with the reason it stays
ALLOWED = {
    "SymbolExpansion.merged": "bench/workloads.py and bench/test_bench.py compare symbol families",
    "lemma1_symbols": "bench/workloads.py and bench/test_bench.py build the generic family",
    "standard_connection": "bench/workloads.py and bench/test_bench.py build its connection",
    "_nums": "standard_connection's numerators",
    "CliffordOp.rows": "bench/oracle.py reads the matrix view",
    "_blade_action": "CliffordOp.rows' sign table",
    "CliffordOp.scale": "bench/test_bench.py scales a merged coefficient",
    "Analysis.all_match": "library API",
    "RiemannTensor.to_json": "library API, the inverse of from_json",
    "RiemannTensor.entries": "library API, the Fraction view that tests and bench/oracle.py read",
}

U = "1/2,-3,2/7,1"
RUNS = [["verify", "--dim", str(n), "--seeds", "1"] for n in (2, 4, 6)] + [
    ["parts", "--dim", "4", "--seed", "1"],
    ["parts", "--dim", "4", "--seed", "1", "--json"],
    ["einstein", "--dim", "4", "--u", U, "--v", U],
    ["einstein", "--dim", "4", "--u", U, "--v", U, "--json", "--eval", "2/3", "5"],
] + [
    ["verify", "--dim", "4", "--seeds", "1", "--curvature", source]
    for source in ("constant", "flat", str(DATA / "curvature-d4.json"))
]

SCRIPT = """
import json, sys
package, runs = sys.argv[1], json.loads(sys.argv[2])
seen = set()

def tracer(frame, event, arg):
    code = frame.f_code
    seen.add((code.co_filename, code.co_firstlineno))

sys.settrace(tracer)
import wres
from click.testing import CliRunner
from wres.cli import main

for args in runs:
    result = CliRunner().invoke(main, args, env={"WRES_SEED_BASE": "0"})
    if result.exit_code:
        sys.exit(f"wres {' '.join(args)} exited {result.exit_code}: {result.output}")
sys.settrace(None)
reached = sorted([f, line] for f, line in seen if f.startswith(package))
print(json.dumps({"package": wres.__file__, "reached": reached}))
"""


def defined_functions() -> dict:
    """{(file name, first line): qualified name} of every def in src/wres."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[path.name, first] = name
                walk(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted((SRC / "wres").glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return out


def is_dunder(name: str) -> bool:
    last = name.rsplit(".", 1)[-1]
    return last.startswith("__") and last.endswith("__")


def test_every_engine_function_is_reached_by_the_cli():
    package = str(SRC / "wres")
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, package, json.dumps(RUNS)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert Path(result["package"]).resolve().parent == (SRC / "wres").resolve()
    reached = {(Path(f).name, line) for f, line in result["reached"]}

    functions = defined_functions()
    names = set(functions.values())
    assert set(ALLOWED) <= names, f"allowed but not defined: {sorted(set(ALLOWED) - names)}"
    unreached = [
        f"{file}:{line} {name}"
        for (file, line), name in sorted(functions.items())
        if (file, line) not in reached and not is_dunder(name) and name not in ALLOWED
    ]
    assert not unreached, "never called by the CLI runs:\n" + "\n".join(unreached)
