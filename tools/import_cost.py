"""Start-up cost of a fresh hypframe process, with bytecode off and cached.

    python3 tools/import_cost.py [TREE] [-n N]

Copies TREE/src (default: this checkout's) without its __pycache__ to a
temporary directory and runs N fresh interpreters on the copy in each of
two modes:

* off: PYTHONDONTWRITEBYTECODE=1, so hypframe is compiled from source in
  every process while NumPy and the standard library read their installed
  bytecode, as in a fresh checkout;
* cached: PYTHONPYCACHEPREFIX in the temporary directory, filled by one
  process run before the N, so nothing is written into the tree.

Each process measures, in CPU time: `import numpy`; `import hypframe.cli`
plus `load_spec` of TREE/specs/cuspidal_edge_hyperbolic.json, with the
import of the dataclasses module itself; and the time spent creating
dataclasses during that import, from a wrapper around
`dataclasses._process_class` that only the child installs.  Prints the
median and quartiles of each, in milliseconds, and the classes created.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

CHILD = """
import json, sys, time
cpu = time.process_time
t0 = cpu()
import numpy
t1 = cpu()
import dataclasses
made, spent, process = [], [0.0], dataclasses._process_class
def timed(cls, *args, **kwargs):
    start = cpu()
    try:
        return process(cls, *args, **kwargs)
    finally:
        spent[0] += cpu() - start
        made.append(cls.__name__)
dataclasses._process_class = timed
import hypframe.cli
from hypframe.pipeline import load_spec
load_spec(sys.argv[1])
t2 = cpu()
print(json.dumps({"numpy": t1 - t0, "hypframe": t2 - t1, "dataclasses": spent[0],
                  "made": made}))
"""

ROWS = (("numpy", "import numpy"), ("hypframe", "import hypframe.cli + load_spec"),
        ("dataclasses", "dataclass creation"))


def child(src, spec, env):
    """The measurements of one fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", CHILD, spec], env=dict(env, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def summary(runs):
    """Lines of the median [first quartile, third quartile] of each row, in ms."""
    lines = []
    for key, label in ROWS:
        ms = [1e3 * r[key] for r in runs]
        q1, med, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
        lines.append(f"  {label:<32} {med:8.2f} [{q1:.2f}, {q3:.2f}] ms")
    names = runs[0]["made"]
    lines.append(f"  dataclasses created: {len(names)} ({', '.join(names)})"
                 + ("" if all(r["made"] == names for r in runs) else "; differs between runs"))
    return lines


def measure(tree, n):
    """{mode: summary lines} over n processes in each bytecode mode."""
    spec = os.path.join(tree, "specs", "cuspidal_edge_hyperbolic.json")
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONPATH")}
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(tree, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        off = dict(base, PYTHONDONTWRITEBYTECODE="1")
        cached = dict(base, PYTHONPYCACHEPREFIX=os.path.join(tmp, "pycache"))
        child(src, spec, cached)  # fills the cache
        return {f"bytecode {mode}": summary([child(src, spec, env) for _ in range(n)])
                for mode, env in (("off", off), ("cached", cached))}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("tree", nargs="?",
                    default=os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))
    ap.add_argument("-n", type=int, default=20, help="processes per mode (default 20)")
    args = ap.parse_args(argv)
    if args.n < 1:
        ap.error("-n must be at least 1")
    tree = os.path.abspath(args.tree)
    for mode, lines in measure(tree, args.n).items():
        print(f"{tree}: {mode}, {args.n} processes, CPU time median [quartiles]")
        print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
