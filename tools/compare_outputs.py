"""Byte-identity check of two source trees of hypframe.

    python3 tools/compare_outputs.py OLD_TREE NEW_TREE SPEC... [--all-outputs]

Runs every subcommand of the `hypframe` command with `--out` on each spec,
once with OLD_TREE/src and once with NEW_TREE/src on the import path, each
in a fresh working directory.  It compares the exit codes, stdout, stderr
(with each tree's path masked) and the output trees, file by file.  With
`--all-outputs`, each spec also runs a second time with all six output
products.  Prints one line per difference and a summary; exits 1 if any
run differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

SUBCOMMANDS = ("integrate", "focal", "evolute", "dual", "classify", "verify", "run")
ALL_OUTPUTS = ["report", "loci_csv", "focal_h_obj", "focal_d_obj", "dual_eh_obj",
               "dual_ed_obj"]


def run_one(tree, spec, sub, work):
    """(exit code, stdout, stderr, {relative path: bytes}) of one subcommand."""
    os.makedirs(work)
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-m", "hypframe.cli", sub, "--spec", spec,
                           "--out", "out"], cwd=work, env=env, capture_output=True,
                          text=True, check=False)
    files = {}
    out = os.path.join(work, "out")
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out)] = fh.read()
    stderr = proc.stderr.replace(os.path.abspath(tree), "<tree>")
    return proc.returncode, proc.stdout, stderr, files


def differences(old, new):
    """Text of each way the two results of run_one differ."""
    out = []
    for k, what in enumerate(("exit code", "stdout", "stderr")):
        if old[k] != new[k]:
            out.append(f"{what}: {old[k]!r} -> {new[k]!r}"[:2000])
    for name in sorted(set(old[3]) | set(new[3])):
        if old[3].get(name) != new[3].get(name):
            state = ("only old" if name not in new[3] else
                     "only new" if name not in old[3] else "bytes differ")
            out.append(f"file {name}: {state}")
    return out


def variants(specs, all_outputs, scratch):
    """(label, path) of each spec run: as given, and with all six outputs."""
    for path in specs:
        yield os.path.basename(path), os.path.abspath(path)
        if all_outputs:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc["outputs"] = ALL_OUTPUTS
            name = os.path.splitext(os.path.basename(path))[0] + "_all_outputs.json"
            full = os.path.join(scratch, name)
            with open(full, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            yield name, full


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_tree")
    parser.add_argument("new_tree")
    parser.add_argument("specs", nargs="+")
    parser.add_argument("--all-outputs", action="store_true",
                        help="also run each spec with all six output products")
    args = parser.parse_args(argv)
    runs = differing = 0
    with tempfile.TemporaryDirectory() as scratch:
        for label, spec in variants(args.specs, args.all_outputs, scratch):
            for sub in SUBCOMMANDS:
                work = os.path.join(scratch, f"{runs}")
                old = run_one(args.old_tree, spec, sub, os.path.join(work, "old"))
                new = run_one(args.new_tree, spec, sub, os.path.join(work, "new"))
                runs += 1
                found = differences(old, new)
                differing += bool(found)
                for line in found:
                    print(f"DIFF {label} {sub}: {line}")
                print(f"{'same' if not found else 'DIFFERS'} {label} {sub} (exit {new[0]})",
                      flush=True)
    print(f"{runs} runs, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
