"""Byte-identity check of two source trees of hypframe.

    python3 tools/compare_outputs.py OLD_TREE NEW_TREE SPEC... [--all-outputs] [--numeric]

Runs every subcommand of the `hypframe` command with `--out` on each spec,
once with OLD_TREE/src and once with NEW_TREE/src on the import path, each
in a fresh working directory (trees and specs may be given relative to the
current one; a missing one is an error).  It compares the exit codes,
stdout, stderr (with each tree's path masked) and the output trees, file
by file.  With `--all-outputs`, each spec also runs a second time with all
six output products.  Prints one line per difference and a summary; exits
1 if any run differs.

With `--numeric`, a stream or file that differs is compared token by token
instead: its float tokens (in a JSON report, its float values, per key
path with list indices dropped) by their largest absolute and relative
difference, and everything else, integers included, for equality.  Prints
a FLOATS line per differing stream, file or key path, with the old and new
value behind its largest absolute and its largest relative difference (so
rounding noise on a value near zero, whose relative difference can reach
2, shows as such), an OTHER line per non-numeric difference, and the
largest float differences overall; exits 1 only if some run differs in
more than its floats.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
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


# a float token: a decimal point or an exponent, or nan / inf, standing alone
# (not inside a word, a hex digest or a dotted version)
FLOAT = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][-+]?\d+)?"
                   r"|nan|inf)(?![\w.])")


class FloatDiffs:
    """Largest absolute and relative difference of paired floats, per place,
    with the (old, new) pair behind each."""

    def __init__(self):
        self.places = {}  # place -> [count differing, max abs, max rel]
        self.pairs = {}   # place -> [(old, new) of max abs, (old, new) of max rel]

    def add(self, place, a, b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return True
        if not (math.isfinite(a) and math.isfinite(b)):
            return False
        err = abs(a - b)
        rel = err / max(abs(a), abs(b))
        worst = self.places.setdefault(place, [0, 0.0, 0.0])
        pairs = self.pairs.setdefault(place, [None, None])
        worst[0] += 1
        for k, value in ((1, err), (2, rel)):
            if value > worst[k]:
                worst[k], pairs[k - 1] = value, (a, b)
        return True

    def line(self, place):
        """The counts and largest differences at place, each with its pair."""
        (count, err, rel), (at_abs, at_rel) = self.places[place], self.pairs[place]
        return (f"{count} differ, max abs {err:.3e} ({at_abs[0]!r} -> {at_abs[1]!r}), "
                f"max rel {rel:.3e} ({at_rel[0]!r} -> {at_rel[1]!r})")


def _text_diffs(where, old, new, floats, other):
    """Float and other differences of two texts, line by line."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        other.append(f"{where}: {len(old_lines)} -> {len(new_lines)} lines")
        return
    for k, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        if a == b:
            continue
        xs, ys = FLOAT.findall(a), FLOAT.findall(b)
        if FLOAT.sub("#", a) != FLOAT.sub("#", b) or len(xs) != len(ys) or not all(
                floats.add(where, float(x), float(y)) for x, y in zip(xs, ys)):
            other.append(f"{where} line {k}: {a!r} -> {b!r}"[:2000])


def _json_diffs(where, path, old, new, floats, other):
    """Float and other differences of two JSON values, per key path."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in [*old, *(k for k in new if k not in old)]:
            if key not in old or key not in new:
                other.append(f"{where} {path}.{key}: only {'old' if key in old else 'new'}")
            else:
                _json_diffs(where, f"{path}.{key}", old[key], new[key], floats, other)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            other.append(f"{where} {path}: {len(old)} -> {len(new)} items")
            return
        for a, b in zip(old, new):
            _json_diffs(where, path + "[]", a, b, floats, other)
    elif type(old) is float and type(new) is float:
        if not floats.add(f"{where} {path}", old, new):
            other.append(f"{where} {path}: {old!r} -> {new!r}")
    elif old != new or type(old) is not type(new):
        other.append(f"{where} {path}: {old!r} -> {new!r}"[:2000])


def numeric_differences(old, new):
    """(FloatDiffs, other differences) of the two results of run_one."""
    floats, other = FloatDiffs(), []
    if old[0] != new[0]:
        other.append(f"exit code: {old[0]!r} -> {new[0]!r}")
    for k, what in ((1, "stdout"), (2, "stderr")):
        _text_diffs(what, old[k], new[k], floats, other)
    for name in sorted(set(old[3]) | set(new[3])):
        a, b = old[3].get(name), new[3].get(name)
        if a is None or b is None:
            other.append(f"file {name}: only {'old' if b is None else 'new'}")
        elif a != b and name.endswith(".json"):
            _json_diffs(f"file {name}", "", json.loads(a), json.loads(b), floats, other)
        elif a != b:
            _text_diffs(f"file {name}", a.decode("utf-8"), b.decode("utf-8"), floats, other)
    return floats, other


def variants(specs, all_outputs, scratch):
    """(label, path) of each spec run: as given, and with all six outputs."""
    for path in specs:
        yield os.path.basename(path), path
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
    parser.add_argument("--numeric", action="store_true",
                        help="bound float differences; fail only on other differences")
    args = parser.parse_args(argv)
    # each run starts in a fresh working directory, where relative paths are not found
    trees = [os.path.abspath(t) for t in (args.old_tree, args.new_tree)]
    specs = [os.path.abspath(p) for p in args.specs]
    missing = [t for t in trees if not os.path.isdir(os.path.join(t, "src", "hypframe"))]
    missing += [p for p in specs if not os.path.isfile(p)]
    if missing:
        parser.error("not found: " + ", ".join(missing))
    runs = differing = in_floats = 0
    worst = {"abs": (0.0, None), "rel": (0.0, None)}
    with tempfile.TemporaryDirectory() as scratch:
        for label, spec in variants(specs, args.all_outputs, scratch):
            for sub in SUBCOMMANDS:
                work = os.path.join(scratch, f"{runs}")
                old = run_one(trees[0], spec, sub, os.path.join(work, "old"))
                new = run_one(trees[1], spec, sub, os.path.join(work, "new"))
                runs += 1
                if not args.numeric:
                    found = differences(old, new)
                    differing += bool(found)
                    for line in found:
                        print(f"DIFF {label} {sub}: {line}")
                    print(f"{'same' if not found else 'DIFFERS'} {label} {sub} "
                          f"(exit {new[0]})", flush=True)
                    continue
                floats, other = numeric_differences(old, new)
                differing += bool(other)
                in_floats += bool(floats.places) and not other
                for place, (_, err, rel) in floats.places.items():
                    print(f"FLOATS {label} {sub}: {place}: {floats.line(place)}")
                    for key, value, (a, b) in zip(("abs", "rel"), (err, rel),
                                                  floats.pairs[place]):
                        if value > worst[key][0]:
                            worst[key] = (value, f"{label} {sub}: {place}: {a!r} -> {b!r}")
                for line in other:
                    print(f"OTHER {label} {sub}: {line}")
                state = "DIFFERS" if other else "floats" if floats.places else "same"
                print(f"{state} {label} {sub} (exit {new[0]})", flush=True)
    if args.numeric:
        print(f"{runs} runs, {in_floats} differ in floats only, {differing} otherwise")
        for key, (value, place) in worst.items():
            print(f"largest {key} float difference {value:.3e}" + (f" ({place})" if place else ""))
    else:
        print(f"{runs} runs, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
