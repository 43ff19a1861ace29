"""Memory of one `hypframe run`, before and after each pipeline stage.

    python3 tools/stage_rss.py SPEC

Runs ``hypframe run --spec SPEC`` in this process, from this checkout's
``src/``, with its outputs in a temporary directory.  Before and after
each entry of ``hypframe.pipeline.STAGES`` that the run calls, prints
one line: VmHWM and VmRSS from /proc/self/status, and the Rss of NumPy's
``_multiarray_umath`` extension from /proc/self/smaps, all in kB.

The extension's Rss grows by the code pages of each NumPy loop a stage
uses for the first time in the process (64 kB or more each, through
fault-around), and so does VmHWM when that stage also holds the peak.
Check a new NumPy call by the growth it adds here.  Linux only; the
tool imports nothing outside the standard library itself.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UMATH = "_multiarray_umath"


def status_kb(*keys) -> list:
    """The values of keys in /proc/self/status, in kB."""
    found = {}
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            name, _, value = line.partition(":")
            if name in keys:
                found[name] = int(value.split()[0])
    return [found[k] for k in keys]


def umath_rss_kb() -> int:
    """The summed Rss of every mapping of NumPy's _multiarray_umath, in kB."""
    total, inside = 0, False
    with open("/proc/self/smaps", encoding="ascii", errors="replace") as fh:
        for line in fh:
            head = line.split(maxsplit=1)[0]
            if not head.endswith(":"):  # a mapping's header line: range perms ... path
                inside = UMATH in line
            elif inside and head == "Rss:":
                total += int(line.split()[1])
    return total


def report(when, name) -> None:
    hwm, rss = status_kb("VmHWM", "VmRSS")
    print(f"{when:6} {name:15} VmHWM {hwm:8d}  VmRSS {rss:8d}  {UMATH} {umath_rss_kb():6d}")


def measured(name, run):
    def stage(v):
        report("before", name)
        try:
            return run(v)
        finally:
            report("after", name)
    return stage


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("spec", help="spec file to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hypframe import cli, pipeline

    report("start", "")
    stages = pipeline.STAGES
    pipeline.STAGES = tuple((name, measured(name, run), inputs) for name, run, inputs in stages)
    try:
        with tempfile.TemporaryDirectory() as out:
            code = cli.main(["run", "--spec", args.spec, "--out", out])
    finally:
        pipeline.STAGES = stages
    report("end", "")
    return code


if __name__ == "__main__":
    sys.exit(main())
