#!/usr/bin/env python3
"""Cell-body inlining gate and vectorization report for a SIMAS build.

  python3 tools/inline_report.py BUILD_DIR

1. Lists every out-of-line cell body in BUILD_DIR/src/libsimas.a: a
   function symbol of a 3-D kernel lambda in simas::mhd or
   simas::solvers, or the chained rows of Engine::chain_sum,
   `...::{lambda(..., long, long, long)#N}::operator()(..., long, long,
   long)`. Names the demangler gives up on (very long lambda-in-template
   names) are matched in mangled form. Cell bodies compile inline into
   the engine's per-block loops (SIMAS_FLATTEN, DESIGN.md §11); exits 1
   if any is left out of line.
2. Prints, per translation unit of src/mhd and src/solvers, how many
   loops and basic blocks GCC reports vectorized under
   -fopt-info-vec-optimized. Printed only, never gated: the counts depend
   on the GCC version. Needs BUILD_DIR/compile_commands.json (configure
   with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON); skipped without it.
"""

import json
import os
import re
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# The symbol is the lambda's own call operator (the name ends there, but
# for GCC's clone suffixes), and the lambda is declared inside
# simas::mhd, simas::solvers or chain_sum.
CELL_BODY = re.compile(
    r"\{lambda\(([^()]*, )?long, long, long\)#\d+\}"
    r"::operator\(\)\(([^()]*, )?long, long, long\)( const)?"
    r"( \[clone [^]]*\])*$")
CELL_OWNER = re.compile(
    r"simas::(mhd|solvers)::|simas::par::Engine::chain_sum<")
# The same in mangled form: a closure type (Ul...E_) under one of the
# owners, whose call operator (cl) takes three trailing longs.
MANGLED_CELL_BODY = re.compile(
    r"^_Z.*(5simas3mhd|5simas7solvers|9chain_sum).*Ul.*clE.*lll"
    r"(\.[a-z_]+\.\d+)*$")
REPORT_DIRS = ("src/mhd/", "src/solvers/")


def out_of_line_bodies(lib):
    nm = subprocess.run(["nm", "-C", str(lib)], stdout=subprocess.PIPE,
                        stderr=subprocess.DEVNULL, text=True, check=True)
    found = set()
    for line in nm.stdout.splitlines():
        parts = line.split(" ", 2)
        if len(parts) != 3 or parts[1] not in "tTwW":
            continue
        name = parts[2]
        if (CELL_BODY.search(name) and CELL_OWNER.search(name)) or \
                MANGLED_CELL_BODY.match(name):
            found.add(name)
    return sorted(found)


def compile_args(entry):
    if "arguments" in entry:
        return list(entry["arguments"])
    return shlex.split(entry["command"])


def vectorized_counts(entry):
    """(loops, basic blocks) GCC vectorized in one translation unit."""
    args = compile_args(entry)
    args[args.index("-o") + 1] = os.devnull
    args.append("-fopt-info-vec-optimized")
    proc = subprocess.run(args, cwd=entry["directory"],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stderr.splitlines()
    loops = sum("loop vectorized" in s for s in lines)
    blocks = sum("basic block part vectorized" in s for s in lines)
    return loops, blocks


def report_vectorization(build):
    db = build / "compile_commands.json"
    if not db.is_file():
        print(f"\nno {db}: vectorization report skipped")
        return
    # The production library's objects (not simas_checked's or another
    # package's copy of the same sources).
    rows = []
    for e in json.loads(db.read_text()):
        args = compile_args(e)
        out = args[args.index("-o") + 1] if "-o" in args else ""
        tu = e["file"].replace(os.sep, "/")
        unit = next((d + tu.split("/" + d, 1)[1] for d in REPORT_DIRS
                     if "/" + d in tu), None)
        if unit and "/simas.dir/" in "/" + out.replace(os.sep, "/"):
            rows.append((unit, e))
    rows.sort(key=lambda r: r[0])
    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        counts = list(pool.map(lambda r: vectorized_counts(r[1]), rows))
    print("\nvectorized (GCC -fopt-info-vec-optimized; not gated):")
    print(f"  {'translation unit':32s} {'loops':>6s} {'blocks':>7s}")
    for (unit, _), (loops, blocks) in zip(rows, counts):
        print(f"  {unit:32s} {loops:6d} {blocks:7d}")
    print(f"  {'total':32s} {sum(c[0] for c in counts):6d} "
          f"{sum(c[1] for c in counts):7d}")


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    build = Path(sys.argv[1]).resolve()
    lib = build / "src" / "libsimas.a"
    if not lib.is_file():
        print(f"inline_report: {lib} not found (build the simas target)",
              file=sys.stderr)
        return 2
    bodies = out_of_line_bodies(lib)
    print(f"out-of-line cell bodies in {lib.name}: {len(bodies)}")
    for sym in bodies:
        print(f"  {sym}")
    report_vectorization(build)
    return 1 if bodies else 0


if __name__ == "__main__":
    sys.exit(main())
