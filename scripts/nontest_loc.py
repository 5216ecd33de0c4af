#!/usr/bin/env python3
"""Non-test line counts: the size metric ROADMAP.md tracks.

    python3 scripts/nontest_loc.py [--files] [CRATE_DIR ...]

Run from the repository root. A file's non-test lines are the lines
above its first `#[cfg(test)]` (all of its lines when it has none).
Counts cover every `.rs` file under each crate's `src/` (binaries
included) and `benches/`. Without arguments every workspace crate under `crates/` is
counted; `--files` also lists each file. Informational only: the exit
status is 0 whatever the counts.
"""

import os
import sys


def nontest_lines(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        if line.strip() == "#[cfg(test)]":
            return i
    return len(lines)


def crate_files(crate):
    for top in ("src", "benches"):
        for root, dirs, files in os.walk(os.path.join(crate, top)):
            dirs.sort()
            for name in sorted(files):
                if name.endswith(".rs"):
                    yield os.path.join(root, name)


def default_crates():
    crates = []
    for parent in ("crates", os.path.join("crates", "vendor")):
        for name in sorted(os.listdir(parent)):
            path = os.path.join(parent, name)
            if os.path.isfile(os.path.join(path, "Cargo.toml")):
                crates.append(path)
    return crates


def main(argv):
    show_files = "--files" in argv
    crates = [a.rstrip("/") for a in argv if a != "--files"] or default_crates()
    total = 0
    for crate in crates:
        counts = [(path, nontest_lines(path)) for path in crate_files(crate)]
        crate_total = sum(n for _, n in counts)
        total += crate_total
        print(f"{crate_total:>7}  {crate}")
        if show_files:
            for path, n in sorted(counts, key=lambda c: -c[1]):
                print(f"{n:>7}    {os.path.relpath(path, crate)}")
    print(f"{total:>7}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
