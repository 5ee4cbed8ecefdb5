#!/usr/bin/env python3
"""Fail on library functions that no program reaches.

Usage: reach_check.py <allowlist> <build-dir> [<build-dir>...]

Each build directory is a tree configured with

    -DCMAKE_BUILD_TYPE=Debug
    -DCMAKE_CXX_FLAGS="-O0 -fno-inline -ffunction-sections -fdata-sections"
    -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections

so that every out-of-line function sits in its own section and the linker
drops each one that no program calls. The check takes, across all trees:

- the library functions: every symbol that ``nm --defined-only`` lists as
  ``T`` in a ``libleodivide_*.a`` archive built from ``src/`` (the archives
  in a ``src`` build directory; the test oracles and leolint's core are
  not library code);
- the programs: every ELF executable outside ``CMakeFiles``, ``tests``
  directories and ``test_*`` binaries, i.e. the examples, benches,
  ``ldsnap``, ``leolint`` and ``perfbench``.

A library function is unreached when no program defines it. Each unreached
function must be named in the allowlist, one ``symbol: reason`` line each
(demangled, as ``nm -C`` prints it; ``#`` starts a comment line). The check
fails, exit 1, on an unreached function the allowlist does not name, on a
line without a reason, and on a stale line that names no unreached
function. Exit 2 means the inputs are unusable: a missing allowlist, or a
tree with no library archive or no program.
"""

import os
import subprocess
import sys

ELF_MAGIC = b"\x7fELF"


def defined_symbols(path):
    """Yield (type, demangled name) for each symbol ``path`` defines."""
    out = subprocess.run(
        ["nm", "--defined-only", "-C", path],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and len(parts[1]) == 1:
            yield parts[1], parts[2]


def is_program(path, name):
    if name.startswith("test_") or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == ELF_MAGIC


def scan_tree(tree):
    """Return (library archive paths, program paths) under one build tree."""
    archives, programs = [], []
    for root, dirs, files in os.walk(tree):
        dirs[:] = sorted(d for d in dirs if d not in ("CMakeFiles", "tests"))
        for name in sorted(files):
            path = os.path.join(root, name)
            if name.startswith("libleodivide_") and name.endswith(".a"):
                if os.path.basename(root) == "src":
                    archives.append(path)
            elif os.path.isfile(path) and is_program(path, name):
                programs.append(path)
    return archives, programs


def read_allowlist(path):
    """Return ({symbol: reason}, [malformed lines])."""
    entries, bad = {}, []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            symbol, sep, reason = line.partition(": ")
            if not sep or not symbol.strip() or not reason.strip():
                bad.append(f"{path}:{lineno}: no 'symbol: reason' form: {line}")
            else:
                entries[symbol.strip()] = reason.strip()
    return entries, bad


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    allow_path, trees = argv[1], argv[2:]
    try:
        allow, bad = read_allowlist(allow_path)
    except OSError as err:
        print(f"FAIL: unusable allowlist: {err}", file=sys.stderr)
        return 2

    library, reached = set(), set()
    for tree in trees:
        archives, programs = scan_tree(tree)
        if not archives or not programs:
            print(
                f"FAIL: {tree}: found {len(archives)} library archive(s) and "
                f"{len(programs)} program(s); build the tree first",
                file=sys.stderr,
            )
            return 2
        for archive in archives:
            library.update(n for t, n in defined_symbols(archive) if t == "T")
        for program in programs:
            reached.update(n for _, n in defined_symbols(program))

    unreached = library - reached
    unlisted = sorted(unreached - allow.keys())
    stale = sorted(allow.keys() - unreached)
    for symbol in unlisted:
        print(f"FAIL: unreached: {symbol}")
    for symbol in stale:
        print(f"FAIL: stale allowlist entry: {symbol}")
    for line in bad:
        print(f"FAIL: {line}")
    print(
        f"{len(unreached)} of {len(library)} library functions unreached, "
        f"{len(unreached) - len(unlisted)} allowlisted"
    )
    if unlisted or stale or bad:
        print(
            f"FAIL: {len(unlisted)} unreached function(s) not allowlisted, "
            f"{len(stale)} stale and {len(bad)} malformed allowlist line(s)"
        )
        return 1
    print("ok: every unreached library function is allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
