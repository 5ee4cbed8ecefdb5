#!/usr/bin/env python3
"""CLI tests for reach_check.py on fixture ``nm`` output: an unreached
symbol fails, the same symbol allowlisted passes, and stale or reasonless
allowlist lines fail. A fake ``nm`` on PATH prints each file's fixture.
Registered as the ``tools.reach_check`` ctest."""

import os
import stat
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reach_check.py")

# The fake nm prints "<file>.nm" for its last argument, the file to list.
FAKE_NM = '#!/bin/sh\nfor arg; do file="$arg"; done\ncat "$file.nm"\n'

LIBRARY_NM = """
geo.cpp.o:
0000000000000000 T leodivide::geo::haversine_km(double, double)
0000000000000000 T leodivide::geo::unused_helper(int)
0000000000000000 t (anonymous namespace)::local(int)
0000000000000000 W leodivide::geo::inline_template<int>()
"""

PROGRAM_NM = """
0000000000001000 T main
0000000000001100 T leodivide::geo::haversine_km(double, double)
"""

UNREACHED = "leodivide::geo::unused_helper(int)"


class ReachCheckCli(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.root = tmp.name
        bin_dir = self.make_dir("bin")
        self.write(os.path.join(bin_dir, "nm"), FAKE_NM, executable=True)
        self.env = dict(os.environ, PATH=bin_dir + os.pathsep + os.environ["PATH"])
        self.tree = self.make_dir("tree")
        archive = os.path.join(self.make_dir("tree/src"), "libleodivide_geo.a")
        self.write(archive, "!<arch>\n")
        self.write(archive + ".nm", LIBRARY_NM)
        program = os.path.join(self.make_dir("tree/examples"), "quickstart")
        self.write(program, "\x7fELF", executable=True)
        self.write(program + ".nm", PROGRAM_NM)

    def make_dir(self, rel):
        path = os.path.join(self.root, rel)
        os.makedirs(path, exist_ok=True)
        return path

    def write(self, path, text, executable=False):
        with open(path, "w", encoding="latin-1") as f:
            f.write(text)
        if executable:
            os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)

    def run_check(self, allow_lines, trees=None):
        allow = os.path.join(self.root, "allow.txt")
        self.write(allow, "".join(line + "\n" for line in allow_lines))
        proc = subprocess.run(
            [sys.executable, SCRIPT, allow] + (trees or [self.tree]),
            capture_output=True,
            text=True,
            env=self.env,
        )
        return proc.returncode, proc.stdout + proc.stderr

    def test_unreached_symbol_fails(self):
        code, out = self.run_check(["# no entries"])
        self.assertEqual(code, 1, out)
        self.assertIn(f"FAIL: unreached: {UNREACHED}", out)
        self.assertNotIn("haversine_km", out)
        self.assertIn("1 of 2 library functions unreached", out)

    def test_allowlisted_symbol_passes(self):
        code, out = self.run_check([f"{UNREACHED}: kept for the real-data route"])
        self.assertEqual(code, 0, out)
        self.assertIn("1 allowlisted", out)

    def test_stale_entry_fails(self):
        code, out = self.run_check(
            [
                f"{UNREACHED}: kept for the real-data route",
                "leodivide::geo::haversine_km(double, double): reached, so stale",
                "leodivide::geo::gone(): deleted, so stale",
            ]
        )
        self.assertEqual(code, 1, out)
        self.assertIn("stale allowlist entry: leodivide::geo::gone()", out)
        self.assertIn("stale allowlist entry: leodivide::geo::haversine_km", out)

    def test_entry_without_reason_fails(self):
        code, out = self.run_check([f"{UNREACHED}:"])
        self.assertEqual(code, 1, out)
        self.assertIn("no 'symbol: reason' form", out)

    def test_comment_only_allowlist(self):
        # An allowlist with nothing to allow: its header comment and no
        # entry. It passes while programs reach every library function and
        # fails as soon as one is unreached.
        header = [
            "# reach_check.py allowlist: library functions that no program",
            "# reaches but the library keeps on purpose.",
            "",
        ]
        code, out = self.run_check(header)
        self.assertEqual(code, 1, out)
        self.assertIn(f"FAIL: unreached: {UNREACHED}", out)
        self.assertIn("1 of 2 library functions unreached, 0 allowlisted", out)

        program = os.path.join(self.tree, "examples", "quickstart")
        self.write(program + ".nm", PROGRAM_NM + f"0000000000001200 T {UNREACHED}\n")
        code, out = self.run_check(header)
        self.assertEqual(code, 0, out)
        self.assertIn("0 of 2 library functions unreached, 0 allowlisted", out)
        self.assertIn("ok: every unreached library function is allowlisted", out)

    def test_tree_without_programs_is_unusable(self):
        empty = self.make_dir("empty/src")
        self.write(os.path.join(empty, "libleodivide_geo.a"), "")
        code, out = self.run_check([], trees=[os.path.dirname(empty)])
        self.assertEqual(code, 2, out)
        self.assertIn("0 program(s)", out)


if __name__ == "__main__":
    unittest.main()
