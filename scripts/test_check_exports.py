#!/usr/bin/env python3
"""Self-test for scripts/check_exports.py.

Builds tiny source trees in a temporary directory and runs the scan
on each: an unreferenced val fails, a val named only under test/
fails, the same val with a `Test oracle for` tag passes, a nested
module's val counts only under its full path, and a val inside a
`module type` is skipped.

Usage: python3 scripts/test_check_exports.py
"""

import contextlib
import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_exports  # noqa: E402


def scan(files):
    """Exit code and stdout of the scan over a tree of [files]."""
    with tempfile.TemporaryDirectory() as root:
        for path, text in files.items():
            os.makedirs(os.path.join(root, os.path.dirname(path)), exist_ok=True)
            with open(os.path.join(root, path), "w") as fh:
                fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = check_exports.main(root)
        return code, out.getvalue()


LIB_ML = {"lib/m/m.ml": "let used = 1\nlet helper = 2\n"}


class CheckExports(unittest.TestCase):
    def test_unreferenced_val_fails(self):
        code, out = scan(
            {
                **LIB_ML,
                "lib/m/m.mli": "val used : int\nval helper : int\n",
                "bin/main.ml": "let () = print_int M.used\n",
            }
        )
        self.assertEqual(code, 1)
        self.assertIn("lib/m/m.mli: val helper", out)
        self.assertNotIn("val used", out)

    def test_test_only_val_fails(self):
        code, out = scan(
            {
                **LIB_ML,
                "lib/m/m.mli": "val used : int\nval helper : int\n(** The helper. *)\n",
                "bin/main.ml": "let () = print_int M.used\n",
                "test/t.ml": "let () = assert (M.helper = 2)\n",
            }
        )
        self.assertEqual(code, 1)
        self.assertIn("lib/m/m.mli: val helper (only tests name it", out)

    def test_tagged_test_only_val_passes(self):
        code, out = scan(
            {
                **LIB_ML,
                "lib/m/m.mli": "val used : int\nval helper : int\n"
                "(** Test oracle for [used]: the same value. *)\n",
                "bin/main.ml": "let () = print_int M.used\n",
                "test/t.ml": "let () = assert (M.helper = 2)\n",
            }
        )
        self.assertEqual(code, 0, out)
        self.assertIn("1 of them tagged test-only", out)

    def test_nested_val_counts_only_under_full_path(self):
        files = {
            "lib/m/m.ml": "let x = 1\nmodule Sub = struct let x = 2 end\n",
            "lib/m/m.mli": "val x : int\nmodule Sub : sig\n  val x : int\nend\n",
        }
        code, out = scan({**files, "bin/main.ml": "let () = print_int M.x\n"})
        self.assertEqual(code, 1)
        self.assertIn("lib/m/m.mli: val Sub.x", out)
        code, out = scan({**files, "bin/main.ml": "let () = print_int (M.x + M.Sub.x)\n"})
        self.assertEqual(code, 0, out)

    def test_module_type_val_is_skipped(self):
        code, out = scan(
            {
                "lib/m/m.ml": "module type S = sig val required : int end\nlet used = 1\n",
                "lib/m/m.mli": "module type S = sig\n  val required : int\nend\n\nval used : int\n",
                "bin/main.ml": "let () = print_int M.used\n",
            }
        )
        self.assertEqual(code, 0, out)
        self.assertIn("1 exported vals in 1 interfaces", out)


if __name__ == "__main__":
    unittest.main()
