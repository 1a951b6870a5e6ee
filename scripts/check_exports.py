#!/usr/bin/env python3
"""Check that every library export has a caller that needs it.

Every `val` declared in a `lib/**/*.mli` must be named by a program:
a `.ml` file outside its own module in lib, bin, bench, simbench or
examples. A val that only `test/` names is allowed when its doc
comment (the first `(** ... *)` after the declaration) begins with
`Test oracle for`, `Test fixture for` or `Test seam for` and names
the code it checks; any other val is reported.

A name counts when a file writes it qualified (`M.x`, `Lib.M.x`),
through a module alias (`module X = Lib.M`, then `X.x`), or bare
inside the scope of `open M`, `let open M in` or `M.( ... )`. A val
of a nested `module Sub : sig ... end` counts only under its full
path: `M.Sub.x`, `Sub.x` where `M` is open, or `x` where `M.Sub` is
open (`M.x` names a different val). Comments and string literals are
ignored. Vals inside `module type` signatures are requirements, not
exports, and are skipped.

Usage: python3 scripts/check_exports.py
Prints the number of exported vals and of tagged test-only vals, then
exits 1 and lists `file: val Sub.name` for each export no module
names and each untagged export only tests name.
scripts/test_check_exports.py is its self-test.
"""

import os
import re
import sys

PROGRAM_DIRS = ("lib", "bin", "bench", "simbench", "examples")
TEST_DIRS = ("test",)
TAG = re.compile(r"\(\*\*\s*Test (?:oracle|fixture|seam) for\b")


def strip(src):
    """Blank out comments and string/char literals, keeping offsets."""
    out = list(src)
    i, n, depth = 0, len(src), 0

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    def end_of_string(j):
        j += 1
        while j < n and src[j] != '"':
            j += 2 if src[j] == "\\" else 1
        return j + 1

    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            start, depth, i = i, 1, i + 2
            while i < n and depth:
                if src.startswith("(*", i):
                    depth, i = depth + 1, i + 2
                elif src.startswith("*)", i):
                    depth, i = depth - 1, i + 2
                elif src[i] == '"':
                    i = end_of_string(i)
                else:
                    i += 1
            blank(start, i)
        elif c == '"':
            j = end_of_string(i)
            blank(i, j)
            i = j
        elif c == "{" and (m := re.match(r"\{([a-z_]*)\|", src[i:])):
            close = "|" + m.group(1) + "}"
            j = src.find(close, i + len(m.group(0)))
            j = n if j < 0 else j + len(close)
            blank(i, j)
            i = j
        elif c == "'" and i + 2 < n and src[i + 2] == "'" and src[i + 1] != "\\":
            blank(i, i + 3)
            i += 3
        elif c == "'" and src.startswith("\\", i + 1):
            j = src.find("'", i + 2)
            j = n if j < 0 else j + 1
            blank(i, j)
            i = j
        else:
            i += 1
    return "".join(out)


def module_name(path):
    base = os.path.splitext(os.path.basename(path))[0]
    return base[0].upper() + base[1:]


def exports(mli_src):
    """The vals of an interface as (submodule path, name, offset) triples.

    A val inside `module X : sig ... end` has path ("X",); vals inside
    module types are skipped.
    """
    names, depth, module_type_at, path = [], 0, None, []
    pattern = r"\b(module\s+type|sig|end)\b|\bmodule\s+([A-Z][\w']*)\s*:\s*sig\b|\bval\s+([a-z_][\w']*)"
    for tok in re.finditer(pattern, mli_src):
        word = tok.group(1)
        if tok.group(2):
            depth += 1
            path.append((depth, tok.group(2)))
        elif tok.group(3):
            if module_type_at is None:
                names.append((tuple(n for _, n in path), tok.group(3), tok.start()))
        elif word == "sig":
            depth += 1
        elif word == "end":
            if path and path[-1][0] == depth:
                path.pop()
            depth -= 1
            if module_type_at is not None and depth <= module_type_at:
                module_type_at = None
        elif module_type_at is None:
            module_type_at = depth
    return names


ITEM = re.compile(r"\b(?:val|type|module|end|exception|include|external|class|open)\b")


def doc_comment(raw, stripped, at):
    """The doc comment of the val declared at offset [at]: the first
    `(** ... *)` between the declaration and the next item. [stripped]
    is [raw] with comments blanked."""
    nxt = ITEM.search(stripped, at + 3)
    after = raw.find("(**", at, nxt.start() if nxt else len(raw))
    return raw[after:] if after >= 0 else ""


def balanced(src, open_at):
    """End offset of the parenthesised group opening at [open_at]."""
    depth = 0
    for k in range(open_at, len(src)):
        if src[k] == "(":
            depth += 1
        elif src[k] == ")":
            depth -= 1
            if depth == 0:
                return k + 1
    return len(src)


# A name not preceded by an identifier character or a dot, and a name
# optionally qualified by outer modules (`Sb_util.Bitvec`).
LEAD = r"(?<![\w'.])"
QUALIFIED = r"(?<![\w'])(?:[A-Z][\w']*\.)*"


def find(src, pattern, spans):
    regex = re.compile(pattern)
    return [m for a, b in spans for m in regex.finditer(src, a, b)]


def scopes(src, mod, path):
    """How [src] names module [mod], or its submodule [mod.path].

    Returns the regexes that denote the module, each with the spans in
    which it does so, and the spans where the module is open. A
    submodule is named by its parent's name plus `.Sub`, or by `Sub`
    alone where the parent is open; `module X = ...` adds X.
    """
    whole = [(0, len(src))]
    names, opened = [(QUALIFIED + mod, whole)], []
    for depth in range(len(path) + 1):
        if depth:
            sub = path[depth - 1]
            names = [(d + r"\." + sub, sp) for d, sp in names] + [(LEAD + sub, opened)]
        for d, sp in list(names):
            for m in find(src, r"\bmodule\s+([A-Z][\w']*)\s*=\s*" + d + r"\b(?!\.)", sp):
                names.append((LEAD + m.group(1), whole))
        opened = []
        for d, sp in names:
            opened += [(m.end(), len(src)) for m in find(src, r"\bopen!?\s+" + d + r"\b(?!\.)", sp)]
            opened += [(m.end() - 1, balanced(src, m.end() - 1)) for m in find(src, d + r"\.\(", sp)]
    return names, opened


def main(root=None):
    root = root or os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    raw, sources = {}, {}
    for d in PROGRAM_DIRS + TEST_DIRS:
        for dirpath, _, files in os.walk(os.path.join(root, d)):
            for f in files:
                if f.endswith((".ml", ".mli")):
                    p = os.path.relpath(os.path.join(dirpath, f), root)
                    with open(os.path.join(root, p)) as fh:
                        raw[p] = fh.read()
                    sources[p] = strip(raw[p])
    is_test = lambda p: p.split(os.sep)[0] in TEST_DIRS
    mlis = sorted(p for p in sources if p.startswith("lib" + os.sep) and p.endswith(".mli"))
    total, tagged, unused, test_only = 0, 0, [], []
    for mli in mlis:
        mod = module_name(mli)
        own = {mli, mli[:-1]}
        vals = exports(sources[mli])
        total += len(vals)
        users = [p for p, src in sources.items() if p not in own and p.endswith(".ml") and mod in src]
        named_by = {}
        for path, v, at in vals:
            if path not in named_by:
                named_by[path] = [(p, sources[p], *scopes(sources[p], mod, path)) for p in users]
            name = re.escape(v) + r"(?![\w'])"
            def named(src, names, opened):
                return any(find(src, d + r"\." + name, sp) for d, sp in names) or find(src, LEAD + name, opened)
            callers = [p for p, *u in named_by[path] if named(*u)]
            label = f"{mli}: val {'.'.join(path + (v,))}"
            if not callers:
                unused.append(label)
            elif all(is_test(p) for p in callers):
                if TAG.match(doc_comment(raw[mli], sources[mli], at)):
                    tagged += 1
                else:
                    test_only.append(label)
    print(f"{total} exported vals in {len(mlis)} interfaces, {tagged} of them tagged test-only")
    for u in unused:
        print(u)
    for u in test_only:
        print(u + " (only tests name it; tag its doc comment or delete it)")
    if unused or test_only:
        print(
            f"{len(unused)} exports named by no other module, "
            f"{len(test_only)} untagged exports named only by tests",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
