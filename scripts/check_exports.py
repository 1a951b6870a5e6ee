#!/usr/bin/env python3
"""List the library exports that no other module names.

Every `val` declared in a `lib/**/*.mli` must be named by some `.ml`
file outside its own module (another library module, bin, bench,
simbench, examples or test). A name counts when a file writes it
qualified (`M.x`, `Lib.M.x`), through a module alias
(`module X = Lib.M`, then `X.x`), or bare inside the scope of
`open M`, `let open M in` or `M.( ... )`. A val of a nested
`module Sub : sig ... end` counts only under its full path: `M.Sub.x`,
`Sub.x` where `M` is open, or `x` where `M.Sub` is open (`M.x` names
a different val). Comments and string literals are ignored. Vals
inside `module type` signatures are requirements, not exports, and
are skipped.

Usage: python3 scripts/check_exports.py
Prints the number of exported vals, then exits 1 and lists
`file: val Sub.name` for each unreferenced export.
"""

import os
import re
import sys

SOURCE_DIRS = ("lib", "bin", "bench", "simbench", "examples", "test")


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
    """The vals of an interface as (submodule path, name) pairs.

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
                names.append((tuple(n for _, n in path), tok.group(3)))
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


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    sources = {}
    for d in SOURCE_DIRS:
        for dirpath, _, files in os.walk(d):
            for f in files:
                if f.endswith((".ml", ".mli")):
                    p = os.path.join(dirpath, f)
                    with open(p) as fh:
                        sources[p] = strip(fh.read())
    mlis = sorted(p for p in sources if p.startswith("lib/") and p.endswith(".mli"))
    total, unused = 0, []
    for mli in mlis:
        mod = module_name(mli)
        own = {mli, mli[:-1]}
        vals = exports(sources[mli])
        total += len(vals)
        users = [p for p, src in sources.items() if p not in own and p.endswith(".ml") and mod in src]
        named_by = {}
        for path, v in vals:
            if path not in named_by:
                named_by[path] = [(sources[p], *scopes(sources[p], mod, path)) for p in users]
            name = re.escape(v) + r"(?![\w'])"
            def named(src, names, opened):
                return any(find(src, d + r"\." + name, sp) for d, sp in names) or find(src, LEAD + name, opened)
            if not any(named(*u) for u in named_by[path]):
                unused.append(f"{mli}: val {'.'.join(path + (v,))}")
    print(f"{total} exported vals in {len(mlis)} interfaces")
    for u in unused:
        print(u)
    if unused:
        print(f"{len(unused)} exports named by no other module", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
