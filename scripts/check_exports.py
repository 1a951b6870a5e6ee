#!/usr/bin/env python3
"""List the library exports that no other module names.

Every `val` declared in a `lib/**/*.mli` must be named by some `.ml`
file outside its own module (another library module, bin, bench,
simbench, examples or test). A name counts when a file writes it
qualified (`M.x`, `Lib.M.Sub.x`), through a module alias
(`module X = Lib.M`, then `X.x`), or bare inside the scope of
`open M`, `let open M in` or `M.( ... )`. Comments and string literals
are ignored. Vals inside `module type` signatures are requirements,
not exports, and are skipped.

Usage: python3 scripts/check_exports.py
Prints the number of exported vals, then exits 1 and lists
`file: val name` for each unreferenced export.
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
    """The `val` names of an interface, minus those inside module types."""
    names, depth, module_type_at = [], 0, None
    for tok in re.finditer(r"\b(module\s+type|sig|end)\b|\bval\s+([a-z_][\w']*)", mli_src):
        word = tok.group(1)
        if word is None:
            if module_type_at is None:
                names.append(tok.group(2))
        elif word == "sig":
            depth += 1
        elif word == "end":
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


def scopes(src, mod):
    """Names that denote [mod] in [src], and the spans where it is open."""
    path = r"(?:[A-Z][\w']*\.)*" + mod + r"\b"
    names = {mod}
    for m in re.finditer(r"\bmodule\s+([A-Z][\w']*)\s*=\s*" + path + r"(?!\.)", src):
        names.add(m.group(1))
    spans = []
    for name in names:
        q = r"(?:[A-Z][\w']*\.)*" + name
        for m in re.finditer(r"\bopen!?\s+" + q + r"\b(?!\.)", src):
            spans.append((m.end(), len(src)))
        for m in re.finditer(r"(?<![\w.])" + q + r"\.\(", src):
            spans.append((m.end() - 1, balanced(src, m.end() - 1)))
    return names, spans


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
        users = []
        for p, src in sources.items():
            if p in own or not p.endswith(".ml") or mod not in src:
                continue
            users.append((src, *scopes(src, mod)))
        for v in vals:
            word = re.compile(r"(?<![\w'])" + re.escape(v) + r"(?![\w'])")
            def named(src, names, spans):
                for name in names:
                    if re.search(r"(?<![\w'])" + name + r"\.(?:[A-Z][\w']*\.)*" + re.escape(v) + r"(?![\w'])", src):
                        return True
                return any(word.search(src, a, b) for a, b in spans)
            if not any(named(*u) for u in users):
                unused.append(f"{mli}: val {v}")
    print(f"{total} exported vals in {len(mlis)} interfaces")
    for u in unused:
        print(u)
    if unused:
        print(f"{len(unused)} exports named by no other module", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
