#!/usr/bin/env python3
"""Knob scan: every MPICD_* environment variable the program reads must be
set by a script under tools/, or be on tools/knob_allowlist.txt with a
reason. A variable that nothing sets is a hidden input: a stray export
changes what the program measures, and no check ever runs it.

    tools/knob_scan.py [repo-root]      (default: this script's repository)

Method:
  - Readers: every `"MPICD_<NAME>"` literal passed to an env reader
    (`env_string`, `env_double_or`, `env_int_or`, any other `env_*`, or
    `getenv`) in src/ and in bench/common.hpp, the header every bench reads
    its settings through.
  - Setters: a shell assignment `MPICD_<NAME>=...` (also as a command
    prefix or after `export`) in a tools/*.sh script, or a Python mapping
    key `"MPICD_<NAME>": ...` / `env["MPICD_<NAME>"] = ...` in a
    tools/*.py script. Comment lines do not count.

Allowlist: one entry per line, `<NAME>  # <reason>`, for settings an
operator or a test sets by hand.

Exit status: 0 when every variable read is set by a tool script or
allowlisted; 1 when one is neither, when an entry lacks a reason, or when an
entry names a variable that nothing reads or that a tool script sets (a
stale entry).
"""
import pathlib
import re
import sys

READ = re.compile(r'\b(?:env_\w+|getenv)\s*\(\s*"(MPICD_\w+)"')
SHELL_SET = re.compile(r'(?:^|[\s;(])(?:export\s+)?(MPICD_\w+)=')
PY_SET = re.compile(r'["\'](MPICD_\w+)["\']\s*(?::|\]\s*=)')


def code_lines(path):
    return "\n".join(line for line in path.read_text().splitlines()
                     if not line.lstrip().startswith("#"))


def readers(repo):
    files = sorted(p for p in (repo / "src").rglob("*")
                   if p.suffix in (".c", ".cpp", ".h", ".hpp"))
    files.append(repo / "bench" / "common.hpp")
    found = {}
    for path in files:
        for name in READ.findall(path.read_text()):
            found.setdefault(name, []).append(str(path.relative_to(repo)))
    return found


def setters(repo):
    found = {}
    for path in sorted((repo / "tools").iterdir()):
        pattern = {".sh": SHELL_SET, ".py": PY_SET}.get(path.suffix)
        if pattern is None:
            continue
        for name in pattern.findall(code_lines(path)):
            found.setdefault(name, set()).add(path.name)
    return found


def load_allowlist(path):
    entries, bad = {}, []
    for n, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        name, sep, reason = line.partition(" # ")
        if not sep or not name.strip() or not reason.strip():
            bad.append(f"{path.name}:{n}: entry without a reason: {line.strip()}")
            continue
        entries[name.strip()] = reason.strip()
    return entries, bad


def main():
    repo = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                        else pathlib.Path(__file__).resolve().parents[1]).resolve()
    read, set_by = readers(repo), setters(repo)
    allow, problems = load_allowlist(repo / "tools" / "knob_allowlist.txt")
    print(f"{len(read)} MPICD_* variables read in src/ and bench/common.hpp:")
    for name in sorted(read):
        where = ", ".join(sorted(set(read[name])))
        if name in set_by:
            mark = "set by " + ", ".join(sorted(set_by[name]))
        elif name in allow:
            mark = "allowlisted: " + allow[name]
        else:
            mark = "SET BY NOTHING"
            problems.append(f"read but set by no tools/ script and not allowlisted: "
                            f"{name} ({where})")
        print(f"  {name:28} [{mark}]")
    for name in sorted(allow):
        if name not in read:
            problems.append(f"stale allowlist entry (nothing reads it): {name}")
        elif name in set_by:
            problems.append(f"stale allowlist entry (set by "
                            f"{', '.join(sorted(set_by[name]))}): {name}")
    if problems:
        print(f"knob scan FAILED ({len(problems)}):")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"knob scan: clean ({len(allow)} allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
