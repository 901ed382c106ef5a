#!/usr/bin/env python3
"""Reachability scan: every global function the src libraries define must be
kept by a production binary (an example, a bench or the suite driver), or be
on tools/reach_allowlist.txt with a reason.

    tools/reach_scan.py [build-dir]      (default: build)

Method:
  - Build <build-dir>-reach at -O0 with -ffunction-sections -fdata-sections
    and link every binary with -Wl,--gc-sections, so a binary keeps only
    the functions its main() and its static initialisers reach. -O0 keeps
    every call a call: nothing is inlined away.
  - Build bench/suite (its own CMake project) the same way in
    <build-dir>-reach/suite. The flags go on the command line only, so no
    file of the tree changes.
  - A symbol of nm type T (a global strong definition) in a src library
    counts as reached when an example, a bench binary or suite_driver keeps
    it. The rest are listed, demangled, as "tests only" (a test binary keeps
    them) or "nothing".

Limits: only T symbols are gated. Inline functions and template
instantiations are weak (W) symbols; their unreached count is printed for
information. A template that nothing instantiates, or an inline function
that nothing calls, emits no symbol at all and is invisible to this scan.

Allowlist: one entry per line, `<demangled symbol>  # <reason>`, for test
hooks (accessors through which a test reads state) and for the few
functions kept on purpose without a production caller.

Exit status: 0 when every unreached T symbol is allowlisted; 1 when one is
not, when an entry lacks a reason, or when an entry names a symbol that is
now reached or gone (a stale entry); 2 when a build fails.
"""
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
ALLOWLIST = REPO / "tools" / "reach_allowlist.txt"
FLAGS = [
    "-DCMAKE_BUILD_TYPE=None",
    "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]


def run(cmd, log):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        if subprocess.run(cmd, cwd=REPO, stdout=f, stderr=subprocess.STDOUT).returncode:
            sys.stderr.write(f"reach scan: command failed (log: {log}): {' '.join(cmd)}\n")
            sys.exit(2)


def build(reach, jobs):
    log = reach / "reach_build.log"
    reach.mkdir(parents=True, exist_ok=True)
    log.write_text("")
    run(["cmake", "-B", str(reach), "-S", "."] + FLAGS, log)
    run(["cmake", "--build", str(reach), "-j", jobs], log)
    suite = reach / "suite"
    run(["cmake", "-B", str(suite), "-S", "bench/suite"] + FLAGS, log)
    run(["cmake", "--build", str(suite), "-j", jobs, "--target", "suite_driver"], log)


def targets(build_dir):
    """Names of the targets the build defines now (Makefiles: `... name`;
    Ninja: `name: phony`), so a stale binary of a deleted target is never
    counted."""
    out = subprocess.run(["cmake", "--build", str(build_dir), "--target", "help"],
                         check=True, capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        if line.startswith("... "):
            names.add(line.split()[1])
        elif line.endswith(": phony"):
            names.add(line.split(":")[0])
    return names


def executables(d, names):
    return sorted(p for p in d.iterdir()
                  if p.name in names and p.is_file() and os.access(p, os.X_OK))


def nm_defined(path):
    """{mangled name: nm type} of the defined symbols of a binary or archive."""
    out = subprocess.run(["nm", "--defined-only", str(path)], check=True,
                         capture_output=True, text=True).stdout
    syms = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3:
            syms[parts[2]] = parts[1]
    return syms


def demangle(names):
    names = list(names)
    if not names:
        return {}
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         capture_output=True, text=True).stdout.splitlines()
    return dict(zip(names, out))


def load_allowlist():
    entries, bad = {}, []
    for n, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        sym, sep, reason = line.rpartition(" # ")
        if not sep or not sym.strip() or not reason.strip():
            bad.append(f"{ALLOWLIST.name}:{n}: entry without a reason: {line.strip()}")
            continue
        entries[sym.strip()] = reason.strip()
    return entries, bad


def main():
    build_dir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "build").resolve()
    reach = build_dir.parent / (build_dir.name + "-reach")
    jobs = str(min(os.cpu_count() or 2, 4))  # as bench/suite/run.sh builds
    print(f"=== reach scan: building {reach} (-O0, --gc-sections) ===", flush=True)
    build(reach, jobs)

    strong, weak = set(), set()
    for lib in sorted((reach / "src").glob("*/libmpicd_*.a")):
        for sym, kind in nm_defined(lib).items():
            if kind == "T":
                strong.add(sym)
            elif kind in "Ww":
                weak.add(sym)
    current = targets(reach)
    production = [*executables(reach / "examples", current),
                  *executables(reach / "bench", current),
                  reach / "suite" / "suite_driver"]
    tests = executables(reach / "tests", current)
    kept_prod, kept_test = set(), set()
    for exe in production:
        kept_prod.update(nm_defined(exe))
    for exe in tests:
        kept_test.update(nm_defined(exe))

    names = demangle(strong | weak)
    unreached = strong - kept_prod
    # A constructor's complete and base objects demangle alike: list it once.
    tests_only = sorted({names[s] for s in unreached if s in kept_test})
    nothing = sorted({names[s] for s in unreached if s not in kept_test})
    weak_unreached = weak - kept_prod
    print(f"{len(strong)} T symbols in the src libraries; {len(strong) - len(unreached)} "
          f"kept by {len(production)} production binaries "
          f"({len(tests)} test binaries scanned)")
    print(f"weak symbols (inline, templates), for information: {len(weak)}, "
          f"{len(weak_unreached)} unreached "
          f"({len(weak_unreached & kept_test)} tests only)")

    allow, problems = load_allowlist()
    for title, group in (("reached by tests only", tests_only),
                         ("reached by nothing", nothing)):
        print(f"{title} ({len(group)}):")
        for sym in group:
            mark = "allowlisted" if sym in allow else "NOT ALLOWLISTED"
            print(f"  [{mark}] {sym}")
            if sym not in allow:
                problems.append(f"unreached and not allowlisted: {sym}")
    unreached_names = set(tests_only) | set(nothing)
    for sym in sorted(allow):
        if sym not in unreached_names:
            problems.append(f"stale allowlist entry (reached or gone): {sym}")
    if problems:
        print(f"reach scan FAILED ({len(problems)}):")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"reach scan: clean ({len(allow)} allowlisted)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
