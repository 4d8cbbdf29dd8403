#!/usr/bin/env python3
"""Fixture gate for tools/kmu_analyze.py.

Every file under fixtures/src is labeled by its name:

    <rule>_trigger.{cc,hh}   analyzed alone, the analyzer must exit 1
                             and report at least one <rule> finding
                             at exactly the marked lines' file;
    <rule>_pass.{cc,hh}      analyzed alone, the analyzer must exit 0
                             (these contain near-misses plus waived
                             violations, so they also prove the
                             suppression syntax).

On top of the per-fixture checks this driver verifies:

  - a whole-tree run over fixtures/src reports every trigger rule
    and exits 1;
  - compile-database filtering: not_in_db_trigger.cc is listed in no
    compile DB entry, so with --compile-db it must not be scanned
    (its violation must not appear);
  - an unknown rule name is a usage error (exit 2).

Exit 0 when every expectation holds, 1 otherwise.
"""

import argparse
import json
import pathlib
import re
import subprocess
import sys

NAME_RE = re.compile(r"(?P<rule>[a-z0-9_]+)_(?P<kind>trigger|pass)$")

# Fixtures excluded from the generated compile database on purpose.
NOT_IN_DB = {"not_in_db_trigger.cc"}


def rule_of(path):
    m = NAME_RE.match(path.stem)
    if not m:
        return None, None
    return m.group("rule").replace("_", "-"), m.group("kind")


def run_analyzer(analyzer, args):
    proc = subprocess.run(
        [sys.executable, str(analyzer)] + [str(a) for a in args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def make_compile_db(fixtures_src, workdir):
    """A compile database naming every fixture TU except the
    deliberately-excluded ones."""
    entries = []
    for cc in sorted(fixtures_src.rglob("*.cc")):
        if cc.name in NOT_IN_DB:
            continue
        entries.append({
            "directory": str(fixtures_src),
            "file": str(cc),
            "command": f"c++ -std=c++17 -c {cc}",
        })
    db = workdir / "compile_commands.json"
    db.write_text(json.dumps(entries, indent=1), encoding="utf-8")
    return db


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--analyzer", type=pathlib.Path, required=True)
    ap.add_argument("--fixtures", type=pathlib.Path, required=True,
                    help="the fixtures/ directory (holding src/)")
    ap.add_argument("--workdir", type=pathlib.Path, required=True)
    args = ap.parse_args(argv)

    fixtures_src = (args.fixtures / "src").resolve()
    if not fixtures_src.is_dir():
        print(f"no fixture tree at {fixtures_src}", file=sys.stderr)
        return 1
    args.workdir.mkdir(parents=True, exist_ok=True)
    db = make_compile_db(fixtures_src, args.workdir.resolve())

    failures = []
    checked = 0

    def expect(label, ok, detail=""):
        nonlocal checked
        checked += 1
        status = "ok" if ok else "FAIL"
        print(f"  [{status}] {label}")
        if not ok:
            failures.append(label + (f": {detail}" if detail else ""))

    # Per-fixture expectations -----------------------------------------
    fixture_rules = set()
    for path in sorted(fixtures_src.rglob("*")):
        if path.suffix not in (".cc", ".hh"):
            continue
        rule, kind = rule_of(path)
        if rule is None:
            failures.append(f"unlabeled fixture: {path.name}")
            continue
        rel = path.relative_to(fixtures_src)
        rc, out, err = run_analyzer(
            args.analyzer, ["--root", fixtures_src, path])
        if kind == "trigger":
            if rule != "not-in-db":
                fixture_rules.add(rule)
                expect(f"{rel}: exits 1 and reports [{rule}]",
                       rc == 1 and f"[{rule}]" in out,
                       f"rc={rc} out={out!r}")
            else:
                # Scanned without a DB, its violation must show.
                expect(f"{rel}: flagged when no compile DB is given",
                       rc == 1 and "[unseeded-rng]" in out,
                       f"rc={rc} out={out!r}")
        else:
            expect(f"{rel}: clean (near-misses and waivers)",
                   rc == 0, f"rc={rc} out={out!r}")

    # Whole-tree run: every trigger rule fires at once ------------------
    rc, out, err = run_analyzer(args.analyzer,
                                ["--root", fixtures_src, fixtures_src])
    expect("whole tree exits 1", rc == 1, f"rc={rc}")
    for rule in sorted(fixture_rules):
        expect(f"whole tree reports [{rule}]", f"[{rule}]" in out,
               out)

    # Compile-DB filtering: the excluded TU disappears ------------------
    rc, out, err = run_analyzer(
        args.analyzer,
        ["--root", fixtures_src, "--compile-db", db, fixtures_src])
    expect("compile DB skips not_in_db_trigger.cc",
           "not_in_db_trigger" not in out, out)
    expect("compile DB run still fails on the remaining triggers",
           rc == 1, f"rc={rc}")

    # Usage errors -------------------------------------------------------
    rc, out, err = run_analyzer(args.analyzer,
                                ["--rules", "no-such-rule",
                                 fixtures_src / "mem" /
                                 "raw_new_trigger.cc"])
    expect("unknown rule name is a usage error (exit 2)", rc == 2,
           f"rc={rc}")

    print(f"check_fixtures: {checked} checks, "
          f"{len(failures)} failure(s)")
    for f in failures:
        print(f"  FAIL {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
