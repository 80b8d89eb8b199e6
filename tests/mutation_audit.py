"""Operator mutation audit: which tier-1 tests kill each mutant of src/ctasim.

A mutant swaps one binary operator outside an f-string: < and <=, > and >=,
== and !=, + and -, * and /, and and or.  For each mutant the whole tier-1
suite runs once, without -x, in a scratch copy of the repository, and the
ids of the tests that fail are read from its --junitxml report.  The copy's
conftest loads a hypothesis profile that draws the same examples on every
run and neither shrinks nor keeps a database, so a kill does not depend on
the run before it.  The unmutated suite must pass first.

    python3 tests/mutation_audit.py

Standard library only, no options; two suites run at a time (about 27
minutes for 229 mutants on a 2-vCPU host).  Prints one line per mutant and
a total, then the cases that fail for some mutant but are never its only
failing case: each mutant such a case kills, another case kills too.  Each
is a candidate for deletion on its own; two of them can share a mutant no
other case kills, so run the audit again after deleting any.  Writes the
kill matrix (mutant -> failing test ids) as JSON to a temporary directory,
whose path it prints last.
"""

import ast
import json
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "ctasim")
WORKERS = 2
SWAP = {ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=", ast.GtE: ">", ast.Eq: "!=", ast.NotEq: "==",
        ast.Add: "-", ast.Sub: "+", ast.Mult: "/", ast.Div: "*", ast.And: "or", ast.Or: "and"}
PROFILE = """
from hypothesis import Phase, settings
settings.register_profile("mutation-audit", derandomize=True, database=None,
                          phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("mutation-audit")
"""


def mutants(path):
    """(line, col, old, new) for each operator of the file at ``path``; col
    counts characters, as str indexing does."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    tree = ast.parse("".join(lines))
    in_fstring = {id(m) for n in ast.walk(tree) if isinstance(n, ast.JoinedStr)
                  for m in ast.walk(n)}
    pairs = []  # (operator, the operand it follows)
    for n in ast.walk(tree):
        if id(n) in in_fstring:
            continue
        if isinstance(n, ast.BinOp):
            pairs.append((n.op, n.left))
        elif isinstance(n, ast.Compare):
            pairs += zip(n.ops, [n.left, *n.comparators])
        elif isinstance(n, ast.BoolOp):
            pairs += ((n.op, v) for v in n.values[:-1])
    ends = {}
    for op, left in pairs:
        if type(op) in SWAP:
            line = lines[left.end_lineno - 1].encode()
            ends[(left.end_lineno, len(line[:left.end_col_offset].decode()))] = SWAP[type(op)]
    # The operator is the first token after its left operand's closing parentheses.
    found, after = [], None
    with path.open(encoding="utf-8") as f:
        for tok in tokenize.generate_tokens(f.readline):
            if after is not None and tok.type not in (tokenize.NL, tokenize.COMMENT):
                if tok.string != ")":
                    found.append((*tok.start, tok.string, after))
                    after = None
                    continue
            after = ends.pop(tok.end, after)
    assert not ends and len(found) == len(set(found)), path
    return found


def failing_ids(report):
    """The ids, class::name, of the failed and errored cases in a junit report."""
    return sorted(f"{case.get('classname')}::{case.get('name')}"
                  for case in ET.parse(report).iter("testcase")
                  if case.find("failure") is not None or case.find("error") is not None)


def run_suite(copy, timeout):
    """Run tier-1 in ``copy``; the failing ids, or ["<timeout>"] or ["<no report>"]."""
    report = copy / "junit.xml"
    report.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # a swap of equal length must not reuse a stale .pyc
    try:
        subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                        f"--junitxml={report}"], cwd=copy, env=env, timeout=timeout,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return ["<timeout>"]
    return failing_ids(report) if report.exists() else ["<no report>"]


def main():
    work = Path(tempfile.mkdtemp(prefix="ctasim-mutation-audit-"))
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
    copies = queue.Queue()
    for k in range(WORKERS):
        copy = work / f"copy{k}"
        shutil.copytree(ROOT, copy, ignore=ignore)
        with (copy / "tests" / "conftest.py").open("a", encoding="utf-8") as f:
            f.write(PROFILE)
        copies.put(copy)
    todo = [(p.name, m) for p in sorted((ROOT / PACKAGE).glob("*.py")) for m in mutants(p)]
    print(f"{len(todo)} mutants of {PACKAGE}", flush=True)

    start = time.monotonic()
    base = run_suite(work / "copy0", timeout=3600)
    if base:
        sys.exit(f"the unmutated suite fails: {base}")
    timeout = max(120.0, 10 * (time.monotonic() - start))

    def run(item):
        name, (line, col, old, new) = item
        copy = copies.get()
        path = copy / PACKAGE / name
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines(keepends=True)
        text = lines[line - 1]
        lines[line - 1] = text[:col] + new + text[col + len(old):]
        try:
            path.write_text("".join(lines), encoding="utf-8")
            return item, run_suite(copy, timeout)
        finally:
            path.write_text(source, encoding="utf-8")
            copies.put(copy)

    matrix = {}
    with ThreadPoolExecutor(WORKERS) as pool:
        for (name, (line, col, old, new)), ids in pool.map(run, todo):
            key = f"{name}:{line}:{col} {old} -> {new}"
            matrix[key] = ids
            print(f"{'killed' if ids else 'SURVIVED':8}  {key}  ({len(ids)} failing)",
                  flush=True)
    survived = [key for key, ids in matrix.items() if not ids]
    print(f"{len(matrix)} mutants: {len(matrix) - len(survived)} killed, "
          f"{len(survived)} survived")
    only = {ids[0] for ids in matrix.values() if len(ids) == 1}
    # "::module" is a module that pytest failed to collect, not a case.
    cases = {i for ids in matrix.values() for i in ids if not i.startswith("::")}
    shared = sorted(cases - only)
    print(f"{len(shared)} cases fail for some mutant, never as its only failing case:")
    for case in shared:
        print(f"  {case}")
    for k in range(WORKERS):
        shutil.rmtree(work / f"copy{k}")
    out = work / "matrix.json"
    out.write_text(json.dumps(matrix, indent=1) + "\n", encoding="utf-8")
    print(f"kill matrix: {out}")


if __name__ == "__main__":
    main()
