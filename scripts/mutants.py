"""Hand mutants of bibagree's rules, each run against the Tier-1 tests.

A mutant is one edit: a file of the repository, a text that occurs in it
exactly once, and the text that replaces it. For each mutant in turn the
repository is copied to a temporary directory, the edit is applied to the
copy, and Tier-1 runs there with -x in one child process whose wall time
and address space are limited (the limits apply to that child and the
processes it starts, not to this one). The unedited copy runs first and
must pass. A mutant is killed when a test fails, survives when every test
passes, and is stopped when its child meets a limit (TIMEOUT_S wall
seconds, or MEMORY_MIB of address space when a test raises MemoryError).
A child that ends with another pytest status, or by a signal, is an error.

    python scripts/mutants.py                      # every mutant
    python scripts/mutants.py --only NAME --repeat 4
    python scripts/mutants.py --check              # each old text occurs once

The exit status is 0 when every mutant run is killed (with --check: when
every old text occurs exactly once), and 1 otherwise: a mutant that
survives, is stopped or ends in an error is not shown to be caught.
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors"]
TIMEOUT_S = 300  # wall seconds per Tier-1 run
MEMORY_MIB = 2048  # address space per Tier-1 run


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str


TABLE, CORPUS = "src/bibagree/table.py", "src/bibagree/corpus.py"
MUTANTS = [
    # The statistics rules of table._statistics and the replicate path.
    Mutant(
        "publication-level MAPD",
        TABLE,
        "                    if level != LEVEL_INSTITUTION:\n                        continue\n",
        "                    if level != LEVEL_INSTITUTION:\n"
        "                        lines = _fit(np.take(pub_all, copies, axis=1), True)\n",
    ),
    Mutant("zero variance not skipped", TABLE, "elif lines.var[i] == 0.0:", "elif False:"),
    Mutant("too few units at MIN_POINTS", TABLE, "if n_unit >= MIN_POINTS", "if n_unit > MIN_POINTS"),
    Mutant("too few publications at MIN_POINTS", TABLE, "if n_pub >= MIN_POINTS", "if n_pub > MIN_POINTS"),
    Mutant("MAPD of a zero unit score", TABLE, "y_unit[y_unit <= 0]", "y_unit[y_unit < 0]"),
    Mutant(
        "skip reasons swapped",
        TABLE,
        "too_few_points(area_id, metric, n), None\n"
        "                elif lines.var[i] == 0.0:\n"
        "                    yield key, n, None, zero_variance(area_id, metric), None\n",
        "zero_variance(area_id, metric), None\n"
        "                elif lines.var[i] == 0.0:\n"
        "                    yield key, n, None, too_few_points(area_id, metric, n), None\n",
    ),
    Mutant("copies repeated only when every count differs from 1", TABLE, "if (counts != 1).any():", "if (counts != 1).all():"),
    Mutant(
        "unstable merge of reassigned entries",
        TABLE,
        'np.argsort(np.concatenate((row[keep], ref_row[new])), kind="stable")',
        "np.argsort(np.concatenate((row[keep], ref_row[new])))",
    ),
    # The one pub_id order and its readers.
    Mutant(
        "clash names a run's last row",
        CORPUS,
        "i = repeats[by_pub_id[repeats].argmin()]",
        "i = repeats[by_pub_id[repeats].argmax()]",
    ),
    Mutant(
        "clash names the first row of the run's last pair",
        CORPUS,
        "return int(by_pub_id[i]), int(by_pub_id[i - 1])",
        "return int(by_pub_id[i]), int(by_pub_id[repeats[ranked[repeats] == ranked[i]].max() - 1])",
    ),
    Mutant(
        "pub_ids ranked by numpy's string argsort",
        CORPUS,
        'values["by_pub_id"] = np.fromiter(sorted(range(n), key=self.pub_id.__getitem__), dtype=np.intp, count=n)',
        'values["by_pub_id"] = np.argsort(np.array(self.pub_id))',
    ),
    Mutant(
        "sample walks file order",
        "src/bibagree/resampling.py",
        "for row in columns.by_pub_id.tolist():",
        "for row in range(len(columns)):",
    ),
    Mutant(
        "indicator view pairs ids in file order",
        "src/bibagree/indicators.py",
        "map(columns.pub_id.__getitem__, columns.by_pub_id.tolist())",
        "columns.pub_id",
    ),
]


def check(mutants: list[Mutant]) -> list[str]:
    """The mutants whose old text does not occur exactly once in its file."""
    faults = []
    for m in mutants:
        count = (ROOT / m.file).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            faults.append(f"{m.name}: old text occurs {count} times in {m.file}")
    return faults


def run_tier1(tree: Path) -> tuple[str, float, str]:
    """Run Tier-1 in tree: its verdict ("passed", "failed", "stopped (time)",
    "stopped (memory)" or "error N", N negative for a signal), its wall time
    and its first failure."""
    memory_bytes = MEMORY_MIB * 2**20
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    log_path = tree / "tier1.log"
    start = time.perf_counter()
    with open(log_path, "w") as log:
        # A session of its own, so that a child stopped at the time limit, or
        # when this process is interrupted, takes the processes it started.
        child = subprocess.Popen(
            TIER1, cwd=tree, env=env, stdout=log, stderr=subprocess.STDOUT,
            preexec_fn=partial(resource.setrlimit, resource.RLIMIT_AS, (memory_bytes, memory_bytes)),
            start_new_session=True,
        )
        try:
            code = child.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
    seconds = time.perf_counter() - start
    log = log_path.read_text(errors="replace")
    first = next((line for line in log.splitlines() if line.startswith(("FAILED ", "ERROR "))), "")
    if code is None:
        verdict = "stopped (time)"
    elif "MemoryError" in log:
        verdict = "stopped (memory)"
    else:
        verdict = {0: "passed", 1: "failed"}.get(code, f"error {code}")
    return verdict, seconds, first


def copy_tree(to: Path) -> Path:
    tree = to / "repo"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__", "_out"))
    return tree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="only check that each old text occurs exactly once")
    parser.add_argument("--only", action="append", default=[], help="run the mutant of this name (repeatable)")
    parser.add_argument("--repeat", type=int, default=1, help="runs of each mutant (default 1)")
    args = parser.parse_args(argv)

    faults = check(MUTANTS)
    for fault in faults:
        print(fault, file=sys.stderr)
    if args.check or faults:
        if not faults:
            print(f"{len(MUTANTS)} mutants, each old text found exactly once")
        return 1 if faults else 0
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    unknown = set(args.only) - {m.name for m in chosen}
    if unknown:
        parser.error(f"no mutant named {sorted(unknown)}")

    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        verdict, seconds, first = run_tier1(copy_tree(Path(scratch)))
        print(f"{'unedited':<18} {seconds:7.1f} s  {verdict} {first}", flush=True)
        if verdict != "passed":
            print("the unedited copy must pass under the limits", file=sys.stderr)
            return 1
        shutil.rmtree(Path(scratch) / "repo")
        verdicts = []
        for m in chosen:
            for _ in range(args.repeat):
                tree = copy_tree(Path(scratch))
                target = tree / m.file
                target.write_text(target.read_text(encoding="utf-8").replace(m.old, m.new), encoding="utf-8")
                verdict, seconds, first = run_tier1(tree)
                shutil.rmtree(tree)
                outcome = {"failed": "killed", "passed": "survived"}.get(verdict, verdict)
                verdicts.append(outcome)
                print(f"{outcome:<18} {seconds:7.1f} s  {m.name}  {first}", flush=True)
    print(", ".join(f"{verdicts.count(v)} {v}" for v in dict.fromkeys(verdicts)))
    return 0 if set(verdicts) == {"killed"} else 1


if __name__ == "__main__":
    sys.exit(main())
