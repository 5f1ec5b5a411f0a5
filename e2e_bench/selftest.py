#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 e2e_bench/selftest.py

1. Quick mode: every workload runs at its tiny size through run.py, traced
   (so both an untraced and a traced round run and must rank identically),
   and must report correct with no failed operation.
2. Negative tests: the checks must reject a tampered ranking (two rows
   swapped; a fingerprint changed) and a tampered journal record (a probe
   curve raised so the journal selects a design the program did not train).

Exits 0 when every test passes. Uses the same build as run.py.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import checks
import run

WORK = os.path.join(run.ROOT, ".bench_work", f"selftest-{os.getpid()}")


def quick_runs():
    failures = []
    for workload in run.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"),
             "--workload", workload, "--seed", "7", "--seconds", "0",
             "--trace", "1", "--quick"],
            capture_output=True, text=True, cwd=run.ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        ok = (result is not None and result["correct"] and result["failed"] == 0
              and result["attempted"] > 0)
        print(f"quick {workload}: {'ok' if ok else 'FAILED'}")
        if not ok:
            failures.append(f"quick {workload}: exit {proc.returncode}\n"
                            f"{proc.stderr[-2000:]}")
    return failures


def quick_round(binary, workload):
    """One untraced quick round with its evidence; returns the report."""
    common = ["--workload", workload, "--seed", "7", "--quick"]
    round_dir = os.path.join(WORK, workload)
    out = os.path.join(WORK, f"{workload}.json")
    if run.run_child([binary, "round", *common, "--trace", "0",
                      "--dir", round_dir, "--out", out], timeout=300) != 0:
        raise RuntimeError(f"{workload} round failed")
    report = json.load(open(out))
    report["evidence"] = run.evidence(binary, common, report["journals"], WORK, {})
    return report, common


def expect_rejected(name, problems):
    ok = bool(problems)
    print(f"negative {name}: {'rejected' if ok else 'NOT REJECTED'}"
          + (f" ({problems[0]})" if ok else ""))
    return [] if ok else [f"checks accepted {name}"]


def negative_tests(binary):
    failures = []
    report, common = quick_round(binary, "abr-state-stream")
    baseline = checks.check_round(report)
    if baseline:
        return [f"untampered round fails its checks: {baseline}"]
    if len(report["ranking"]) < 2:
        return ["quick round ranked fewer than two designs"]

    swapped = copy.deepcopy(report)
    swapped["ranking"][0], swapped["ranking"][1] = (swapped["ranking"][1],
                                                    swapped["ranking"][0])
    failures += expect_rejected("ranking with two rows swapped",
                                checks.check_round(swapped))

    renamed = copy.deepcopy(report)
    fp = renamed["ranking"][0]["fingerprint"]
    renamed["ranking"][0]["fingerprint"] = fp[::-1]
    failures += expect_rejected("ranking with a changed fingerprint",
                                checks.check_round(renamed))

    # Journal tamper: raise the probe curve of a probed design the program
    # did not select, in the journal file itself, then re-read the journal
    # through the store like any round's evidence.
    (path,) = report["journals"]
    if not path.endswith(".jsonl"):
        return failures + [f"journal tamper needs a JSONL journal, got {path}"]
    selected = {int(row[0]) for row in report["result"]["selected"]}
    stream = report["evidence"]["stream"]
    chosen = {stream[p][1] for p in selected}
    lines = open(path).read().splitlines()
    target = None
    for i, line in enumerate(lines):
        rec = json.loads(line)
        if rec.get("early_probed") and rec["fp"] not in chosen:
            rec["early_rewards"] = [1e6] * len(rec["early_rewards"])
            lines[i] = json.dumps(rec, separators=(",", ":"), sort_keys=True)
            target = rec["fp"]
            break
    if target is None:
        return failures + ["no unselected probed record to tamper with"]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    tampered = dict(report)
    tampered["evidence"] = run.evidence(binary, common, report["journals"], WORK, {})
    failures += expect_rejected("journal record with a raised probe curve",
                                checks.check_round(tampered))
    return failures


def main():
    binary = run.build()
    os.makedirs(WORK, exist_ok=True)
    try:
        failures = quick_runs() + negative_tests(binary)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for f in failures:
        print("FAILED:", f)
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
