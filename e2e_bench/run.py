#!/usr/bin/env python3
"""End-to-end search benchmark: runs one workload for a fixed time and prints
its metrics.

    python3 e2e_bench/run.py --workload abr-state-stream --seed 1 \
        --seconds 20 --trace 0

Builds the program from this checkout (cmake, into $CARGO_TARGET_DIR or
.bench_build), then runs whole rounds of the workload, each a fresh
`e2e_round` process, until --seconds have passed. Every round's outputs are
checked against computations made here, apart from the program (checks.py).
The last line of stdout is one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}, ...}}

--trace 0 reports the end-to-end metrics (medians over the rounds);
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones, plus obs.trace_overhead_s, the difference
between the two kinds of round. See e2e_bench/README.md.

Extra modes (not used by the timed runs):
    --quick            tiny workload sizes (the self-test uses them)
    --equivalence      cc-state-supervised only: also run the same search in
                       one shard_worker process and diff the two rankings
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["abr-state-stream", "cc-arch-train", "abr-state-resume",
             "cc-state-supervised"]


def metric_units(section):
    """name -> unit of BENCHMARK.json's end_to_end or per_layer metrics, in
    the file's order: the metrics a run reports with --trace 0 and 1."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def child_env():
    """The environment of every child: no NADA_* knob, so the program's
    defaults are what gets measured, and temporary files (the compiler's)
    inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("NADA_")}
    env["TMPDIR"] = os.path.join(build_dir(), "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds e2e_round plus shard_worker. Returns the
    e2e_round path; raises on failure."""
    out = build_dir()
    env = child_env()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, env=env, stdout=sys.stderr,
                       stderr=sys.stderr)
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs,
                    "--target", "e2e_round"],
                   check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "e2e_round")


def run_child(argv, timeout):
    """Runs one child to completion; its output goes to stderr."""
    proc = subprocess.run(argv, env=child_env(), stdout=sys.stderr,
                          stderr=sys.stderr, timeout=timeout, cwd=ROOT)
    return proc.returncode


def journal_mb(report):
    """Journals plus their .idx sidecars (binary format), in MB."""
    paths = [p for path in report["journals"] for p in (path, path + ".idx")]
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p)) / 1e6


def end_to_end(report):
    search_s = report["search_s"]
    return {
        "setup_s": report["setup_s"],
        "search_s": search_s,
        "candidates_per_s": report["result"]["n_total"] / search_s,
        "cpu_s": report["cpu_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "journal_mb": journal_mb(report),
    }


def median_of(rows, name):
    return statistics.median(row[name] for row in rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--equivalence", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return run(args, binary, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, binary, work):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.quick:
        common.append("--quick")

    prep_dir = None
    if args.workload == "abr-state-resume":
        prep_dir = os.path.join(work, "prepared")
        summary = os.path.join(work, "prepared.json")
        t0 = time.monotonic()
        if run_child([binary, "prepare", *common, "--dir", prep_dir,
                      "--out", summary], timeout=170) != 0:
            log("writing the resume journal failed")
            return 1
        prep = json.load(open(summary))
        # Printed, and counted in neither setup_s nor search_s.
        print(f"resume journal: {prep['records']:.0f} records for "
              f"{prep['positions']:.0f} stream positions "
              f"({prep['checked_only']:.0f} checked only, "
              f"{prep['probed']:.0f} probed, {prep['trained']:.0f} trained) "
              f"written in {time.monotonic() - t0:.3f} s")

    rounds = []
    evidence_cache = {}
    failures = []
    attempted = 0
    failed = 0
    start = time.monotonic()
    index = 0
    # Whole rounds until the time is up; a traced run needs one round of
    # each kind, an untraced run at least one.
    while True:
        elapsed = time.monotonic() - start
        kinds = {r["trace"] for r in rounds}
        need = {0, 1} if args.trace else {0}
        if elapsed >= args.seconds and need <= kinds:
            break
        traced = bool(args.trace) and index % 2 == 1
        round_dir = os.path.join(work, f"round-{index}")
        os.makedirs(round_dir)
        if prep_dir is not None:
            for name in os.listdir(prep_dir):
                shutil.copy(os.path.join(prep_dir, name), round_dir)
        out = os.path.join(work, f"round-{index}.json")
        code = run_child([binary, "round", *common,
                          "--trace", "1" if traced else "0",
                          "--dir", round_dir, "--out", out], timeout=170)
        if code != 0 or not os.path.exists(out):
            log(f"round {index} exited with code {code}")
            return 1
        report = json.load(open(out))
        report["evidence"] = evidence(binary, common, report["journals"],
                                      work, evidence_cache)
        problems = checks.check_round(report)
        log(f"round {index} ({'traced' if traced else 'untraced'}): "
            f"setup {report['setup_s']:.4f} s, search {report['search_s']:.3f} s, "
            f"cpu {report['cpu_s']:.3f} s, {len(problems)} check failures")
        row = {"trace": int(traced), "report": report,
               "e2e": end_to_end(report)}
        rounds.append(row)
        attempted += int(report["steps_attempted"])
        failed += min(int(report["steps_attempted"]),
                      int(report["steps_failed"]) + len(problems))
        for p in problems:
            failures.append(f"round {index} ({'traced' if traced else 'untraced'}): {p}")
        shutil.rmtree(round_dir, ignore_errors=True)
        os.remove(out)
        index += 1

    # Run-level checks count as failed operations too.
    later = checks.check_rounds_agree([r["report"] for r in rounds])
    if args.equivalence:
        later += equivalence(args, binary, rounds[0]["report"], work)
    failures += later
    failed = min(attempted, failed + len(later))
    for f in failures:
        log("CHECK FAILED:", f)

    untraced = [r["e2e"] for r in rounds if r["trace"] == 0]
    if args.trace:
        units = metric_units("per_layer")
        total = lambda rows: statistics.median(
            x["setup_s"] + x["search_s"] for x in rows)
        traced = [r for r in rounds if r["trace"] == 1]
        rows = [dict(r["report"]["layers"],
                     **{"search.designs_ranked": checks.designs_ranked(r["report"])})
                for r in traced]
        values = {name: median_of(rows, name) for name in units
                  if name != "obs.trace_overhead_s"}
        values["obs.trace_overhead_s"] = (total([r["e2e"] for r in traced]) -
                                          total(untraced))
    else:
        units = metric_units("end_to_end")
        values = {name: median_of(untraced, name) for name in units}

    env = rounds[0]["report"]["environment"]
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds "
          f"({len(untraced)} untraced) in {time.monotonic() - start:.1f} s; "
          f"kernel {env['kernel_flavor']}, store {env['store_format']}, "
          f"nproc {env['nproc']:.0f}, {env['compiler']}")
    print("config:", json.dumps(rounds[0]["report"]["config"], sort_keys=True))
    for name, unit in units.items():
        print(f"{name:28s} {values[name]:>16.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def evidence(binary, common, journals, work, cache):
    """What a round's outputs are checked against: the stream replayed by a
    fresh generator plus the journals' records (e2e_round evidence). It is
    a function of the seed and the journals' bytes alone, so rounds whose
    journals are byte-identical to an earlier round's share its evidence."""
    digest = hashlib.sha256()
    for path in journals:
        digest.update(os.path.basename(path).encode() + b"\0")
        if os.path.exists(path):
            with open(path, "rb") as f:
                for block in iter(lambda: f.read(1 << 20), b""):
                    digest.update(block)
        digest.update(b"\0")
    key = digest.hexdigest()
    if key not in cache:
        out = os.path.join(work, "evidence.json")
        if run_child([binary, "evidence", *common, "--journals",
                      ",".join(journals), "--out", out], timeout=170) != 0:
            raise RuntimeError("collecting evidence failed")
        cache[key] = json.load(open(out))
        os.remove(out)
    return cache[key]


def equivalence(args, binary, report, work):
    """Runs the supervised search's definition in one shard_worker process
    (`--mode single`) and diffs its RANK lines against the supervised
    round's ranking."""
    if args.workload != "cc-state-supervised":
        return ["--equivalence applies to cc-state-supervised only"]
    worker = os.path.join(os.path.dirname(binary), "tools", "shard_worker")
    cfg = report["config"]
    argv = [worker, "--mode", "single", "--domain", cfg["domain"],
            "--search", cfg["kind"],
            "--candidates", str(int(cfg["num_candidates"])),
            "--seed", str(int(cfg["job_seed"])),
            "--gen-seed", str(int(cfg["gen_seed"])),
            "--window", str(int(cfg["window_size"])), "--quiet",
            "--store-dir", os.path.join(work, "single")]
    log("equivalence:", " ".join(argv))
    out = subprocess.run(argv, env=child_env(), capture_output=True,
                         text=True, timeout=170, cwd=ROOT)
    if out.returncode != 0:
        return [f"single-process run exited with code {out.returncode}"]
    single = [line.split(",")[2:4] for line in out.stdout.splitlines()
              if line.startswith("RANK,")]
    supervised = [[row["id"], row["fingerprint"]] for row in report["ranking"]]
    if single != supervised:
        return [f"single-process ranking {single} != supervised {supervised}"]
    print(f"equivalence: single-process ranking matches ({len(single)} designs)")
    return []


if __name__ == "__main__":
    sys.exit(main())
