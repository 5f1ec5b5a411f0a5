"""Output checks for the end-to-end search benchmark.

Every check here is computed apart from the program: from the candidate
stream the round replayed with a fresh generator (ids and fingerprints from
search::fingerprint_of), from the journal records it read back through the
store's public API, and from the method's documented rules. None compares
against a stored copy of an earlier run's output.

check_round(report) returns a list of problems (empty when the round is
correct); check_rounds_agree(reports) compares the rounds of one run.
"""

import math

# search::CandidateEventType bit positions in a round's "events" string.
EVENT_BITS = {"entered": 0, "out_of_shard": 1, "cache_hit": 2, "failed": 3,
              "probed": 4, "early_stopped": 5, "trained": 6}

STAGE_TRAINED = 2


def probe_score(rewards):
    """The documented selection key: the mean of the last max(n/4, 4) probe
    rewards; an empty or NaN curve ranks last."""
    if not rewards:
        return -1e9
    k = max(len(rewards) // 4, 4)
    tail = rewards[-k:] if len(rewards) > k else rewards
    score = sum(tail) / len(tail)
    return -1e9 if math.isnan(score) else score


def events_at(report, position):
    text = report["events"]
    if 2 * position + 2 > len(text):
        return 0
    return int(text[2 * position:2 * position + 2], 16)


def select(stream, records, top):
    """The benchmark's own selection: the top `top` stream positions whose
    candidate was probed, by probe score (highest first), ties by position."""
    probed = [p for p, (_, fp) in enumerate(stream)
              if records.get(fp, {}).get("early_probed")]
    probed.sort(key=lambda p: (-probe_score(records[stream[p][1]]["early_rewards"]), p))
    return probed[:top]


def index_records(rows):
    return {r["fp"]: r for r in rows}


def designs_ranked(report):
    """Distinct fingerprints among the ranked (fully trained) designs."""
    return len({row["fingerprint"] for row in report.get("ranking", [])})


def check_round(report):
    problems = []
    fail = problems.append
    if report.get("error"):
        fail(f"the search raised: {report['error']}")
    if "ranking" not in report:
        fail("no ranking")
        return problems
    cfg = report["config"]
    result = report["result"]
    evidence = report["evidence"]
    stream = evidence["stream"]
    n = int(cfg["num_candidates"])
    top = int(cfg["full_train_top"])
    window = int(cfg["window_size"]) or n
    supervised = "supervisor" in report
    resume = report["workload"] == "abr-state-resume"

    # Journal records by path; evidence lists them in report["journals"] order.
    journals = dict(zip(report["journals"], evidence["journals"]))
    if supervised:
        records = index_records(journals[report["supervisor"]["merged_journal"]])
    else:
        (only,) = journals.values()
        records = index_records(only)

    if len(stream) != n:
        fail(f"stream replay holds {len(stream)} positions, expected {n}")
    if int(result["n_total"]) != n:
        fail(f"n_total {result['n_total']} != {n}")

    # Every stream position is accounted for: its journal record says it
    # was rejected by a pre-check or probed, and an event (failed, probed,
    # or served from the journal) names it, unless an earlier position of
    # its window carries the same fingerprint (an in-window clone, which
    # copies its leader's result without an event).
    compiled = normalized = 0
    first_in_window = {}
    for p, (cid, fp) in enumerate(stream):
        rec = records.get(fp)
        if rec is None:
            fail(f"position {p} ({cid}): no journal record for {fp}")
            continue
        compiled += bool(rec["compiled"])
        normalized += bool(rec["compiled"] and rec["normalized"])
        rejected = not (rec["compiled"] and rec["normalized"])
        if not rejected and not rec["early_probed"] and rec["stage"] < 1:
            fail(f"position {p} ({cid}): passed the pre-checks but was never probed")
        bits = events_at(report, p)
        leader = first_in_window.setdefault((p // window, fp), p)
        seen = bits & ((1 << EVENT_BITS["failed"]) | (1 << EVENT_BITS["probed"]) |
                       (1 << EVENT_BITS["cache_hit"]))
        if not seen and leader == p:
            fail(f"position {p} ({cid}): no failed, probed or cache-hit event")
        if bits & (1 << EVENT_BITS["probed"]) and not rec["early_probed"]:
            fail(f"position {p} ({cid}): probed event but the journal holds no probe")
        if bits & (1 << EVENT_BITS["failed"]) and not rejected and rec["early_probed"]:
            fail(f"position {p} ({cid}): failed event but the journal holds a probe")
    if int(result["n_compiled"]) != compiled:
        fail(f"n_compiled {result['n_compiled']} != {compiled} from the journal")
    if int(result["n_normalized"]) != normalized:
        fail(f"n_normalized {result['n_normalized']} != {normalized} from the journal")

    # Work executed: a cold run probes each distinct probed design once; a
    # resume and a supervised merge pass probe nothing (the journal, or the
    # lease workers, did).
    distinct_probed = len({fp for _, fp in stream
                           if records.get(fp, {}).get("early_probed")})
    expected_probes = 0 if (resume or supervised) else distinct_probed
    if int(result["n_probes_run"]) != expected_probes:
        fail(f"n_probes_run {result['n_probes_run']} != {expected_probes}")
    if resume and int(result["n_full_trains_run"]) != 0:
        fail(f"resume ran {result['n_full_trains_run']} full trainings, expected 0")

    # The fully trained set is the benchmark's own selection.
    selection = select(stream, records, top)
    program_selected = sorted(int(row[0]) for row in result["selected"])
    if program_selected != sorted(selection):
        fail(f"selected positions {program_selected} != benchmark selection "
             f"{sorted(selection)}")
    trained = sorted(int(row[0]) for row in result["selected"] if row[2])
    if trained != program_selected:
        fail(f"selected positions {program_selected} but only {trained} fully trained")

    # The ranking: every trained design once, sorted by test score with
    # ties by stream position, fingerprints matching the replay, scores
    # matching the journal's trained records.
    ranking = report["ranking"]
    positions = [int(row["position"]) for row in ranking]
    if sorted(positions) != trained:
        fail(f"ranking positions {sorted(positions)} != trained {trained}")
    keys = [(-row["score"], int(row["position"])) for row in ranking]
    if keys != sorted(keys):
        fail("ranking is not sorted by test score, ties by stream position")
    if [int(row["rank"]) for row in ranking] != list(range(1, len(ranking) + 1)):
        fail("ranking ranks are not 1..n")
    for row in ranking:
        p = int(row["position"])
        if p >= len(stream):
            fail(f"ranked position {p} outside the stream")
            continue
        cid, fp = stream[p]
        if row["fingerprint"] != fp or row["id"] != cid:
            fail(f"rank {row['rank']}: ({row['id']}, {row['fingerprint']}) != "
                 f"replayed ({cid}, {fp}) at position {p}")
        rec = records.get(fp)
        if rec is None or rec["stage"] != STAGE_TRAINED or not rec["fully_trained"]:
            fail(f"rank {row['rank']}: no trained journal record for {fp}")
        elif rec["test_score"] != row["score"]:
            fail(f"rank {row['rank']}: score {row['score']} != journal {rec['test_score']}")
    if ranking and int(result["best_position"]) != int(ranking[0]["position"]):
        fail(f"best_position {result['best_position']} is not rank 1")

    # The ranking the benchmark derives from the journal alone: the
    # selection, ordered by the trained records' scores.
    derived = sorted(selection, key=lambda p: (-records[stream[p][1]]["test_score"]
                                               if stream[p][1] in records else 0, p))
    if positions != derived:
        fail(f"ranking positions {positions} != derived from the journal {derived}")

    baseline = result["baseline_score"]
    if not isinstance(baseline, (int, float)) or not math.isfinite(baseline):
        fail(f"baseline score {baseline} is not finite")

    if supervised:
        problems += check_supervised(report, stream, journals)
    return problems


def check_supervised(report, stream, journals):
    problems = []
    sup = report["supervisor"]
    if not sup["success"]:
        problems.append("supervisor reported failure")
    for key in ("crash_restarts", "stale_kills", "splits"):
        if int(sup[key]) != 0:
            problems.append(f"supervisor {key} = {sup[key]:.0f}, expected 0")
    if int(sup["leases_completed"]) != int(sup["leases_planned"]):
        problems.append(f"{sup['leases_completed']:.0f} of "
                        f"{sup['leases_planned']:.0f} leases completed")
    # Each candidate is journaled by exactly one lease.
    owners = {}
    for path in sup["lease_journals"]:
        for rec in journals.get(path, []):
            owners.setdefault(rec["fp"], []).append(path)
    for fp in {fp for _, fp in stream}:
        count = len(owners.get(fp, []))
        if count != 1:
            problems.append(f"{fp} journaled by {count} leases, expected 1")
    return problems


def ranking_key(report):
    return [(row["position"], row["id"], row["fingerprint"], row["score"])
            for row in report.get("ranking", [])]


def check_rounds_agree(reports):
    """Traced and untraced rounds (and repeated rounds) rank identically."""
    problems = []
    first = ranking_key(reports[0])
    for i, report in enumerate(reports[1:], start=1):
        if ranking_key(report) != first:
            kind = "traced" if report["trace"] else "untraced"
            problems.append(f"round {i} ({kind}) ranks differently from round 0")
    return problems
