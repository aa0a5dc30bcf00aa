"""Turns the raw perfbench measurements into the benchmark's metrics.

The C++ program (perfbench.cc) prints one JSON document per run; the traced
run also writes a span file. Everything here is pure computation over those
two inputs, so the unit tests can drive it with synthetic documents.
"""

import json
import math
import statistics

PAPER_BUDGET = 100_000

HUNTS = [
    "QueryAtomicFilterShadowing",
    "QueryStreamedLock",
    "QueryStreamedBackUpNewStream",
    "DeleteNoLeaveTombstonesEtag",
    "DeletePrimaryKey",
    "EnsurePartitionSwitchedFromPopulated",
    "TombstoneOutputETag",
    "QueryStreamedFilterShadowing",
    "MigrateSkipPreferOld",
    "MigrateSkipUseNewWithTombstones",
    "InsertBehindMigrator",
    "samplerepl-safety",
    "samplerepl-liveness",
    "samplerepl-node-crash",
    "vnext-liveness",
    "fabric-failover",
    "fabric-pipeline",
    "chaintable-lost-update",
]

# Hunts whose bug random search misses within the paper's budget by chance
# often enough to fail runs: QueryStreamedBackUpNewStream went unfound in 3
# of 23 seed streams (about one trigger per 50,000 executions, so a miss
# within 100,000 has a chance of about 1 in 8). Every other hunt found its
# bug within 36,000 executions on all 23; a miss of one of those is a
# failed operation.
CHANCE_MISSES = {"QueryStreamedBackUpNewStream"}

DOMAINS = ["mtable", "samplerepl", "vnext", "fabric"]

# (name, unit, better). The order is the print order.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("seconds_to_verdict", "s", "lower"),
    ("executions_per_s", "1/s", "higher"),
    ("steps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


def _timing(prefix, unit):
    return [
        (prefix + ".p50", unit, "lower"),
        (prefix + ".tail", unit, "lower"),
        (prefix + ".tail_pctl", "pctl", "lower"),
        (prefix + ".samples", "count", "higher"),
    ]


PER_LAYER = (
    [("api.resolve_ms", "ms", "lower"),
     ("core.engine.first_exec_ms", "ms", "lower")]
    + _timing("core.engine.exec_us", "us")
    + [("core.engine.gap_us.p50", "us", "lower"),
       ("core.runtime.steps_per_exec", "count", "lower"),
       ("core.runtime.step_ns", "ns", "lower"),
       ("core.runtime.harness_calls", "count", "lower"),
       ("core.runtime.harness_us", "us", "lower"),
       ("core.runtime.events_per_exec", "count", "lower"),
       ("core.strategy.decisions_per_exec", "count", "lower"),
       ("core.strategy.decision_ns", "ns", "lower")]
    + _timing("core.strategy.prepare_us", "us")
    + [("core.fingerprint.distinct_states", "count", "higher"),
       ("core.fingerprint.distinct_states_per_s", "1/s", "higher"),
       ("core.fingerprint.hit_rate", "ratio", "higher"),
       ("core.fingerprint.prune_ratio", "ratio", "higher"),
       ("core.fingerprint.compactions", "count", "lower"),
       ("core.fingerprint.runs", "count", "lower"),
       ("core.fingerprint.bloom_fp", "count", "lower"),
       ("core.fingerprint.insert_ns", "ns", "lower"),
       ("core.fingerprint.compaction_ms", "ms", "lower"),
       ("core.fingerprint.replay_compactions", "count", "higher"),
       ("core.trace.replay_ms", "ms", "lower"),
       ("corpus.added", "count", "higher"),
       ("corpus.duplicates", "count", "lower"),
       ("corpus.sampled", "count", "higher"),
       ("corpus.entries", "count", "higher"),
       ("corpus.interesting_ratio", "ratio", "higher")]
    + _timing("corpus.add_us", "us")
    + [("explore.worker_exec_per_s.min", "1/s", "higher"),
       ("explore.worker_exec_per_s.max", "1/s", "higher"),
       ("explore.imbalance", "ratio", "lower"),
       ("explore.utilization", "ratio", "higher"),
       ("obs.overhead_pct", "%", "lower")]
    + [(d + ".exec_per_s", "1/s", "higher") for d in DOMAINS]
    + [("executions_to_bug", "count", "lower"),
       ("bughunt.hunts_censored", "count", "lower")]
    + [("bug." + h + ".executions_to_bug", "count", "lower") for h in HUNTS]
    + [("trace.overhead_pct", "%", "lower"),
       ("trace.exec_share_pct", "%", "higher"),
       ("trace.count_mismatches", "count", "lower")]
)

TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0)

# bughunt's pace: the percentile of its slices' time per execution (and per
# step) that end-to-end times are costed at. A slice is 64 consecutive
# executions of one hunt (perfbench.cc, kSliceExecs), a few milliseconds.
PACE_PERCENTILE = 1.0


def percentile(values, q):
    """Nearest-rank q-th percentile (0 < q <= 100) of a non-empty list."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered) / 100.0, 9))
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def tail_percentile(count):
    """The highest percentile with at least ten samples beyond it, or 50
    (the median) when the sample is too small for any tail."""
    for q in TAIL_PERCENTILES:
        if count * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


def timing_summary(samples):
    """Median, tail value, tail percentile and sample count of a timing."""
    if not samples:
        return {"p50": 0.0, "tail": 0.0, "tail_pctl": 0.0, "samples": 0}
    q = tail_percentile(len(samples))
    return {"p50": percentile(samples, 50.0), "tail": percentile(samples, q),
            "tail_pctl": q, "samples": len(samples)}


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives
    them: the steadiness measure the benchmark's bounds are checked with."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def _ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Correctness gates and end-to-end metrics (untraced pass).

def _hunts(pass_doc):
    return [h for unit in pass_doc["hunts"] for h in unit]


def _campaigns(pass_doc):
    return [c for unit in pass_doc["campaigns"] for c in unit]


def gates(doc):
    """Returns (attempted, failed, errors) for the untraced pass."""
    plain = doc["plain"]
    errors = []
    if doc["workload"] == "bughunt":
        hunts = _hunts(plain)
        failed = 0
        for h in hunts:
            if not h["found"] and h["name"] not in CHANCE_MISSES:
                failed += 1
                errors.append("%s not found within %d executions"
                              % (h["name"], PAPER_BUDGET))
            elif h["found"] and not h["reproduced"]:
                failed += 1
                errors.append("witness of %s did not reproduce" % h["name"])
        return len(hunts), failed, errors
    campaigns = _campaigns(plain)
    failed = sum(c["violations"] for c in campaigns)
    if failed:
        errors.append("%d violations on fixed controls" % failed)
    for c in campaigns:
        if c["saturated"]:
            errors.append("visited set saturated on %s" % c["name"])
    return sum(c["executions"] for c in campaigns), failed, errors


def _pace_ns(slices, column):
    """The PACE_PERCENTILE-th percentile of the slices' ns per execution
    (column 0) or per step (column 1); a slice is [executions, steps, ns]."""
    paces = [s[2] / s[column] for s in slices if s[column]]
    return percentile(paces, PACE_PERCENTILE) if paces else 0.0


def _bughunt_work(plain):
    """(executions, steps, seconds, step-paced seconds) of one unit's fixed
    work: every hunt's reference length, at the hunt's undisturbed pace.

    A stateless hunt's executions are independent draws from one scenario,
    so its cost per execution is the same at every point of its stream and
    in every unit. The host's contention is not: it slows whole stretches
    of a run, by up to half, for seconds at a time. Each hunt's pace is
    therefore taken from the fastest slices of its reference phase, pooled
    over the run's units, and the unit's work is costed at that pace."""
    slices, reference = {}, {}
    for unit in plain["hunts"]:
        for h in unit:
            slices.setdefault(h["name"], []).extend(h["slices"])
            reference[h["name"]] = h["reference"]
    units = len(plain["hunts"])
    unit_steps = seconds = step_seconds = 0.0
    for name, pooled in slices.items():
        steps = sum(s[1] for s in pooled) / units
        unit_steps += steps
        seconds += reference[name] * _pace_ns(pooled, 0) / 1e9
        step_seconds += steps * _pace_ns(pooled, 1) / 1e9
    return sum(reference.values()), unit_steps, seconds, step_seconds


def end_to_end(doc):
    """Times and rates are over the fixed work of each unit: the
    reference-length phase of every hunt, or the whole fixed-budget
    campaign. On bughunt the rest of a hunt (searching on to the bug after
    the reference length) is seed-dependent in both length and domain mix,
    so it is left out."""
    plain = doc["plain"]
    if doc["workload"] == "bughunt":
        executions, steps, seconds, step_seconds = _bughunt_work(plain)
    else:
        # Means over all units: a campaign's cost per execution changes as
        # its visited set fills, per-unit work varies with the seed stream
        # (and, on guided, with worker interleaving), and the mean of skewed
        # unit times repeats better from run to run than their median.
        units = len(plain["campaigns"])
        executions, steps, seconds = (sum(column) / units for column in zip(
            *((c["executions"], c["steps"], c["seconds"])
              for unit in plain["campaigns"] for c in unit)))
        step_seconds = seconds
    values = {
        "setup_s": statistics.median(doc["setup_s"]),
        "seconds_to_verdict": seconds,
        "executions_per_s": _ratio(executions, seconds),
        "steps_per_s": _ratio(steps, step_seconds),
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in END_TO_END}


# ---------------------------------------------------------------------------
# Per-layer metrics (traced pass, span file, offline replays).

def read_spans(path):
    """Yields the span file's records one at a time (a traced bughunt run
    writes a few hundred thousand)."""
    with open(path) as f:
        for line in f:
            if line.strip():
                yield json.loads(line)


def _count_key(item):
    if "executions_to_bug" in item:
        return (item["name"], item["executions"], item["steps"],
                item["executions_to_bug"])
    return (item["name"], item["executions"], item["steps"],
            item["distinct_states"])


def count_mismatches(doc):
    """Serial workloads: the traced pass must reproduce the untraced pass's
    executions, steps, distinct states and bug iterations exactly."""
    if doc["workload"] == "guided":
        return 0
    get = _hunts if doc["workload"] == "bughunt" else _campaigns
    plain = [_count_key(i) for i in get(doc["plain"])]
    traced = [_count_key(i) for i in get(doc["traced"])]
    if len(plain) != len(traced):
        return max(len(plain), len(traced))
    return sum(1 for a, b in zip(plain, traced) if a != b)


def _span_layers(spans):
    """Self times and timing distributions, in one pass over the spans."""
    campaign_ns = {}
    ends = {}      # (campaign, worker) -> [(end, gap_ns)]
    workers = {}   # campaign -> worker ids
    first = {}     # unit-0 campaign -> first execution's duration
    prepare_us = []
    execs = steps = decisions = decision_ns = 0
    harness_ns = harness_calls = exec_ns = prepare_ns = 0
    for s in spans:
        if s["span"] == "campaign":
            campaign_ns[s["id"]] = s["end"] - s["start"]
        if s["span"] != "exec":
            continue
        parent = s["parent"]
        worker, iteration = s["id"].rsplit("/", 2)[1:]
        ends.setdefault((parent, worker), []).append((s["end"], s["gap_ns"]))
        workers.setdefault(parent, set()).add(worker)
        ns = s["end"] - s["start"]
        if parent.endswith("/u0") and iteration == "0":
            # The probe that builds and seals the recycled Runtime.
            first[parent] = min(first.get(parent, ns), ns)
        execs += 1
        exec_ns += ns
        prepare_ns += s["prepare_ns"]
        prepare_us.append(s["prepare_ns"] / 1e3)
        steps += s["steps"]
        decisions += s["decisions"]
        decision_ns += s["decision_ns"]
        harness_ns += s["harness_ns"]
        harness_calls += s["harness_calls"]
    # Callback spacing per engine run; gap_ns == 0 marks the first
    # execution of an engine, which has no previous callback.
    spacing, gaps = [], []
    for runs in ends.values():
        runs.sort()
        for (prev, _), (end, gap) in zip(runs, runs[1:]):
            if gap > 0:
                spacing.append((end - prev) / 1e3)
                gaps.append(gap / 1e3)
    runtime_self = exec_ns - prepare_ns - harness_ns - decision_ns
    # Each worker of a campaign spends the campaign's whole wall time.
    busy_ns = sum(ns * len(workers.get(c, ())) for c, ns in campaign_ns.items())
    return {
        "execs": execs,
        "exec_us": timing_summary(spacing),
        "gap_us_p50": percentile(gaps, 50.0) if gaps else 0.0,
        "prepare_us": timing_summary(prepare_us),
        "steps_per_exec": _ratio(steps, execs),
        "step_ns": _ratio(runtime_self, steps),
        "harness_calls": harness_calls,
        "harness_us": _ratio(harness_ns, harness_calls) / 1e3,
        "decisions_per_exec": _ratio(decisions, execs),
        "decision_ns": _ratio(decision_ns, decisions),
        "first_exec_ms": sum(first.values()) / 1e6,
        "exec_share_pct": 100.0 * _ratio(exec_ns, busy_ns),
    }


def per_layer(doc, spans):
    workload = doc["workload"]
    plain, traced, offline = doc["plain"], doc["traced"], doc["offline"]
    layers = _span_layers(spans)
    v = {
        "api.resolve_ms": traced["resolve_ms"],
        "core.engine.first_exec_ms": layers["first_exec_ms"],
        "core.engine.gap_us.p50": layers["gap_us_p50"],
        "core.runtime.steps_per_exec": layers["steps_per_exec"],
        "core.runtime.step_ns": layers["step_ns"],
        "core.runtime.harness_calls": layers["harness_calls"],
        "core.runtime.harness_us": layers["harness_us"],
        "core.strategy.decisions_per_exec": layers["decisions_per_exec"],
        "core.strategy.decision_ns": layers["decision_ns"],
        "trace.exec_share_pct": layers["exec_share_pct"],
        "trace.overhead_pct":
            100.0 * (_ratio(traced["seconds"], plain["seconds"]) - 1.0),
        "trace.count_mismatches": count_mismatches(doc),
    }
    for key, summary in (("core.engine.exec_us", layers["exec_us"]),
                         ("core.strategy.prepare_us", layers["prepare_us"])):
        for field, value in summary.items():
            v[key + "." + field] = value

    # Fingerprint layer: counters from the traced pass, insert and
    # compaction costs from the offline trail replays.
    campaigns = _campaigns(traced)
    executions = sum(c["executions"] for c in campaigns)
    hits = sum(c["hits"] for c in campaigns)
    misses = sum(c["misses"] for c in campaigns)
    unit0 = plain["campaigns"][0] if plain["campaigns"] else []
    distinct = sum(c["distinct_states"] for c in unit0)
    unit0_seconds = sum(c["seconds"] for c in unit0)
    replays = offline["fingerprint"]
    compactions = sum(r["compactions"] for r in replays)
    inserts = sum(r["quiet_inserts"] for r in replays)
    v.update({
        "core.runtime.events_per_exec":
            _ratio(sum(c["events"] for c in campaigns), executions),
        "core.fingerprint.distinct_states": distinct,
        "core.fingerprint.distinct_states_per_s":
            _ratio(distinct, unit0_seconds),
        "core.fingerprint.hit_rate": _ratio(hits, hits + misses),
        "core.fingerprint.prune_ratio":
            _ratio(sum(c["pruned"] for c in campaigns), executions),
        "core.fingerprint.compactions":
            sum(c["compactions"] for c in campaigns),
        "core.fingerprint.runs": sum(c["runs"] for c in campaigns),
        "core.fingerprint.bloom_fp": sum(c["bloom_fp"] for c in campaigns),
        "core.fingerprint.insert_ns":
            _ratio(sum(r["insert_ns_total"] for r in replays), inserts),
        "core.fingerprint.compaction_ms":
            _ratio(sum(r["compaction_ns_total"] for r in replays),
                   compactions) / 1e6,
        "core.fingerprint.replay_compactions": compactions,
    })

    # Corpus and explore layers: guided only (zero elsewhere).
    corpus = [c["corpus"] for c in campaigns]
    for field in ("added", "duplicates", "sampled", "entries"):
        v["corpus." + field] = sum(c[field] for c in corpus)
    v["corpus.interesting_ratio"] = _ratio(v["corpus.added"], executions)
    add = timing_summary([ns / 1e3 for ns in offline["corpus_add_ns"]])
    for field, value in add.items():
        v["corpus.add_us." + field] = value
    rates, imbalance, cpu, wall_workers = [], [], 0.0, 0.0
    if workload == "guided":
        for c in campaigns:
            walls = [w["seconds"] for w in c["workers"]]
            rates += [_ratio(w["executions"], w["seconds"])
                      for w in c["workers"]]
            imbalance.append(_ratio(max(walls), min(walls)))
            cpu += c["cpu_seconds"]
            wall_workers += c["seconds"] * len(c["workers"])
    v["explore.worker_exec_per_s.min"] = min(rates, default=0.0)
    v["explore.worker_exec_per_s.max"] = max(rates, default=0.0)
    v["explore.imbalance"] = (statistics.median(imbalance)
                              if imbalance else 0.0)
    v["explore.utilization"] = _ratio(cpu, wall_workers)
    pairs = doc.get("obs_pairs")
    v["obs.overhead_pct"] = (
        100.0 * (_ratio(pairs["on_seconds"], pairs["off_seconds"]) - 1.0)
        if pairs else 0.0)

    # Domain throughput and the hunts (untraced pass, like end-to-end).
    items = _hunts(plain) + _campaigns(plain)
    for domain in DOMAINS:
        mine = [i for i in items if i["domain"] == domain]
        v[domain + ".exec_per_s"] = _ratio(
            sum(i["executions"] for i in mine),
            sum(i["seconds"] for i in mine))
    hunts = plain["hunts"][0] if plain["hunts"] else []
    by_name = {h["name"]: h for h in hunts}
    for name in HUNTS:
        h = by_name.get(name)
        if h is None:
            value = 0
        else:
            value = h["executions_to_bug"] if h["found"] else PAPER_BUDGET
        v["bug." + name + ".executions_to_bug"] = value
    v["executions_to_bug"] = sum(
        v["bug." + name + ".executions_to_bug"] for name in HUNTS)
    v["bughunt.hunts_censored"] = sum(1 for h in hunts if not h["found"])
    traced_hunts = traced["hunts"][0] if traced["hunts"] else []
    v["core.trace.replay_ms"] = sum(h["replay_ms"] for h in traced_hunts)
    return {name: {"value": v[name], "unit": unit}
            for name, unit, _ in PER_LAYER}
