#!/usr/bin/env python3
"""Perf-regression gate for bench_routing output.

Compares a fresh BENCH_routing.json against the checked-in
bench/baseline.json and fails (exit 1) when the run regressed:

  * hard invariants -- summary all_identical / all_complete must be true,
    and per design the routed QUALITY must be exactly the baseline's:
    total_channel_length, matched_channel_length, matched_clusters.
    Routing is deterministic, so any drift here is a functional change,
    not noise, and has no tolerance band.
  * search-effort counters (search.*.searches / expansions /
    bounded_visits) -- allowed to drift by --counter-tolerance
    (default 10%) to absorb intentional kernel tweaks; growth beyond
    that is an algorithmic regression even if wall-time hides it.
  * serial wall-time per design and in total -- allowed to grow by
    --time-tolerance (default 100%, i.e. 2x; CI machines are noisy,
    local runs can pass --time-tolerance=0.02 for the paper's <2% bar).
  * escape-stage wall-time per design (metrics time.escape_s) -- banded
    by --stage-time-tolerance (defaults to --time-tolerance). The escape
    stage is ~99% of the serial time on the flow-dominated designs, so a
    regression in the escape-flow kernel fails the gate here even when
    total-time noise would hide it.
  * golden-hash cross-check -- each design's solution_sha256 (the SHA-256
    of the canonical solution text, emitted by bench_routing) must match
    tests/golden/solution_hashes.txt, in BOTH the current run and the
    baseline. Routed quality may only ever move together with a golden
    re-pin, so baseline.json and the goldens cannot drift apart silently:
    regenerate the hashes and the baseline in the same change.
    --golden=PATH overrides the hash file (default: resolved relative to
    this script); --golden=none skips the cross-check.
  * ECO re-route rows (eco.seconds, the 1-valve-move rerouteChip latency)
    -- banded by --time-tolerance when the baseline carries them, and the
    Chip1 speedup over from-scratch routing is hard-gated at
    --eco-speedup-min (default 3x) whenever the current run reports it:
    the incremental path losing its edge over routeChip is a regression
    with no tolerance band.

With --serve the inputs are BENCH_serve.json files (bench_serve_net's
socket replay report) and the gate checks instead:

  * hard invariants -- zero error responses, zero hash mismatches,
    all_hashes_match true, at least one ok response, and warm repeats:
    warm_hits == warm_eligible (the per-design FIFO affinity contract --
    a repeat request that rebuilt its escape session cold is a
    functional regression, not noise).
  * ok-latency p99 -- allowed to grow by --time-tolerance over the
    baseline's p99 (latency is the noisiest number here; CI passes a
    generous band).
  * warm_hit_ratio -- may not drop more than --warm-tolerance
    (default 0.10, absolute) below the baseline's ratio.
  * golden-hash cross-check -- each design row's sha256 (the one-shot
    reference hash the replay driver verified every response against)
    must match tests/golden/solution_hashes.txt in both files.

The summary line also reports memo_hit_ratio (repeats answered from the
server's route memo); it is not gated.

Usage:
  bench/compare_baseline.py CURRENT.json BASELINE.json \
      [--time-tolerance=1.0] [--stage-time-tolerance=T] \
      [--counter-tolerance=0.10] [--golden=PATH] [--eco-speedup-min=3.0] \
      [--serve] [--warm-tolerance=0.10]
"""

import json
import os
import sys


def fail(violations):
    print("\nPERF GATE: FAIL")
    width = max(len(v[0]) for v in violations)
    for where, what in violations:
        print(f"  {where:<{width}}  {what}")
    return 1


REPIN_HINT = ("re-pin tests/golden/solution_hashes.txt and regenerate "
              "bench/baseline.json in the same change")


def default_golden_path():
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "tests", "golden", "solution_hashes.txt")


def load_golden(path):
    """{design: sha256} from the 'name hash' lines of the golden file."""
    golden = {}
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) == 2:
                golden[parts[0]] = parts[1]
    return golden


def check_golden(golden, label, design, violations):
    """Cross-checks one design record against the pinned golden hash."""
    name = design["design"]
    got = design.get("solution_sha256")
    ref = golden.get(name)
    if ref is None:
        violations.append((name, f"no golden hash pinned for this design; "
                                 f"{REPIN_HINT}"))
    elif got is None:
        violations.append((name, f"{label} lacks solution_sha256 (rerun "
                                 f"bench_routing; {REPIN_HINT})"))
    elif got != ref:
        violations.append((name, f"{label} solution_sha256 {got[:12]}... != "
                                 f"golden {ref[:12]}...: routed output moved "
                                 f"without a golden re-pin; {REPIN_HINT}"))


def serve_gate(current, baseline, golden, time_tol, warm_tol):
    """The --serve mode: gates a BENCH_serve.json against its baseline."""
    violations = []
    cur = current["summary"]
    base = baseline["summary"]

    if cur.get("errors", 1) != 0:
        violations.append(("summary", f"{cur.get('errors')} error response(s)"))
    # Nominal runs carry no aggressive deadline, so any expiry means a
    # request timed out unexpectedly -- a liveness regression, hard fail.
    if cur.get("deadline_expired", 0) != 0:
        violations.append(
            ("summary", f"{cur.get('deadline_expired')} request(s) expired "
                        f"past their deadline in the nominal run"))
    if cur.get("hash_mismatches", 1) != 0 or not cur.get("all_hashes_match"):
        violations.append(("summary",
                           f"{cur.get('hash_mismatches')} hash mismatch(es)"))
    if cur.get("ok", 0) < 1:
        violations.append(("summary", "no ok responses at all"))
    if cur.get("warm_hits") != cur.get("warm_eligible"):
        violations.append(
            ("summary", f"warm_hits {cur.get('warm_hits')} != warm_eligible "
                        f"{cur.get('warm_eligible')}: a repeat-design request "
                        f"rebuilt its escape session cold"))

    ref_p99 = base["latency_ms"]["p99"]
    got_p99 = cur["latency_ms"]["p99"]
    if got_p99 > ref_p99 * (1.0 + time_tol):
        violations.append(
            ("latency", f"p99: {got_p99:.1f}ms > {ref_p99:.1f}ms "
                        f"+{time_tol:.0%}"))

    ref_ratio = base.get("warm_hit_ratio", 0.0)
    got_ratio = cur.get("warm_hit_ratio", 0.0)
    if got_ratio < ref_ratio - warm_tol:
        violations.append(
            ("warm", f"warm_hit_ratio: {got_ratio:.2f} < baseline "
                     f"{ref_ratio:.2f} - {warm_tol:.2f}"))

    if golden is not None:
        for label, report in (("current run", current), ("baseline", baseline)):
            for row in report.get("designs", []):
                ref = golden.get(row["design"])
                if ref is not None and row.get("sha256") != ref:
                    violations.append(
                        (row["design"],
                         f"{label} sha256 {row.get('sha256', '')[:12]}... != "
                         f"golden {ref[:12]}...; {REPIN_HINT}"))

    if violations:
        return fail(violations)
    golden_note = ("golden hashes cross-checked" if golden is not None
                   else "golden cross-check skipped")
    print(f"PERF GATE: OK (serve: {cur.get('ok')} ok / {cur.get('busy')} busy "
          f"over {cur.get('requests')} requests, p99 {got_p99:.1f}ms vs "
          f"baseline {ref_p99:.1f}ms +{time_tol:.0%}, warm ratio "
          f"{got_ratio:.2f} vs {ref_ratio:.2f} -{warm_tol:.2f}, memo ratio "
          f"{cur.get('memo_hit_ratio', 0.0):.2f}, {golden_note})")
    return 0


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    if len(args) != 2:
        print(__doc__.strip())
        return 2
    time_tol = 1.0
    stage_time_tol = None
    counter_tol = 0.10
    eco_speedup_min = 3.0
    warm_tol = 0.10
    serve_mode = False
    golden_path = default_golden_path()
    for a in argv[1:]:
        if a.startswith("--time-tolerance="):
            time_tol = float(a.split("=", 1)[1])
        elif a.startswith("--stage-time-tolerance="):
            stage_time_tol = float(a.split("=", 1)[1])
        elif a.startswith("--counter-tolerance="):
            counter_tol = float(a.split("=", 1)[1])
        elif a.startswith("--eco-speedup-min="):
            eco_speedup_min = float(a.split("=", 1)[1])
        elif a.startswith("--warm-tolerance="):
            warm_tol = float(a.split("=", 1)[1])
        elif a == "--serve":
            serve_mode = True
        elif a.startswith("--golden="):
            golden_path = a.split("=", 1)[1]
        elif a.startswith("--"):
            print(f"unknown option {a}")
            return 2
    if stage_time_tol is None:
        stage_time_tol = time_tol

    golden = None
    if golden_path != "none":
        try:
            golden = load_golden(golden_path)
        except OSError as e:
            print(f"cannot read golden hash file {golden_path}: {e}")
            return 2

    with open(args[0]) as f:
        current = json.load(f)
    with open(args[1]) as f:
        baseline = json.load(f)

    if serve_mode:
        return serve_gate(current, baseline, golden, time_tol, warm_tol)

    violations = []

    for key in ("all_identical", "all_complete"):
        if not current["summary"].get(key, False):
            violations.append(("summary", f"{key} is false"))

    cur_by_name = {d["design"]: d for d in current["designs"]}
    for base in baseline["designs"]:
        name = base["design"]
        cur = cur_by_name.get(name)
        if cur is None:
            violations.append((name, "design missing from current run"))
            continue

        # Routed quality: exact, no band.
        for key in ("total_channel_length", "matched_channel_length",
                    "matched_clusters", "complete"):
            if cur.get(key) != base.get(key):
                violations.append(
                    (name, f"{key}: {cur.get(key)} != baseline {base.get(key)}"))

        # Golden cross-check: quality may only move together with a golden
        # re-pin, in the current run AND in the committed baseline.
        if golden is not None:
            check_golden(golden, "current run", cur, violations)
            check_golden(golden, "baseline", base, violations)

        # Search effort: banded.
        for stage, counters in base.get("search", {}).items():
            for counter, ref in counters.items():
                got = cur.get("search", {}).get(stage, {}).get(counter)
                if got is None:
                    violations.append((name, f"search.{stage}.{counter} missing"))
                elif got > ref * (1.0 + counter_tol) + 1:
                    violations.append(
                        (name, f"search.{stage}.{counter}: {got} > "
                               f"{ref} +{counter_tol:.0%}"))

        # Escape-stage wall-time: banded separately, so an escape-kernel
        # regression is caught even when the design's total time is noisy.
        ref = base.get("metrics", {}).get("time.escape_s")
        got = cur.get("metrics", {}).get("time.escape_s")
        if ref is not None:
            if got is None:
                violations.append((name, "metrics time.escape_s missing"))
            elif got > ref * (1.0 + stage_time_tol):
                violations.append(
                    (name, f"time.escape_s: {got:.3f}s > {ref:.3f}s "
                           f"+{stage_time_tol:.0%}"))

        # ECO re-route latency: banded like wall-time when the baseline
        # carries an eco row. The mode must not degrade either -- a
        # valve-move answered in full mode means the incremental path
        # stopped recognizing the edit.
        ref_eco = base.get("eco")
        cur_eco = cur.get("eco")
        if ref_eco is not None:
            if cur_eco is None:
                violations.append((name, "eco row missing from current run "
                                         "(rerun bench_routing)"))
            else:
                if cur_eco.get("mode") != ref_eco.get("mode"):
                    violations.append(
                        (name, f"eco.mode: {cur_eco.get('mode')} != baseline "
                               f"{ref_eco.get('mode')}"))
                ref_s = ref_eco["seconds"]
                got_s = cur_eco["seconds"]
                if got_s > ref_s * (1.0 + time_tol):
                    violations.append(
                        (name, f"eco.seconds: {got_s:.4f}s > {ref_s:.4f}s "
                               f"+{time_tol:.0%}"))

        # Wall-time: banded.
        ref = base["serial_seconds"]
        got = cur["serial_seconds"]
        if got > ref * (1.0 + time_tol):
            violations.append(
                (name, f"serial_seconds: {got:.3f}s > {ref:.3f}s +{time_tol:.0%}"))

    ref = baseline["summary"]["serial_seconds_total"]
    got = current["summary"]["serial_seconds_total"]
    if got > ref * (1.0 + time_tol):
        violations.append(
            ("summary", f"serial_seconds_total: {got:.3f}s > {ref:.3f}s "
                        f"+{time_tol:.0%}"))

    # Hard ECO floor: the Chip1 1-valve-move re-route must beat
    # from-scratch routing by at least --eco-speedup-min, no band.
    chip1_eco = cur_by_name.get("Chip1", {}).get("eco")
    if chip1_eco is not None:
        speedup = chip1_eco.get("speedup", 0.0)
        if speedup < eco_speedup_min:
            violations.append(
                ("Chip1", f"eco.speedup: {speedup:.2f}x < required "
                          f"{eco_speedup_min:g}x over from-scratch routing"))

    if violations:
        return fail(violations)
    golden_note = ("golden hashes cross-checked" if golden is not None
                   else "golden cross-check skipped")
    eco_note = (f"Chip1 eco speedup {chip1_eco['speedup']:.1f}x >= "
                f"{eco_speedup_min:g}x" if chip1_eco is not None
                else "no eco rows")
    print(f"PERF GATE: OK ({len(baseline['designs'])} designs, "
          f"serial total {got:.3f}s vs baseline {ref:.3f}s, "
          f"time tolerance {time_tol:.0%}, stage tolerance {stage_time_tol:.0%}, "
          f"counter tolerance {counter_tol:.0%}, {golden_note}, {eco_note})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
