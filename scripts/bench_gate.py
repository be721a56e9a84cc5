#!/usr/bin/env python3
"""Perf-regression gate: a same-runner A/B run of the repository benchmark.

Usage (from the repository root):
  bench_gate.py --base REF
  bench_gate.py --validate-trace FILE [FILE...]
  bench_gate.py --validate-events FILE [FILE...]

--base extracts the committed trees of REF and of HEAD into
.bench_gate/{base,head}, builds perfbench in each (perfbench/run.py, one
build directory per tree), then runs PAIRS interleaved pairs of every
BENCHMARK.json workload, untraced and traced, at SECONDS per run. Both
sides of a pair get the same seed; the side that runs first alternates.
Absolute times do not carry between hosts or even between runs, so the
gate compares the two sides of one runner, and per layer it compares
shares of the run, which do hold. It fails when
  * a run exits nonzero (a pinned-output mismatch or a crash);
  * a workload's pooled failed share is higher at HEAD;
  * an end-to-end median is worse than its BENCHMARK.json bound;
  * a layer's median share grows by more than the base's spread (max - min
    over its runs), LAYER_MARGIN and LAYER_REL_MARGIN of its share, and
    its own median time grows by more than LAYER_TIME_MARGIN.
A layer is a row of the traced run's span ledger (spans-<workload>.jsonl:
self time over the traced window, "residual" included) or a netlist pass
(netlist.pass_ms.<pass> over the same run's netlist.compile_ms). Shares add
up to 1, so when one layer gets faster every other layer's share grows; the
time condition keeps such a speedup from failing a layer nobody touched.
The gate prints one table per workload and writes it, with every run's
parsed result and layer readings, to .bench_gate/report.{txt,json}.

--validate-trace checks a Chrome trace_event file is well-formed (parses,
has a traceEvents list, every event carries name/ph/ts/pid/tid).
--validate-events checks an event-log JSON-lines file (every line is an
object with ts_ns/level/name). Exit status 0 iff every check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# A pair of rounds (every workload, untraced and traced, on both sides)
# takes ~3 min on a 4-vCPU host; four pairs plus two cold builds take ~16.
PAIRS = 4
SECONDS = 5
# Share growth below LAYER_MARGIN, or below LAYER_REL_MARGIN of the share,
# passes even when it beats the base's spread. A 1.5x slowdown of a layer
# holding share s grows it by s/2 / (1 + s/2), at least s/3: +0.024 at
# s = 0.05, +0.10 at s = 0.4.
LAYER_MARGIN = 0.02
LAYER_REL_MARGIN = 0.1
# ... and only if its own time per op grew by more than this too. In gate
# runs on a 4-vCPU host untouched layers mostly read 0.82-1.19x (campaign's
# set-up pass times up to 1.46x); a 1.5x slowdown moved its layer 1.34-1.67x.
LAYER_TIME_MARGIN = 0.25
WORK_DIR = ".bench_gate"

failures = []


def fail(msg):
    failures.append(msg)
    print(f"FAIL: {msg}")


# ---- reading perfbench outputs ---------------------------------------------

def parse_result(stdout):
    """The JSON object perfbench prints as its last stdout line, or None."""
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def layer_readings(result, span_lines):
    """Per-layer readings of one traced run, {layer: (share, ms per op)}:
    each ledger layer's self time over the traced window and per attempted
    op, plus each pass's mean time over netlist.compile_ms and as is."""
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    spans = [json.loads(line) for line in span_lines if line.strip()]
    self_ns = [s["end_ns"] - s["start_ns"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            self_ns[s["parent"]] -= s["end_ns"] - s["start_ns"]
    covered = sum(s["end_ns"] - s["start_ns"] for s in spans
                  if s["parent"] < 0)
    residual = metrics.get("trace.residual_frac", 0.0)
    readings = {}
    if covered > 0 and residual < 1:
        wall = covered / (1 - residual)
        by_layer = {"residual": residual * wall}
        for s, ns in zip(spans, self_ns):
            by_layer[s["layer"]] = by_layer.get(s["layer"], 0.0) + ns
        ops = max(result["attempted"], 1)
        readings = {layer: (ns / wall, ns / ops / 1e6)
                    for layer, ns in by_layer.items()}
    compile_ms = metrics.get("netlist.compile_ms", 0.0)
    for name, value in metrics.items():
        if name.startswith("netlist.pass_ms.") and compile_ms > 0:
            readings[name] = (value / compile_ms, value)
    return readings


# ---- the comparison ----------------------------------------------------------

def compare(bench, runs):
    """Checks one gate's runs; returns (failure messages, report lines).

    `runs` holds one dict per perfbench run: side ("base"/"head"),
    workload, traced, seed, code (exit status), result (the parsed last
    line or None) and, for traced runs, layers (layer_readings)."""
    errors, lines = [], []
    for r in runs:
        if r["code"] != 0 or r["result"] is None:
            errors.append(f"{r['side']} {r['workload']} seed={r['seed']} "
                          f"trace={int(r['traced'])} exited {r['code']}"
                          + ("" if r["result"] else " without a result"))
    good = [r for r in runs if r["code"] == 0 and r["result"] is not None]

    for workload in [w["name"] for w in bench["workloads"]]:
        def of(side, traced=None):
            return [r for r in good if r["workload"] == workload and
                    r["side"] == side and traced in (None, r["traced"])]

        failed = {}
        for side in ("base", "head"):
            attempted = sum(r["result"]["attempted"] for r in of(side))
            failed[side] = sum(r["result"]["failed"] for r in of(side)) / \
                max(attempted, 1)
        lines.append(f"== {workload}: {len(of('base', False))} untraced + "
                     f"{len(of('base', True))} traced runs per side; failed "
                     f"share base {failed['base']:.4f} head "
                     f"{failed['head']:.4f}")
        if failed["head"] > failed["base"] + 1e-12:
            errors.append(f"{workload}: failed share rose from "
                          f"{failed['base']:.4f} to {failed['head']:.4f}")

        lines.append(f"  {'end to end':<34}{'base':>12}{'head':>12}"
                     f"{'worse':>9}{'bound':>8}")
        for m in bench["end_to_end"]:
            base, head = (statistics.median(
                [r["result"]["metrics"][m["name"]]["value"]
                 for r in of(side, False)] or [0.0])
                for side in ("base", "head"))
            worse = (head - base) / base if base else 0.0
            if m["better"] == "higher":
                worse = -worse
            bad = worse > m["bound"]
            lines.append(f"  {m['name']:<34}{base:>12.4g}{head:>12.4g}"
                         f"{worse:>+9.1%}{m['bound']:>8.0%}"
                         f"  {'FAIL' if bad else 'ok'}")
            if bad:
                errors.append(f"{workload}: end-to-end {m['name']} median "
                              f"{head:.4g} is {worse:.1%} worse than base "
                              f"{base:.4g} (bound {m['bound']:.0%})")

        readings = {side: [r["layers"] for r in of(side, True)]
                    for side in ("base", "head")}
        lines.append(f"  {'layer share':<34}{'base':>12}{'spread':>9}"
                     f"{'head':>12}{'growth':>9}{'allowed':>9}{'time':>8}")
        for layer in sorted(set().union(*readings["base"],
                                        *readings["head"])):
            base_r, head_r = ([r.get(layer, (0.0, 0.0)) for r in readings[side]]
                              for side in ("base", "head"))
            if not base_r or not head_r:
                continue
            base_shares = [share for share, _ in base_r]
            base = statistics.median(base_shares)
            growth = statistics.median(share for share, _ in head_r) - base
            spread = max(base_shares) - min(base_shares)
            allowed = max(spread, LAYER_MARGIN, LAYER_REL_MARGIN * base)
            # A layer new at HEAD has no time to grow from; the end-to-end
            # bounds cover what it costs.
            base_ms = statistics.median(ms for _, ms in base_r)
            grew = (statistics.median(ms for _, ms in head_r) / base_ms
                    if base_ms else 1.0)
            bad = growth > allowed and grew > 1 + LAYER_TIME_MARGIN
            lines.append(f"  {layer:<34}{base:>12.4f}{spread:>9.4f}"
                         f"{base + growth:>12.4f}{growth:>+9.4f}"
                         f"{allowed:>9.4f}{grew:>7.2f}x"
                         f"  {'FAIL' if bad else 'ok'}")
            if bad:
                errors.append(f"{workload}: layer {layer} share grew from "
                              f"{base:.4f} to {base + growth:.4f}, more than "
                              f"{allowed:.4f}, and its time per op by "
                              f"{grew:.2f}x")
    return errors, lines


# ---- running both sides ----------------------------------------------------

def perfbench(tree, *args):
    # perfbench/run.py builds into $CARGO_TARGET_DIR when set, which would
    # put both sides in one build directory.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=tree, env=env, capture_output=True, text=True)


def prepare(tree, commit):
    """Extracts `commit` into `tree` (kept when already there) and builds
    perfbench in it, running its self-test; exits when either fails."""
    stamp = os.path.join(tree, ".gate-commit")
    if not os.path.exists(stamp) or open(stamp).read() != commit:
        shutil.rmtree(tree, ignore_errors=True)
        os.makedirs(tree)
        archive = subprocess.run(["git", "archive", commit], check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        with open(stamp, "w") as f:
            f.write(commit)
    build = perfbench(tree, "--selftest")
    if build.returncode != 0:
        sys.exit(f"bench gate: perfbench build or self-test failed in "
                 f"{tree}:\n{(build.stdout + build.stderr)[-4000:]}")


def run_once(tree, side, workload, seed, traced):
    spans = os.path.join(tree, ".bench_build", "perfbench", "reports",
                         f"spans-{workload}.jsonl")
    if os.path.exists(spans):
        os.remove(spans)
    proc = perfbench(tree, "--workload", workload, "--seed", str(seed),
                     "--seconds", str(SECONDS), "--trace", str(int(traced)))
    run = {"side": side, "workload": workload, "seed": seed,
           "traced": traced, "code": proc.returncode,
           "result": parse_result(proc.stdout)}
    if proc.returncode != 0:
        print(proc.stdout[-2000:] + proc.stderr[-2000:])
    if traced and run["result"] is not None:
        if os.path.exists(spans):
            with open(spans) as f:
                run["layers"] = layer_readings(run["result"], f)
        else:
            run["result"] = None  # reported as a run without a result
    return run


def gate(base_ref):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    commits = {side: subprocess.run(
        ["git", "rev-parse", "--verify", ref + "^{commit}"], check=True,
        capture_output=True, text=True).stdout.strip()
        for side, ref in (("base", base_ref), ("head", "HEAD"))}
    print(f"bench gate: base {commits['base'][:12]} ({base_ref}) vs head "
          f"{commits['head'][:12]}, {PAIRS} pairs at {SECONDS} s", flush=True)
    t0 = time.monotonic()
    trees = {side: os.path.abspath(os.path.join(WORK_DIR, side))
             for side in commits}
    for side in commits:
        prepare(trees[side], commits[side])
    print(f"built both sides ({time.monotonic() - t0:.0f} s)", flush=True)

    runs = []
    combos = [(w["name"], traced) for w in bench["workloads"]
              for traced in (False, True)]
    for pair in range(PAIRS):
        for i, (workload, traced) in enumerate(combos):
            for side in ("base", "head")[::1 if (pair + i) % 2 else -1]:
                runs.append(run_once(trees[side], side, workload, pair + 1,
                                     traced))
        print(f"pair {pair + 1}/{PAIRS} done ({time.monotonic() - t0:.0f} s)",
              flush=True)

    errors, lines = compare(bench, runs)
    lines += [f"FAIL: {msg}" for msg in errors]
    lines.append(f"\nbench gate: base {commits['base'][:12]} vs head "
                 f"{commits['head'][:12]}: {len(errors)} failure(s), wall "
                 f"{time.monotonic() - t0:.0f} s")
    print("\n".join(lines))
    with open(os.path.join(WORK_DIR, "report.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    with open(os.path.join(WORK_DIR, "report.json"), "w") as f:
        json.dump(runs, f)
    return 1 if errors else 0


# ---- trace and event-log validation ----------------------------------------

def validate_trace(path):
    with open(path) as f:
        events = json.load(f).get("traceEvents")
    if not isinstance(events, list) or not events:
        return fail(f"{path}: no traceEvents")
    for i, event in enumerate(events):
        missing = [k for k in ("name", "ph", "ts", "pid", "tid")
                   if k not in event]
        if missing:
            return fail(f"{path}: traceEvents[{i}] missing {missing}: {event}")
    # Correlated spans carry trace_id in args; a traced service/bench run
    # must produce at least one.
    correlated = sum(isinstance(e.get("args"), dict) and "trace_id" in e["args"]
                     for e in events)
    if not correlated:
        return fail(f"{path}: no span carries args.trace_id -- "
                    "trace-context propagation is broken")
    print(f"  ok: {path}: {len(events)} trace events, {correlated} with "
          "trace_id")


def validate_events(path):
    with open(path) as f:
        lines = [(n, line) for n, line in enumerate(f, 1) if line.strip()]
    traced = 0
    for lineno, line in lines:
        try:
            event = json.loads(line)
        except json.JSONDecodeError as e:
            return fail(f"{path}:{lineno}: not JSON ({e})")
        missing = [k for k in ("ts_ns", "level", "name") if k not in event]
        if missing:
            return fail(f"{path}:{lineno}: missing {missing}: {event}")
        traced += "trace_id" in event
    if not lines:
        return fail(f"{path}: empty event log")
    if not traced:
        return fail(f"{path}: no event carries a trace_id")
    print(f"  ok: {path}: {len(lines)} events, {traced} with trace_id")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--base", metavar="REF",
                        help="commit to compare HEAD against")
    parser.add_argument("--validate-trace", nargs="+", default=[],
                        metavar="FILE")
    parser.add_argument("--validate-events", nargs="+", default=[],
                        metavar="FILE")
    args = parser.parse_args()
    if args.base:
        return gate(args.base)
    if not (args.validate_trace or args.validate_events):
        parser.error("give --base REF or files to validate")
    for path in args.validate_trace:
        validate_trace(path)
    for path in args.validate_events:
        validate_events(path)
    print(f"\nbench gate: {len(failures)} validation failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
