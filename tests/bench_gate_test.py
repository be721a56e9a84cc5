#!/usr/bin/env python3
"""Self-test of the perf gate's comparator (scripts/bench_gate.py).

Feeds canned perfbench outputs -- the last-line JSON result and the
spans-<workload>.jsonl ledger of each run -- through the same readers and
comparison the A/B gate uses, without building or running perfbench:
an A/A comparison passes, a speedup passes, and each kind of regression
fails and is named.
Run: python3 tests/bench_gate_test.py (ctest -L gate).
"""

import json
import os
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))
import bench_gate  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

# Self time per layer of one canned traced run, in ms.
LAYERS = {"frontend.xls": 20.0, "netlist.compile": 15.0, "svc.key": 12.5,
          "sim.scalar": 37.5, "synth": 10.0}
PASSES = {"narrow": 0.43, "cse": 0.22, "eliminate_dead": 0.20}
RESIDUAL_MS = 5.0


def canned_stdout(metrics, attempted, failed):
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": "x"}
                          for k, v in metrics.items()}}
    return "perfbench report line\n" + json.dumps(result) + "\n"


def canned_spans(scale, jitter):
    """Ledger lines: one top-level "request" span holding one child span per
    layer; the request span's own self time is zero. sim.scalar carries the
    run-to-run noise."""
    lines, t = [], 0
    children = []
    for layer, ms in LAYERS.items():
        noise = jitter if layer == "sim.scalar" else 1.0
        ns = int(ms * scale.get(layer, 1.0) * noise * 1e6)
        children.append((layer, t, t + ns))
        t += ns
    lines.append({"layer": "request", "start_ns": 0, "end_ns": t,
                  "parent": -1})
    for layer, start, end in children:
        lines.append({"layer": layer, "start_ns": start, "end_ns": end,
                      "parent": 0})
    return [json.dumps(line) for line in lines], t


def canned_run(side, workload, seed, traced, code=0, ops=100.0, failed=0,
               scale=None):
    scale = scale or {}
    jitter = 1.0 + 0.01 * ((seed * 7) % 3 - 1)  # run-to-run noise, +-1%
    if not traced:
        metrics = {m["name"]: 10.0 * jitter for m in BENCH["end_to_end"]}
        metrics["ops_per_s"] = ops * jitter
        stdout = canned_stdout(metrics, 1000, failed)
        return {"side": side, "workload": workload, "seed": seed,
                "traced": traced, "code": code,
                "result": bench_gate.parse_result(stdout)}
    spans, covered_ns = canned_spans(scale, jitter)
    wall_ns = covered_ns + RESIDUAL_MS * 1e6
    pass_ms = {p: share * scale.get("netlist.pass_ms." + p, 1.0)
               for p, share in PASSES.items()}
    metrics = {"trace.residual_frac": RESIDUAL_MS * 1e6 / wall_ns,
               "netlist.compile_ms": 1.0 + sum(pass_ms.values())
               - sum(PASSES.values())}
    metrics.update({"netlist.pass_ms." + p: v for p, v in pass_ms.items()})
    result = bench_gate.parse_result(canned_stdout(metrics, 1000, failed))
    return {"side": side, "workload": workload, "seed": seed,
            "traced": traced, "code": code, "result": result,
            "layers": bench_gate.layer_readings(result, spans)}


def gate_runs(head=None):
    """PAIRS pairs of every workload, untraced and traced; `head(workload,
    traced)` returns the keyword overrides of the head side's runs."""
    runs = []
    for pair in range(bench_gate.PAIRS):
        for w in BENCH["workloads"]:
            for traced in (False, True):
                runs.append(canned_run("base", w["name"], pair + 1, traced))
                extra = head(w["name"], traced) if head else {}
                runs.append(canned_run("head", w["name"], pair + 1, traced,
                                       **extra))
    return runs


def only(workload, traced, **kwargs):
    return lambda w, t: kwargs if (w, t) == (workload, traced) else {}


class ComparatorTest(unittest.TestCase):
    def assertFailsNaming(self, runs, *names):
        errors, _ = bench_gate.compare(BENCH, runs)
        self.assertEqual(len(errors), 1, errors)
        for name in names:
            self.assertIn(name, errors[0])

    def test_a_a_passes(self):
        errors, lines = bench_gate.compare(BENCH, gate_runs())
        self.assertEqual(errors, [])
        self.assertTrue(any("svc.key" in line for line in lines))

    def test_layer_share_growth_fails_and_names_the_layer(self):
        self.assertFailsNaming(
            gate_runs(only("svc_mix", True, scale={"svc.key": 1.5})),
            "svc_mix", "layer svc.key")
        self.assertFailsNaming(
            gate_runs(only("dse", True,
                           scale={"netlist.pass_ms.narrow": 1.5})),
            "dse", "layer netlist.pass_ms.narrow")
        # +0.022 on a 0.375 share is above the absolute margin but below a
        # tenth of the share, and 1.1x is inside the time margin: noise,
        # not a 1.5x slowdown.
        errors, _ = bench_gate.compare(
            BENCH, gate_runs(only("svc_mix", True, scale={"sim.scalar": 1.1})))
        self.assertEqual(errors, [])

    def test_speedup_passes_although_other_shares_grow(self):
        # Halving sim.scalar (37.5 of 100 ms) grows frontend.xls's share
        # from 0.200 to 0.246, above its allowance, but not its time.
        errors, lines = bench_gate.compare(
            BENCH, gate_runs(only("svc_mix", True, scale={"sim.scalar": 0.5})))
        self.assertEqual(errors, [])
        table = lines[lines.index(next(l for l in lines if "svc_mix" in l)):]
        self.assertIn("+0.046", next(l for l in table if "frontend.xls" in l))
        # Halving the narrow pass grows every other pass's share.
        errors, _ = bench_gate.compare(
            BENCH, gate_runs(only("dse", True,
                                  scale={"netlist.pass_ms.narrow": 0.5})))
        self.assertEqual(errors, [])

    def test_end_to_end_drop_beyond_bound_fails(self):
        self.assertFailsNaming(
            gate_runs(only("campaign", False, ops=70.0)),
            "campaign", "end-to-end ops_per_s")
        # A drop inside the bound passes.
        errors, _ = bench_gate.compare(
            BENCH, gate_runs(only("campaign", False, ops=80.0)))
        self.assertEqual(errors, [])

    def test_higher_failed_share_fails(self):
        self.assertFailsNaming(
            gate_runs(only("svc_mix", False, failed=1)),
            "svc_mix", "failed share")

    def test_nonzero_exit_fails(self):
        runs = gate_runs()
        runs[-1]["code"] = 1
        errors, _ = bench_gate.compare(BENCH, runs)
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("exited 1", errors[0])


if __name__ == "__main__":
    unittest.main()
