#!/usr/bin/env python3
"""Tests for the gate table of check_bench.py, with no bench binaries:
every checked-in BENCH_*.json passes its own gates (used as both
reference and measured), and each mutation in MUTATIONS fails the gate
row it targets, by name. Every gate row has at least one mutation.

Run: python3 -B tools/test_check_bench.py
"""

import copy
import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TOOLS)
import check_bench  # noqa: E402

REPO = os.path.dirname(TOOLS)


def scale(field, factor, where=lambda p: True, points="points"):
    """Mutation: multiply `field` by `factor` on the matching points."""
    def mutate(doc):
        for p in doc.get(points, []):
            if where(p):
                p[field] *= factor
    return mutate


def assign(field, value, where=lambda p: True, points="points",
           first=False):
    """Mutation: set `field` on the matching points (or the first)."""
    def mutate(doc):
        for p in doc.get(points, []):
            if where(p):
                p[field] = value
                if first:
                    return
    return mutate


def drop(where, points="points"):
    """Mutation: remove the matching points."""
    def mutate(doc):
        doc[points] = [p for p in doc.get(points, []) if not where(p)]
    return mutate


def zero_first_ms(doc):
    p = doc["points"][0]
    p[next(k for k in p if k.endswith("_ms"))] = 0.0


def oversubscribed_pool(doc):
    doc["config"].update(reps=3, hardware_concurrency=4)
    p = doc["points"][0]
    p["parallel_ms"] = 3.0 * p["word_ms"]


def policy(name):
    return lambda p: p.get("policy") == name and not p.get("faults")


def arm(field, value):
    return lambda p: p.get(field) == value


def crash_arm(value):
    return lambda p: check_bench.crash_only(p) and \
        p.get("recovery") == value


SPEEDUP = check_bench.SPEEDUP
SPEEDUP_BENCHES = ("micro_spgemm", "micro_spconv", "micro_encode")

# (bench, gate row, side, description, mutation of that side's doc).
MUTATIONS = [
    row for bench in check_bench.BENCHES for row in (
        (bench, "bitwise", "measured", "first point not bitwise_equal",
         assign("bitwise_equal", False, first=True)),
        (bench, "bitwise", "reference", "first point not bitwise_equal",
         assign("bitwise_equal", False, first=True)),
        (bench, "positive timings", "measured",
         "first point's first *_ms = 0", zero_first_ms),
    )
] + [
    row for bench in SPEEDUP_BENCHES for row in (
        (bench, "speedup floor", "measured", "first speedup = 0.9",
         assign(SPEEDUP, 0.9, first=True)),
        (bench, "speedup vs reference", "reference",
         "every speedup x100", scale(SPEEDUP, 100.0)),
        (bench, "pooled slack", "measured",
         "reps 3, 4 threads, first parallel_ms = 3 x word_ms",
         oversubscribed_pool),
    )
] + [
    row for bench in ("micro_spgemm", "micro_encode") for row in (
        (bench, "precision bitwise", "measured",
         "first precision point not bitwise_equal",
         assign("bitwise_equal", False, points="precision_points",
                first=True)),
        (bench, "precision bitwise", "reference",
         "no precision points", drop(lambda p: True, "precision_points")),
    )
] + [
    ("micro_spgemm", "int8 vs fp16 time", "measured",
     "int8 modeled_us x10",
     scale("modeled_us", 10.0, arm("dtype", "int8"), "precision_points")),
    ("micro_spgemm", "int8 vs fp16 time", "reference",
     "no fp16 point memory-bound",
     assign("memory_bound", False, points="precision_points")),
    ("micro_encode", "int8 footprint", "measured",
     "int8 encoded_mb x10",
     scale("encoded_mb", 10.0, arm("dtype", "int8"), "precision_points")),
    ("micro_encode", "int4 footprint", "reference",
     "int4 encoded_mb x10",
     scale("encoded_mb", 10.0, arm("dtype", "int4"), "precision_points")),
    ("micro_encode", "ingest summary <= separate", "reference",
     "sparse ingest speedup = 0.9",
     assign(SPEEDUP, 0.9, check_bench.sparse_ingest)),
    ("micro_encode", "ingest summary <= separate", "measured",
     "no sparse ingest points", drop(check_bench.sparse_ingest)),
    ("micro_cluster", "cost vs rr makespan", "measured",
     "cost makespan_us x10", scale("makespan_us", 10.0, policy("cost"))),
    ("micro_cluster", "cost vs rr makespan", "reference",
     "rr makespan_us x10 (band)", scale("makespan_us", 10.0, policy("rr"))),
    ("micro_cluster", "cost vs rr makespan", "measured",
     "no rr points (missing pair)", drop(policy("rr"))),
    ("micro_serve", "deadline vs rr p99", "measured",
     "healthy deadline p99_us x10", scale("p99_us", 10.0,
                                          policy("deadline"))),
    ("micro_serve", "deadline vs rr p99", "reference",
     "healthy rr p99_us x10 (band)", scale("p99_us", 10.0, policy("rr"))),
    ("micro_serve", "deadline vs rr goodput", "measured",
     "healthy deadline goodput_rpms x0.1",
     scale("goodput_rpms", 0.1, policy("deadline"))),
    ("micro_serve", "deadline vs rr goodput", "measured",
     "no healthy rr points (missing pair)", drop(policy("rr"))),
    ("micro_serve", "crash failover goodput", "measured",
     "failover goodput_rpms x0.5",
     scale("goodput_rpms", 0.5, crash_arm("failover"))),
    ("micro_serve", "crash failover goodput", "reference",
     "failover goodput_rpms x10 (band)",
     scale("goodput_rpms", 10.0, crash_arm("failover"))),
    ("micro_serve", "crash failover goodput", "measured",
     "no crash no-recovery point (missing pair)", drop(crash_arm("none"))),
    ("micro_serve", "transient retry lost", "measured",
     "transient retry point lost = 3",
     assign("lost", 3, check_bench.transient_retry)),
    ("micro_serve", "transient retry lost", "measured",
     "no transient retry point", drop(check_bench.transient_retry)),
    ("micro_serve", "transient retries", "measured",
     "transient retry point retries = 0",
     assign("retries", 0, check_bench.transient_retry)),
    ("micro_serve", "availability", "measured",
     "fault point availability = 1.5",
     assign("availability", 1.5, check_bench.faulted, first=True)),
    ("micro_serve", "availability", "measured", "no fault points",
     drop(check_bench.faulted)),
    ("micro_hybrid", "hybrid floor", "reference",
     "first ratio_vs_best = 0.99", assign("ratio_vs_best", 0.99,
                                          first=True)),
    ("micro_hybrid", "hybrid mixed win", "measured",
     "mixed-density ratio_vs_best = 1.1",
     assign("ratio_vs_best", 1.1, lambda p: 0.0 < p["mix"] < 1.0)),
    ("micro_hybrid", "hybrid mixed win", "reference",
     "no mixed-density points", drop(lambda p: 0.0 < p["mix"] < 1.0)),
    ("micro_hybrid", "hybrid vs reference", "reference",
     "every ratio_vs_best x2", scale("ratio_vs_best", 2.0)),
    ("micro_spmm", "workers bitwise", "measured",
     "first point not workers_bitwise_equal",
     assign("workers_bitwise_equal", False, first=True)),
    ("micro_spmm", "cusparse baseline", "reference",
     "first cusparse_vs_selected = 0.9",
     assign("cusparse_vs_selected", 0.9, first=True)),
    ("micro_spmm", "selection slack", "measured",
     "first selected_us x1.1 over the better format",
     lambda doc: doc["points"][0].update(selected_us=1.1 * min(
         doc["points"][0]["narrow_us"], doc["points"][0]["wide_us"]))),
    ("micro_spmm", "corpus median", "reference",
     "every narrow_vs_wide = 1.9", assign("narrow_vs_wide", 1.9)),
    ("micro_spmm", "narrow vs reference", "reference",
     "every narrow_vs_wide x2", scale("narrow_vs_wide", 2.0)),
]


def load_reference(spec):
    with open(os.path.join(REPO, spec["reference"])) as f:
        return json.load(f)


def mutated(reference, measured, side, mutation):
    """Copies of the reference/measured pair with `side` mutated."""
    docs = {"reference": copy.deepcopy(reference),
            "measured": copy.deepcopy(measured)}
    mutation(docs[side])
    return docs["reference"], docs["measured"]


class GateTableTest(unittest.TestCase):
    def test_checked_in_references_pass(self):
        for name, spec in check_bench.BENCHES.items():
            ref = load_reference(spec)
            with self.subTest(bench=name):
                self.assertEqual(check_bench.evaluate(spec, ref, ref), [])

    def test_every_row_has_a_mutation(self):
        covered = {(bench, row) for bench, row, *_ in MUTATIONS}
        for name, spec in check_bench.BENCHES.items():
            for gate in spec["gates"]:
                self.assertIn((name, gate.name), covered)

    def test_each_mutation_fails_its_row(self):
        for bench, row, side, what, mutation in MUTATIONS:
            spec = check_bench.BENCHES[bench]
            ref = load_reference(spec)
            with self.subTest(bench=bench, row=row, mutation=what):
                failures = check_bench.evaluate(
                    spec, *mutated(ref, ref, side, mutation))
                self.assertTrue(
                    any(f.startswith(f"{row} (") for f in failures),
                    f"{failures}")


if __name__ == "__main__":
    unittest.main()
