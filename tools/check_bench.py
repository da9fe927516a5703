#!/usr/bin/env python3
"""CI bench-regression gate.

Re-runs each micro bench in --quick mode and evaluates it against its
checked-in perf trajectory (BENCH_*.json). The gates are data: each
bench in `BENCHES` lists its rows, and every row names one of five
generic checks, the field it reads, the sides it checks (reference,
measured or both), its point filter or grouping, and its threshold:

  per_point         every matching point keeps a field within bounds
  tracks_reference  a measured value stays >= tol x the smallest
                    reference value with the same operating key
  paired_arms       the ratio of two arms of one axis (e.g. policy
                    cost vs rr) per group, >= a floor and >= a band of
                    the reference ratio; a missing pair fails
  aggregate         the max/median of a field over matching points
  within_point      a ratio of two fields of one point stays under a
                    ceiling

Simulated (*_us) figures are deterministic, so tolerances on them only
absorb intentional cost-model changes. Wall-clock speedups are matched
on operating keys, never on shape or machine, so the gate survives CI
hardware variance.

Exit code 0 = green, 1 = regression, 2 = usage/setup error.
"""

import argparse
import fnmatch
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile

# Measured speedup must be >= TOLERANCE * the worst key-matched
# reference speedup (also the cluster/serve reference-ratio band).
TOLERANCE = 0.40
# Absolute speedup floor: the word path may never be slower than
# the scalar reference.
MIN_SPEEDUP = 1.0
# The pooled path may be at most this factor slower than the
# single-thread word path.
PARALLEL_SLACK = 2.0
# Hybrid dispatch may never lose to the best single backend.
HYBRID_FLOOR = 0.999
# Required hybrid advantage at the best mixed-density point,
# reference and measured.
HYBRID_WIN = 1.15
# Measured hybrid ratios must stay within this factor of their
# key-matched reference.
HYBRID_TOLERANCE = 0.95
# Required corpus-median narrow-vs-wide advantage on the reference
# SpMM sweep.
SPMM_MEDIAN_WIN = 2.0
# Auto format selection may be at most this factor worse than the
# better format on any corpus matrix.
SPMM_SELECT_SLACK = 1.05
# Measured narrow-vs-wide ratios must stay within this factor of
# their key-matched reference.
SPMM_TOLERANCE = 0.95
# Required int8-over-fp16 advantage on simulated kernel time at
# memory-bound precision points.
PRECISION_FLOOR = 1.3

BOTH = ("reference", "measured")
MEASURED = ("measured",)
REFERENCE = ("reference",)


def point_label(point):
    fields = ("kind", "shape", "matrix", "m", "method", "sparsity",
              "wsp", "asp", "stride", "clustered", "tile_k", "dtype",
              "devices", "policy", "load", "mix", "b_sparsity",
              "b_kind", "faults", "recovery")
    parts = [f"{k}={point[k]}" for k in fields if k in point]
    return "{" + ", ".join(parts) + "}"


def select(doc, points, where):
    return [p for p in doc.get(points, []) if where is None or where(p)]


def below(value, limit, strict):
    return value <= limit if strict else value < limit


# -- the five generic checks ------------------------------------------
# Each takes the {side: document} pair and the side it checks, plus the
# row's parameters, and returns its failure messages.

def per_point(docs, side, field, lo=None, hi=None, strict=False,
              default=0.0, where=None, points="points", need=False):
    """Every matching point keeps `field` (a glob over its keys) in
    [lo, hi]; `strict` excludes lo. `need` fails a side with no
    matching point."""
    pts = select(docs[side], points, where)
    if need and not pts:
        return [f"no matching {points}"]
    bound = f"{'>' if strict else '>='} {lo}" if lo is not None else ""
    bound += f" and <= {hi}" if hi is not None else ""
    out = []
    for p in pts:
        for name in (fnmatch.filter(p, field) if "*" in field
                     else [field]):
            value = p.get(name, default)
            if (lo is not None and below(value, lo, strict)) or \
                    (hi is not None and value > hi):
                out.append(f"{point_label(p)} has {name}={value!r}, "
                           f"needs {bound}")
    return out


def tracks_reference(docs, side, field, keys, tol):
    """Every point keeps `field` >= tol x the smallest reference value
    with the same `keys`; a point with no such reference is skipped."""
    out = []
    for p in docs[side].get("points", []):
        matches = [r.get(field, 0.0)
                   for r in docs["reference"].get("points", [])
                   if all(r.get(k) == p.get(k) for k in keys)]
        value = p.get(field, 0.0)
        if matches and value < tol * min(matches):
            out.append(f"{point_label(p)} {field} {value:.4f} "
                       f"regressed below {tol * min(matches):.4f} "
                       f"(= {tol:.2f} x reference {min(matches):.4f})")
    return out


def arm_ratio(pts, group, key, field, arm, win, base, better):
    """`win`-over-`base` ratio of `field` in one group, oriented so > 1
    means `win` is better; None if either arm is missing or zero."""
    arms = {p.get(arm): p.get(field, 0.0) for p in pts
            if tuple(p.get(g) for g in group) == key}
    w, b = arms.get(win), arms.get(base)
    if not w or not b:
        return None
    return b / w if better == "lower" else w / b


def paired_arms(docs, side, field, arm, win, base, floor, group=(),
                keep=None, where=None, better="lower", strict=False,
                band=None, need="every", points="points"):
    """Per group (the product of the `group` fields' values among the
    matching points, narrowed by `keep`), the `win`-vs-`base` ratio
    stays >= `floor` and, with a `band`, >= band x the reference ratio
    of the same group. `need`: "every" group must hold both arms,
    "any" one must, None skips incomplete groups."""
    pts = select(docs[side], points, where)
    values = [sorted({p.get(g) for p in pts}, key=str) for g in group]
    groups = [k for k in itertools.product(*values)
              if keep is None or keep(*k)]
    pair = f"{arm} {win}/{base}"
    out = [f"no group to compare {pair} in"] \
        if need == "every" and not groups else []
    complete = 0
    for key in groups:
        at = "/".join(map(str, key)) or "all points"
        ratio = arm_ratio(pts, group, key, field, arm, win, base, better)
        if ratio is None:
            if need == "every":
                out.append(f"{at} lacks the {pair} pair")
            continue
        complete += 1
        if below(ratio, floor, strict):
            out.append(f"{at} {pair} {field} ratio {ratio:.2f}x is "
                       f"{'not above' if strict else 'below'} "
                       f"{floor:.2f}x")
        if band is None:
            continue
        ref = arm_ratio(select(docs["reference"], points, where), group,
                        key, field, arm, win, base, better)
        if ref is not None and ratio < band * ref:
            out.append(f"{at} {pair} {field} ratio {ratio:.2f}x "
                       f"regressed below {band * ref:.2f}x (= "
                       f"{band:.2f} x reference {ref:.2f}x)")
    if need == "any" and not complete:
        out.append(f"no group holds the {pair} pair")
    return out


def aggregate(docs, side, field, reduce, limit, where=None):
    """`reduce` (max/median) of `field` over the matching points stays
    >= `limit`; no matching point fails."""
    values = [p.get(field, 0.0)
              for p in select(docs[side], "points", where)]
    if not values:
        return [f"no points to take the {reduce.__name__} of {field}"]
    value = reduce(values)
    if value < limit:
        return [f"{reduce.__name__} {field} {value:.2f}x fell below "
                f"{limit:.2f}x over {len(values)} points"]
    return []


def within_point(docs, side, num, den, ceiling, when=None):
    """On every point, `num` <= ceiling x min(`den` fields), both
    positive. `when` skips the row on a side whose config fails it."""
    if when is not None and not when(docs[side].get("config", {})):
        return []
    out = []
    for p in docs[side].get("points", []):
        n = p.get(num, 0.0)
        d = min(p.get(f, 0.0) for f in den)
        if not n > 0.0 or not d > 0.0:
            out.append(f"{point_label(p)} has non-positive {num} or "
                       f"{'/'.join(den)}")
        elif n > ceiling * d:
            out.append(f"{point_label(p)} {num} is {n / d:.3f}x "
                       f"min({', '.join(den)}) (ceiling {ceiling:.2f}x)")
    return out


class Gate:
    """One row of a bench's gate table: a named check over some sides
    with its parameters."""

    def __init__(self, name, sides, check, **params):
        self.name, self.sides = name, sides
        self.check, self.params = check, params


def evaluate(spec, reference, measured):
    """Every failure of `spec`'s gate rows on one reference/measured
    document pair, each prefixed with its row name and side."""
    docs = {"reference": reference, "measured": measured}
    return [f"{gate.name} ({side}): {msg}"
            for gate in spec["gates"] for side in gate.sides
            for msg in gate.check(docs, side, **gate.params)]


# -- the gate table ---------------------------------------------------

def hetero(devices, *_):
    return "+" in str(devices)


def healthy(p):
    return not p.get("faults", "")


def faulted(p):
    return bool(p.get("faults", ""))


def crash_only(p):
    faults = p.get("faults", "")
    return "crash" in faults and "transient" not in faults


def transient_retry(p):
    faults = p.get("faults", "")
    return "transient" in faults and "crash" not in faults and \
        "retry" in p.get("recovery", "")


def sparse_ingest(p):
    return p.get("kind") == "ingest" and p.get("sparsity", 0.0) >= 0.99


def best_of_n_multicore(config):
    # Single-rep timings are one raw sample each (a late pool wake-up
    # can triple a sub-millisecond pooled point), and on one hardware
    # thread the pool cannot scale at all.
    return config.get("reps", 1) >= 2 and \
        config.get("hardware_concurrency", 0) != 1


SPEEDUP = "speedup_word_vs_scalar"

# Every point must reproduce its scalar / serial-Session reference
# exactly (the benches also self-check this) and time positively.
COMMON = (
    Gate("bitwise", BOTH, per_point, field="bitwise_equal", lo=True,
         default=False, need=True),
    Gate("positive timings", BOTH, per_point, field="*_ms", lo=0.0,
         strict=True),
)

PRECISION_BITWISE = Gate(
    "precision bitwise", BOTH, per_point, field="bitwise_equal",
    lo=True, default=False, points="precision_points", need=True)


def speedup_gates(*keys):
    """Word-vs-scalar speedup: an absolute floor, a band of the
    reference matched on operating `keys`, and the pooled-vs-word
    slack."""
    return (
        Gate("speedup floor", MEASURED, per_point, field=SPEEDUP,
             lo=MIN_SPEEDUP),
        Gate("speedup vs reference", MEASURED, tracks_reference,
             field=SPEEDUP, keys=keys, tol=TOLERANCE),
        Gate("pooled slack", MEASURED, within_point, num="parallel_ms",
             den=("word_ms",), ceiling=PARALLEL_SLACK,
             when=best_of_n_multicore),
    )


def footprint_gate(dtype):
    return Gate(f"{dtype} footprint", BOTH, paired_arms,
                points="precision_points", field="encoded_mb",
                arm="dtype", win=dtype, base="fp16", group=("sparsity",),
                floor=1.0, strict=True, need=None)


def policy_gate(name, field, win, better="lower", **params):
    """Heterogeneous-mix policy comparison against round-robin."""
    return Gate(name, MEASURED, paired_arms, field=field, arm="policy",
                win=win, base="rr", better=better, keep=hetero,
                floor=1.0, band=TOLERANCE, **params)


BENCHES = {
    "micro_spgemm": {
        "binary": os.path.join("bench", "micro_spgemm"),
        "reference": "BENCH_spgemm.json",
        "gates": COMMON + speedup_gates("sparsity", "tile_k") + (
            PRECISION_BITWISE,
            Gate("int8 vs fp16 time", BOTH, paired_arms,
                 points="precision_points", field="modeled_us",
                 arm="dtype", win="int8", base="fp16",
                 group=("sparsity",), floor=PRECISION_FLOOR, need="any",
                 where=lambda p: p.get("dtype") != "fp16"
                 or p.get("memory_bound", False)),
        ),
    },
    "micro_spconv": {
        "binary": os.path.join("bench", "micro_spconv"),
        "reference": "BENCH_spconv.json",
        "gates": COMMON + speedup_gates("method", "wsp", "asp",
                                        "stride", "clustered"),
    },
    "micro_encode": {
        "binary": os.path.join("bench", "micro_encode"),
        "reference": "BENCH_encode.json",
        "gates": COMMON + speedup_gates("kind", "sparsity", "stride") + (
            PRECISION_BITWISE,
            footprint_gate("int8"),
            footprint_gate("int4"),
            # One OperandSummary and what it derives never cost more
            # than the separate passes it replaced, on every side, at
            # the sparsities plans meet concrete operands at. At 50%
            # density both arms are dominated by the same narrow-tile
            # value gather, so that point reads noise around 1.0x.
            Gate("ingest summary <= separate", BOTH, per_point,
                 field=SPEEDUP, lo=1.0, where=sparse_ingest, need=True),
        ),
    },
    "micro_cluster": {
        "binary": os.path.join("bench", "micro_cluster"),
        "reference": "BENCH_cluster.json",
        "gates": COMMON + (
            policy_gate("cost vs rr makespan", "makespan_us", "cost",
                        group=("devices",)),
        ),
    },
    "micro_serve": {
        "binary": os.path.join("bench", "micro_serve"),
        "reference": "BENCH_serve.json",
        "gates": COMMON + (
            policy_gate("deadline vs rr p99", "p99_us", "deadline",
                        group=("devices", "load"), where=healthy),
            policy_gate("deadline vs rr goodput", "goodput_rpms",
                        "deadline", better="higher",
                        group=("devices", "load"), where=healthy),
            Gate("crash failover goodput", MEASURED, paired_arms,
                 field="goodput_rpms", better="higher", arm="recovery",
                 win="failover", base="none", where=crash_only,
                 floor=1.0, band=TOLERANCE),
            Gate("transient retry lost", MEASURED, per_point,
                 field="lost", lo=0, hi=0, default=-1,
                 where=transient_retry, need=True),
            Gate("transient retries", MEASURED, per_point,
                 field="retries", lo=0, strict=True,
                 where=transient_retry),
            Gate("availability", MEASURED, per_point,
                 field="availability", lo=0.0, hi=1.0, default=-1.0,
                 where=faulted, need=True),
        ),
    },
    "micro_hybrid": {
        "binary": os.path.join("bench", "micro_hybrid"),
        "reference": "BENCH_hybrid.json",
        "gates": COMMON + (
            Gate("hybrid floor", BOTH, per_point, field="ratio_vs_best",
                 lo=HYBRID_FLOOR),
            Gate("hybrid mixed win", BOTH, aggregate,
                 field="ratio_vs_best", reduce=max, limit=HYBRID_WIN,
                 where=lambda p: 0.0 < p.get("mix", 0.0) < 1.0),
            Gate("hybrid vs reference", MEASURED, tracks_reference,
                 field="ratio_vs_best",
                 keys=("mix", "b_sparsity", "b_kind"),
                 tol=HYBRID_TOLERANCE),
        ),
    },
    "micro_spmm": {
        "binary": os.path.join("bench", "micro_spmm"),
        "reference": "BENCH_spmm.json",
        "corpus": True,
        "gates": COMMON + (
            Gate("workers bitwise", BOTH, per_point,
                 field="workers_bitwise_equal", lo=True, default=False),
            Gate("cusparse baseline", BOTH, per_point,
                 field="cusparse_vs_selected", lo=1.0),
            Gate("selection slack", BOTH, within_point, num="selected_us",
                 den=("narrow_us", "wide_us"), ceiling=SPMM_SELECT_SLACK),
            Gate("corpus median", REFERENCE, aggregate,
                 field="narrow_vs_wide", reduce=statistics.median,
                 limit=SPMM_MEDIAN_WIN),
            Gate("narrow vs reference", MEASURED, tracks_reference,
                 field="narrow_vs_wide", keys=("matrix", "n"),
                 tol=SPMM_TOLERANCE),
        ),
    },
}


# -- running the quick benches ----------------------------------------

def run_quick(binary, timeout_s, extra=()):
    with tempfile.NamedTemporaryFile(suffix=".json",
                                     delete=False) as tmp:
        out_path = tmp.name
    try:
        proc = subprocess.run([binary, "--quick", "--out", out_path,
                               *extra],
                              capture_output=True, text=True,
                              timeout=timeout_s)
        if proc.returncode != 0:
            print(proc.stdout)
            print(proc.stderr, file=sys.stderr)
            return None
        with open(out_path) as f:
            return json.load(f)
    finally:
        os.unlink(out_path)


def check_bench(name, spec, args):
    ref_path = os.path.join(args.repo_root, spec["reference"])
    binary = os.path.join(args.build_dir, spec["binary"])
    if not os.path.exists(ref_path):
        print(f"check_bench: missing reference {ref_path}")
        return False
    if not os.path.exists(binary):
        print(f"check_bench: missing binary {binary} (build first)")
        return False
    with open(ref_path) as f:
        reference = json.load(f)

    extra = ()
    if spec.get("corpus"):
        extra = ("--corpus", os.path.join(args.repo_root, "corpus"))
    print(f"check_bench: running {binary} --quick ...")
    measured = run_quick(binary, args.timeout, extra)
    if measured is None:
        print(f"check_bench: FAIL: {name}: quick run failed")
        return False

    failures = evaluate(spec, reference, measured)
    for msg in failures:
        print(f"check_bench: FAIL: {name}: {msg}")
    if not failures:
        print(f"check_bench: {name}: {len(spec['gates'])} gates green "
              f"on {len(measured.get('points', []))} quick points")
    return not failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory (bench binaries)")
    parser.add_argument("--repo-root", default=".",
                        help="directory of the BENCH_*.json references")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="per-bench quick-run timeout in seconds")
    args = parser.parse_args()

    ok = True
    for name, spec in BENCHES.items():
        ok = check_bench(name, spec, args) and ok
    if not ok:
        sys.exit(1)
    print("check_bench: all benches green")


if __name__ == "__main__":
    main()
