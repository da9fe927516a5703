#!/usr/bin/env python3
"""CI bench-regression gate.

Re-runs the micro benches in --quick mode and compares them against
the checked-in perf trajectories (BENCH_spgemm.json, BENCH_spconv.json,
BENCH_encode.json, BENCH_cluster.json, BENCH_spmm.json, ...):

 1. Functional gate (hard): every point, measured and reference, must
    report bitwise_equal — the word-parallel pipelines must reproduce
    their scalar references exactly, and cluster reports must
    reproduce serial single-Session execution. The benches also
    self-check this and exit non-zero on divergence.
 2. Speedup gate: for each measured point, the word-vs-scalar speedup
    must stay above an absolute floor (the word path may never be
    slower than the scalar reference) and above `TOLERANCE` times
    the worst matching reference speedup. Points are matched on their
    operating keys (sparsity / method / stride / clustered), not on
    shape or machine, so the gate survives CI hardware variance while
    still catching real pipeline regressions.
 3. Sanity gate: all stage timings must be positive and the pooled
    path must not be catastrophically slower than the single-thread
    word path (`PARALLEL_SLACK`).
 4. Placement-quality gate (micro_cluster): on every heterogeneous
    device mix, cost-model placement must beat round-robin simulated
    makespan (ratio >= 1), and the ratio must stay above
    `TOLERANCE` times the checked-in reference ratio. Simulated
    makespans are deterministic, so this gate is immune to CI
    hardware variance.
 5. Serving gate (micro_serve): on every heterogeneous device mix
    and load level, deadline-aware placement must beat round-robin
    on simulated p99 tail latency and goodput (ratio >= 1), with the
    same reference-ratio tolerance; every point must also replay
    bitwise against serial single-Session execution. Fault sweep
    points (faults != "") additionally gate recovery quality: under
    the crash script, failover goodput must match or beat the
    no-recovery baseline (and stay within tolerance of the reference
    ratio); under transient-only faults with retry, zero requests
    may be lost. Fault timelines are exactly as deterministic as
    healthy ones, so these are not flaky thresholds.
 6. Hybrid-dispatch gate (micro_hybrid): on every point, reference
    and measured, the density-partitioned hybrid must match or beat
    the best single backend on simulated kernel time
    (`HYBRID_FLOOR`); the reference sweep and the measured quick
    run must both show a material win (`HYBRID_WIN`) at a
    mixed-density point; and measured ratios must track their
    key-matched reference within `HYBRID_TOLERANCE` (the ratios
    are simulated and deterministic, so the tolerance only absorbs
    intentional cost-model changes — a quick point that silently
    stops splitting fails this, not just the floor).

 7. Precision gate (micro_spgemm / micro_encode): every precision
    point, reference and measured, must hold its in-domain bitwise
    guarantee (serial == pooled for all datatypes; integer datatypes
    also == the refGemmQuant golden model, and the word encoder ==
    the scalar encode under the same QuantSpec). On micro_spgemm the
    int8 datapath must beat fp16 by `PRECISION_FLOOR` on simulated
    kernel time at every memory-bound operating point (the narrow
    value lanes must actually shrink the modeled DRAM traffic); on
    micro_encode the int8 and int4 encoded footprints must be
    strictly smaller than fp16's. Simulated times and footprints are
    deterministic, so these thresholds only absorb intentional
    cost-model changes.

 8. SpMM gate (micro_spmm): every corpus point, reference and
    measured, must hold the full bitwise set (narrow == scalar
    reference == wide == csr, stable across worker counts); the
    reference sweep's corpus-median narrow-vs-wide ratio must stay
    >= `SPMM_MEDIAN_WIN`; Auto format selection must stay within
    `SPMM_SELECT_SLACK` of the better format everywhere; and the
    selected dual kernel must never lose to the cusparse-like
    baseline. All simulated, deterministic ratios.

The sanity gate's pooled-vs-word slack comparison is skipped when the
measured run reports `hardware_concurrency == 1`: on a single
hardware thread the pool cannot scale and its wall-clock is noise.

Exit code 0 = green, 1 = regression, 2 = usage/setup error.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

# Gate thresholds. Simulated-time ratios are deterministic, so the
# tolerances on them only absorb intentional cost-model changes.
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

# Operating-point keys per bench: reference points are matched to
# measured points on these fields only (never on size/shape/machine).
BENCHES = {
    "micro_spgemm": {
        "binary": os.path.join("bench", "micro_spgemm"),
        "reference": "BENCH_spgemm.json",
        "keys": ("sparsity", "tile_k"),
        "precision": "gemm",
    },
    "micro_spconv": {
        "binary": os.path.join("bench", "micro_spconv"),
        "reference": "BENCH_spconv.json",
        "keys": ("method", "wsp", "asp", "stride", "clustered"),
    },
    "micro_encode": {
        "binary": os.path.join("bench", "micro_encode"),
        "reference": "BENCH_encode.json",
        "keys": ("kind", "sparsity", "stride"),
        "precision": "encode",
    },
    "micro_cluster": {
        "binary": os.path.join("bench", "micro_cluster"),
        "reference": "BENCH_cluster.json",
        "keys": ("devices", "policy"),
        "mode": "cluster",
    },
    "micro_serve": {
        "binary": os.path.join("bench", "micro_serve"),
        "reference": "BENCH_serve.json",
        "keys": ("devices", "policy", "load"),
        "mode": "serve",
    },
    "micro_hybrid": {
        "binary": os.path.join("bench", "micro_hybrid"),
        "reference": "BENCH_hybrid.json",
        "keys": ("mix", "b_sparsity", "b_kind"),
        "mode": "hybrid",
    },
    "micro_spmm": {
        "binary": os.path.join("bench", "micro_spmm"),
        "reference": "BENCH_spmm.json",
        "keys": ("matrix", "n"),
        "mode": "spmm",
        "corpus": True,
    },
}


def fail(msg):
    print(f"check_bench: FAIL: {msg}")
    return False


def point_key(point, keys):
    return tuple(point.get(k) for k in keys)


def point_label(point):
    fields = ("kind", "shape", "matrix", "m", "method", "sparsity",
              "wsp", "asp", "stride", "clustered", "tile_k",
              "devices", "policy", "load", "mix", "b_sparsity",
              "b_kind", "faults", "recovery")
    parts = [f"{k}={point[k]}" for k in fields if k in point]
    return "{" + ", ".join(parts) + "}"


def check_points(name, points, *, require_positive):
    ok = True
    for p in points:
        if not p.get("bitwise_equal", False):
            ok = fail(f"{name}: {point_label(p)} is not bitwise "
                      f"equal to the scalar reference")
        if require_positive:
            for field, value in p.items():
                if field.endswith("_ms") and not value > 0.0:
                    ok = fail(f"{name}: {point_label(p)} has "
                              f"non-positive timing {field}={value}")
    return ok


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


def makespan_ratio(points, devices):
    """rr-vs-cost simulated makespan ratio of one device set (the
    placement-quality figure; > 1 means the cost model wins)."""
    cost = rr = None
    for p in points:
        if p.get("devices") != devices:
            continue
        if p.get("policy") == "cost":
            cost = p.get("makespan_us", 0.0)
        elif p.get("policy") == "rr":
            rr = p.get("makespan_us", 0.0)
    if not cost or not rr:
        return None
    return rr / cost


def check_cluster(name, ref_points, meas_points):
    """Placement-quality gate: deterministic simulated makespans, so
    the measured ratios should track the reference exactly; the
    tolerance only absorbs intentional timing-model changes."""
    ok = True
    hetero = sorted({p["devices"] for p in meas_points
                     if "+" in p.get("devices", "")})
    if not hetero:
        return fail(f"{name}: no heterogeneous device mix measured")
    for devices in hetero:
        ratio = makespan_ratio(meas_points, devices)
        if ratio is None:
            ok = fail(f"{name}: {devices} lacks cost/rr points for "
                      f"the placement-quality gate")
            continue
        mix_ok = True
        if ratio < 1.0:
            mix_ok = fail(f"{name}: {devices} cost-model placement "
                          f"({ratio:.2f}x) lost to round-robin")
        ref_ratio = makespan_ratio(ref_points, devices)
        if ref_ratio is not None and \
                ratio < TOLERANCE * ref_ratio:
            mix_ok = fail(f"{name}: {devices} placement quality "
                          f"{ratio:.2f}x regressed below "
                          f"{TOLERANCE * ref_ratio:.2f}x "
                          f"(= {TOLERANCE:.2f} x reference "
                          f"{ref_ratio:.2f}x)")
        if mix_ok:
            print(f"check_bench: {name}: {devices} placement "
                  f"quality {ratio:.2f}x (cost vs rr)")
        ok = mix_ok and ok
    return ok


def serve_ratio(points, devices, load, field, better="lower"):
    """deadline-vs-rr ratio of one serving metric on one (device set,
    load) pair, oriented so > 1 means the deadline policy wins."""
    deadline = rr = None
    for p in points:
        if p.get("devices") != devices or p.get("load") != load:
            continue
        if p.get("policy") == "deadline":
            deadline = p.get(field, 0.0)
        elif p.get("policy") == "rr":
            rr = p.get(field, 0.0)
    if not deadline or not rr:
        return None
    return rr / deadline if better == "lower" else deadline / rr

# Serving gate metrics: (json field, which direction the deadline
# policy must win, human label).
SERVE_METRICS = (
    ("p99_us", "lower", "p99 tail latency"),
    ("goodput_rpms", "higher", "goodput"),
)


def check_serve(name, ref_points, meas_points):
    """Tail-latency/goodput gate: on every heterogeneous device mix
    and load level, deadline-aware placement must beat round-robin on
    p99 and goodput (ratio >= 1), and each ratio must stay above
    `TOLERANCE` times the checked-in reference ratio. Serving
    metrics are simulated and deterministic, so the tolerance only
    absorbs intentional timing- or policy-model changes."""
    ok = True
    # The policy-comparison gate runs on healthy points only; fault
    # sweep points (faults != "") are gated by check_serve_faults.
    ref_points = [p for p in ref_points if not p.get("faults", "")]
    meas_points = [p for p in meas_points if not p.get("faults", "")]
    hetero = sorted({p["devices"] for p in meas_points
                     if "+" in p.get("devices", "")})
    if not hetero:
        return fail(f"{name}: no heterogeneous device mix measured")
    loads = sorted({p.get("load") for p in meas_points})
    for devices in hetero:
        for load in loads:
            for field, better, label in SERVE_METRICS:
                ratio = serve_ratio(meas_points, devices, load,
                                    field, better)
                if ratio is None:
                    ok = fail(f"{name}: {devices}@{load} lacks "
                              f"deadline/rr points for the {label} "
                              f"gate")
                    continue
                point_ok = True
                if ratio < 1.0:
                    point_ok = fail(
                        f"{name}: {devices}@{load} deadline policy "
                        f"({ratio:.2f}x) lost to round-robin on "
                        f"{label}")
                ref = serve_ratio(ref_points, devices, load, field,
                                  better)
                if ref is not None and \
                        ratio < TOLERANCE * ref:
                    point_ok = fail(
                        f"{name}: {devices}@{load} {label} advantage "
                        f"{ratio:.2f}x regressed below "
                        f"{TOLERANCE * ref:.2f}x (= "
                        f"{TOLERANCE:.2f} x reference "
                        f"{ref:.2f}x)")
                if point_ok:
                    print(f"check_bench: {name}: {devices}@{load} "
                          f"{label} advantage {ratio:.2f}x "
                          f"(deadline vs rr)")
                ok = point_ok and ok
    return ok


def recovery_goodput_ratio(points):
    """failover-vs-no-recovery goodput ratio under the crash script
    (> 1 means recovery converts lost work back into goodput)."""
    recovered = baseline = None
    for p in points:
        if "crash" not in p.get("faults", "") or \
                "transient" in p.get("faults", ""):
            continue
        if p.get("recovery") == "failover":
            recovered = p.get("goodput_rpms", 0.0)
        elif p.get("recovery") == "none":
            baseline = p.get("goodput_rpms", 0.0)
    if not recovered or not baseline:
        return None
    return recovered / baseline


def check_serve_faults(name, ref_points, meas_points):
    """Fault-recovery gate: the fault sweep's deterministic recovery
    quality. Crash script: failover goodput >= the no-recovery
    baseline, within tolerance of the reference ratio. Transient-only
    with retry: zero lost requests, hard."""
    ok = True
    fault_meas = [p for p in meas_points if p.get("faults", "")]
    if not fault_meas:
        return fail(f"{name}: no fault sweep points measured")

    ratio = recovery_goodput_ratio(fault_meas)
    if ratio is None:
        ok = fail(f"{name}: fault sweep lacks the failover/"
                  f"no-recovery crash pair")
    else:
        if ratio < 1.0:
            ok = fail(f"{name}: crash-script recovery goodput "
                      f"({ratio:.2f}x) fell below the no-recovery "
                      f"baseline")
        ref = recovery_goodput_ratio(
            [p for p in ref_points if p.get("faults", "")])
        if ref is not None and ratio < TOLERANCE * ref:
            ok = fail(f"{name}: recovery goodput advantage "
                      f"{ratio:.2f}x regressed below "
                      f"{TOLERANCE * ref:.2f}x (= "
                      f"{TOLERANCE:.2f} x reference {ref:.2f}x)")
        if ok:
            print(f"check_bench: {name}: crash-script recovery "
                  f"goodput {ratio:.2f}x vs no-recovery baseline")

    transient_retry = [
        p for p in fault_meas
        if "transient" in p.get("faults", "")
        and "crash" not in p.get("faults", "")
        and "retry" in p.get("recovery", "")]
    if not transient_retry:
        ok = fail(f"{name}: no transient-only retry point measured")
    for p in transient_retry:
        if p.get("lost", -1) != 0:
            ok = fail(f"{name}: {point_label(p)} lost "
                      f"{p.get('lost')} requests under transient-only "
                      f"faults with retry (must be 0)")
        elif p.get("retries", 0) <= 0:
            ok = fail(f"{name}: {point_label(p)} recorded no retries "
                      f"— the transient fault axis went missing")
        else:
            print(f"check_bench: {name}: {point_label(p)} retried "
                  f"{p.get('retries')} transient failures, lost 0")
    for p in fault_meas:
        avail = p.get("availability", -1.0)
        if not 0.0 <= avail <= 1.0:
            ok = fail(f"{name}: {point_label(p)} availability "
                      f"{avail} outside [0, 1]")
    return ok


def check_hybrid(name, ref_points, meas_points):
    """Hybrid-dispatch gate: the intra-request split must never lose
    to the best single backend, must win materially at a
    mixed-density point, and measured ratios must track their
    key-matched reference. ratio_vs_best compares simulated kernel
    times, which are deterministic, so `HYBRID_TOLERANCE` only
    absorbs intentional cost-model changes."""
    ok = True
    for side, pts in (("reference", ref_points),
                      ("measured", meas_points)):
        for p in pts:
            ratio = p.get("ratio_vs_best", 0.0)
            if ratio < HYBRID_FLOOR:
                ok = fail(f"{name} ({side}): {point_label(p)} hybrid "
                          f"({ratio:.4f}x) lost to the best single "
                          f"backend (floor {HYBRID_FLOOR:.4f}x)")
        mixed = [p.get("ratio_vs_best", 0.0) for p in pts
                 if 0.0 < p.get("mix", 0.0) < 1.0]
        best = max(mixed, default=0.0)
        if best < HYBRID_WIN:
            ok = fail(f"{name} ({side}): best mixed-density win "
                      f"{best:.2f}x fell below the material-win "
                      f"threshold {HYBRID_WIN:.2f}x — the "
                      f"partition no longer pays off anywhere")
        else:
            print(f"check_bench: {name} ({side}): best mixed-density "
                  f"win {best:.2f}x over the best single backend")

    keys = ("mix", "b_sparsity", "b_kind")
    for p in meas_points:
        ratio = p.get("ratio_vs_best", 0.0)
        matches = [r.get("ratio_vs_best", 0.0) for r in ref_points
                   if point_key(r, keys) == point_key(p, keys)]
        if not matches:
            print(f"check_bench: note: {name} {point_label(p)} has "
                  f"no reference point with the same operating key; "
                  f"floor only")
            continue
        threshold = HYBRID_TOLERANCE * min(matches)
        if ratio < threshold:
            ok = fail(f"{name}: {point_label(p)} hybrid advantage "
                      f"{ratio:.4f}x regressed below "
                      f"{threshold:.4f}x (= "
                      f"{HYBRID_TOLERANCE:.2f} x reference "
                      f"{min(matches):.4f}x)")
    return ok


def check_spmm(name, ref_points, meas_points):
    """SpMM gate (micro_spmm): the narrow-tile format's real-matrix
    claims. Hard, both sides: every point must also be bitwise stable
    across worker counts (workers_bitwise_equal; plain bitwise_equal
    — narrow == scalar reference == wide == csr — is already gated by
    check_points). Reference sweep: the corpus-median narrow-vs-wide
    ratio must stay >= `SPMM_MEDIAN_WIN` (the tentpole's headline
    claim at 99%+ sparsity). Every point, both sides: Auto format
    selection must stay within `SPMM_SELECT_SLACK` of the better
    format, and the selected dual kernel must never lose to the
    cusparse-like baseline. All ratios compare simulated kernel
    times, which are deterministic, so `SPMM_TOLERANCE` on the
    measured-vs-reference ratio only absorbs intentional cost-model
    changes."""
    ok = True
    for side, pts in (("reference", ref_points),
                      ("measured", meas_points)):
        for p in pts:
            label = point_label(p)
            if not p.get("workers_bitwise_equal", False):
                ok = fail(f"{name} ({side}): {label} narrow kernel "
                          f"is not bitwise stable across worker "
                          f"counts")
            if p.get("cusparse_vs_selected", 0.0) < 1.0:
                ok = fail(f"{name} ({side}): {label} selected dual "
                          f"kernel lost to the cusparse-like "
                          f"baseline "
                          f"({p.get('cusparse_vs_selected'):.2f}x)")
            best = min(p.get("narrow_us", 0.0), p.get("wide_us", 0.0))
            sel = p.get("selected_us", 0.0)
            if not best > 0.0 or not sel > 0.0:
                ok = fail(f"{name} ({side}): {label} has "
                          f"non-positive simulated times")
            elif sel > SPMM_SELECT_SLACK * best:
                ok = fail(f"{name} ({side}): {label} Auto selection "
                          f"picked a format {sel / best:.3f}x the "
                          f"best (slack "
                          f"{SPMM_SELECT_SLACK:.2f}x)")

    ratios = sorted(p.get("narrow_vs_wide", 0.0) for p in ref_points)
    if not ratios:
        ok = fail(f"{name}: reference sweep has no points")
    else:
        mid = len(ratios) // 2
        median = ratios[mid] if len(ratios) % 2 else \
            0.5 * (ratios[mid - 1] + ratios[mid])
        if median < SPMM_MEDIAN_WIN:
            ok = fail(f"{name}: corpus-median narrow-vs-wide ratio "
                      f"{median:.2f}x fell below the "
                      f"{SPMM_MEDIAN_WIN:.2f}x headline floor")
        else:
            print(f"check_bench: {name}: corpus-median narrow-vs-"
                  f"wide {median:.2f}x over {len(ratios)} matrices")

    keys = ("matrix", "n")
    for p in meas_points:
        ratio = p.get("narrow_vs_wide", 0.0)
        matches = [r.get("narrow_vs_wide", 0.0) for r in ref_points
                   if point_key(r, keys) == point_key(p, keys)]
        if not matches:
            print(f"check_bench: note: {name} {point_label(p)} has "
                  f"no reference point with the same operating key; "
                  f"selection/baseline gates only")
            continue
        threshold = SPMM_TOLERANCE * min(matches)
        if ratio < threshold:
            ok = fail(f"{name}: {point_label(p)} narrow-vs-wide "
                      f"{ratio:.4f}x regressed below "
                      f"{threshold:.4f}x (= "
                      f"{SPMM_TOLERANCE:.2f} x reference "
                      f"{min(matches):.4f}x)")
    return ok


def check_precision(name, mode, ref_points, meas_points):
    """Precision-axis gate (see module docstring, gate 7)."""
    ok = True
    for side, pts in (("reference", ref_points),
                      ("measured", meas_points)):
        if not pts:
            ok = fail(f"{name} ({side}): no precision points — the "
                      f"datatype axis went missing")
            continue
        by_sparsity = {}
        for p in pts:
            if not p.get("bitwise_equal", False):
                ok = fail(f"{name} ({side}): precision point "
                          f"dtype={p.get('dtype')} "
                          f"sparsity={p.get('sparsity')} broke its "
                          f"in-domain bitwise guarantee")
            by_sparsity.setdefault(p.get("sparsity"),
                                   {})[p.get("dtype")] = p

        if mode == "gemm":
            gated = False
            for sparsity, by_dtype in sorted(by_sparsity.items()):
                f16 = by_dtype.get("fp16")
                i8 = by_dtype.get("int8")
                if not f16 or not i8 or \
                        not f16.get("memory_bound", False):
                    continue
                gated = True
                ratio = f16.get("modeled_us", 0.0) / \
                    max(i8.get("modeled_us", 0.0), 1e-9)
                if ratio < PRECISION_FLOOR:
                    ok = fail(
                        f"{name} ({side}): int8 advantage over fp16 "
                        f"at sparsity={sparsity} is {ratio:.2f}x, "
                        f"below the {PRECISION_FLOOR:.2f}x "
                        f"floor on simulated kernel time")
                else:
                    print(f"check_bench: {name} ({side}): int8 "
                          f"{ratio:.2f}x faster than fp16 at "
                          f"sparsity={sparsity} (simulated, "
                          f"memory-bound)")
        elif mode == "encode":
            for sparsity, by_dtype in sorted(by_sparsity.items()):
                f16 = by_dtype.get("fp16")
                for narrow in ("int8", "int4"):
                    p = by_dtype.get(narrow)
                    if not f16 or not p:
                        continue
                    if not p.get("encoded_mb", 0.0) < \
                            f16.get("encoded_mb", 0.0):
                        ok = fail(
                            f"{name} ({side}): {narrow} encoded "
                            f"footprint "
                            f"({p.get('encoded_mb')} MB) is not "
                            f"smaller than fp16's "
                            f"({f16.get('encoded_mb')} MB) at "
                            f"sparsity={sparsity}")

        if mode == "gemm" and not gated:
            ok = fail(f"{name} ({side}): no memory-bound fp16/int8 "
                      f"pair to gate the precision advantage on")
    return ok


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
    ref_points = reference.get("points", [])
    ok = check_points(f"{name} (reference)", ref_points,
                      require_positive=True)

    extra = ()
    if spec.get("corpus"):
        extra = ("--corpus", os.path.join(args.repo_root, "corpus"))
    print(f"check_bench: running {binary} --quick ...")
    measured = run_quick(binary, args.timeout, extra)
    if measured is None:
        return fail(f"{name}: quick run failed")
    measured_config = measured.get("config", {})
    meas_points = measured.get("points", [])
    if not meas_points:
        return fail(f"{name}: quick run produced no points")
    ok = check_points(f"{name} (measured)", meas_points,
                      require_positive=True) and ok

    if spec.get("mode") == "cluster":
        ok = check_cluster(name, ref_points, meas_points) and ok
        if ok:
            print(f"check_bench: {name}: "
                  f"{len(meas_points)} quick points green")
        return ok

    if spec.get("mode") == "serve":
        ok = check_serve(name, ref_points, meas_points) and ok
        ok = check_serve_faults(name, ref_points, meas_points) and ok
        if ok:
            print(f"check_bench: {name}: "
                  f"{len(meas_points)} quick points green")
        return ok

    if spec.get("mode") == "hybrid":
        ok = check_hybrid(name, ref_points, meas_points) and ok
        if ok:
            print(f"check_bench: {name}: "
                  f"{len(meas_points)} quick points green")
        return ok

    if spec.get("mode") == "spmm":
        ok = check_spmm(name, ref_points, meas_points) and ok
        if ok:
            print(f"check_bench: {name}: "
                  f"{len(meas_points)} quick points green")
        return ok

    keys = spec["keys"]
    for p in meas_points:
        speedup = p.get("speedup_word_vs_scalar", 0.0)
        label = point_label(p)

        if speedup < MIN_SPEEDUP:
            ok = fail(f"{name}: {label} word path speedup {speedup:.2f}x "
                      f"fell below the absolute floor "
                      f"{MIN_SPEEDUP:.2f}x")

        matches = [r.get("speedup_word_vs_scalar", 0.0)
                   for r in ref_points
                   if point_key(r, keys) == point_key(p, keys)]
        if not matches:
            print(f"check_bench: note: {name} {label} has no "
                  f"reference point with the same operating key; "
                  f"absolute floor only")
            continue
        threshold = TOLERANCE * min(matches)
        if speedup < threshold:
            ok = fail(
                f"{name}: {label} speedup {speedup:.2f}x regressed "
                f"below {threshold:.2f}x (= {TOLERANCE:.2f} x "
                f"reference {min(matches):.2f}x)")

        # Single-rep timings are one raw sample each; a late pool
        # wake-up can triple a sub-millisecond pooled point, so the
        # slack check only applies to best-of-N measurements. On a
        # single hardware thread the pool cannot scale at all (every
        # worker timeshares one core), so the comparison is skipped
        # there outright.
        reps = measured_config.get("reps", 1)
        cores = measured_config.get("hardware_concurrency", 0)
        par = p.get("parallel_ms", 0.0)
        word = p.get("word_ms", 0.0)
        if reps >= 2 and cores != 1 and par > 0 and word > 0 and \
                par > PARALLEL_SLACK * word:
            ok = fail(f"{name}: {label} pooled path ({par:.3f} ms) "
                      f"is worse than {PARALLEL_SLACK:.1f}x the "
                      f"single-thread word path ({word:.3f} ms)")

    if spec.get("precision"):
        ok = check_precision(name, spec["precision"],
                             reference.get("precision_points", []),
                             measured.get("precision_points",
                                          [])) and ok

    if ok:
        print(f"check_bench: {name}: "
              f"{len(meas_points)} quick points green")
    return ok


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
