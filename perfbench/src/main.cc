/**
 * @file
 * The benchmark program: runs one named workload with a seed for a
 * number of seconds and prints every metric by name and unit, then a
 * final JSON line. See README.md beside this directory's sources.
 *
 *   perfbench --workload serve-mix|sparse-kernels
 *             --seed N --seconds S --trace 0|1 [--trace-file PATH]
 *             [--corpus DIR]
 *
 * sparse-kernels needs --corpus, the repository's corpus/ directory.
 *
 * --trace 0 reports the end-to-end metrics from untraced passes.
 * --trace 1 spends half the time untraced and half traced, and
 * reports the per-layer metrics, the span coverage of each op and the
 * tracing overhead; the spans go to --trace-file.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "arith.h"
#include "core/thread_pool.h"
#include "trace.h"
#include "workload.h"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_file;
    std::string corpus;
};

bool
parseArgs(int argc, char **argv, Args *args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload")
            args->workload = value;
        else if (key == "--seed")
            args->seed = std::strtoull(value, &end, 10);
        else if (key == "--seconds")
            args->seconds = std::strtod(value, &end);
        else if (key == "--trace")
            args->trace = std::strtol(value, &end, 10) != 0;
        else if (key == "--trace-file")
            args->trace_file = value;
        else if (key == "--corpus")
            args->corpus = value;
        else {
            std::fprintf(stderr, "unknown flag %s\n", key.c_str());
            return false;
        }
        if (end && *end) {
            std::fprintf(stderr, "bad value for %s: %s\n", key.c_str(),
                         value);
            return false;
        }
    }
    if ((argc - 1) % 2 != 0 || args->workload.empty() ||
        !(args->seconds > 0.0) ||
        (args->workload == "sparse-kernels" && args->corpus.empty())) {
        std::fprintf(stderr,
                     "usage: perfbench --workload "
                     "serve-mix|sparse-kernels --seed N "
                     "--seconds S --trace 0|1 [--trace-file PATH] "
                     "[--corpus DIR (sparse-kernels)]\n");
        return false;
    }
    return true;
}

double
elapsedS(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         since)
        .count();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::string
cpuFeatures()
{
    std::string s;
    __builtin_cpu_init();
    auto add = [&s](const char *name, bool has) {
        if (has)
            s += s.empty() ? name : std::string(",") + name;
    };
    add("popcnt", __builtin_cpu_supports("popcnt"));
    add("bmi2", __builtin_cpu_supports("bmi2"));
    add("avx2", __builtin_cpu_supports("avx2"));
    add("avx512f", __builtin_cpu_supports("avx512f"));
    return s;
}

/** A metric of the final line: value and unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

std::string
formatNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonMetrics(const std::map<std::string, Metric> &metrics)
{
    std::string s = "{";
    for (const auto &[name, m] : metrics) {
        if (s.size() > 1)
            s += ", ";
        s += "\"" + name + "\": {\"value\": " + formatNumber(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return s + "}";
}

/** Names of the exact figures whose value differs between passes. */
std::vector<std::string>
exactMismatches(const std::map<std::string, double> &want,
                const std::map<std::string, double> &got)
{
    std::vector<std::string> names;
    std::set<std::string> keys;
    for (const auto &kv : want)
        keys.insert(kv.first);
    for (const auto &kv : got)
        keys.insert(kv.first);
    for (const std::string &k : keys) {
        const auto a = want.find(k), b = got.find(k);
        if (a == want.end() || b == got.end() ||
            std::memcmp(&a->second, &b->second, sizeof(double)) != 0)
            names.push_back(k);
    }
    return names;
}

/** Per-pass figures derived from one traced pass's spans. */
struct TracedPass
{
    std::map<std::string, double> span_ms;   ///< per name, summed
    std::map<std::string, double> self_ms;   ///< per module, summed
    double op_ms = 0.0;                      ///< op root spans
    double covered_ms = 0.0;                 ///< their children's union
    double min_coverage = 1.0;
    std::vector<OpTime> op_spans;            ///< each op root span
};

TracedPass
summarizeSpans(const std::vector<Span> &all, size_t first, size_t last)
{
    TracedPass t;
    std::vector<Span> rebased(all.begin() + first, all.begin() + last);
    for (Span &s : rebased)
        if (s.parent >= 0)
            s.parent -= static_cast<int>(first);
    const std::vector<double> self = selfTimesMs(rebased);
    for (size_t i = 0; i < rebased.size(); ++i) {
        const Span &s = rebased[i];
        t.span_ms[s.name] += s.durationMs();
        // Probes and checks are not work a user waits for: they stay
        // out of the module table (spans are in parent-first order).
        int root = static_cast<int>(i);
        while (rebased[static_cast<size_t>(root)].parent >= 0)
            root = rebased[static_cast<size_t>(root)].parent;
        const std::string &root_name = rebased[static_cast<size_t>(root)].name;
        if (root_name != "probe" && root_name != "check")
            t.self_ms[s.name == "op" ? "uncovered" : moduleOf(s.name)] +=
                self[i];
        if (s.name == "op" && s.parent < 0) {
            const double cov = childCoverage(rebased, static_cast<int>(i));
            t.op_ms += s.durationMs();
            t.covered_ms += cov * s.durationMs();
            t.min_coverage = std::min(t.min_coverage, cov);
            t.op_spans.push_back(
                {static_cast<size_t>(s.op), s.durationMs(), 0.0, 1});
        }
    }
    return t;
}

void
writeTraceFile(const std::string &path, const Args &args,
               const std::vector<Span> &spans,
               const std::map<std::string, double> &self_by_module,
               double coverage, double min_coverage, double overhead)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write trace file %s\n", path.c_str());
        return;
    }
    out << "{\"workload\": \"" << args.workload << "\", \"seed\": "
        << args.seed << ",\n \"coverage\": " << formatNumber(coverage)
        << ", \"min_op_coverage\": " << formatNumber(min_coverage)
        << ", \"overhead_share\": " << formatNumber(overhead)
        << ",\n \"self_ms_per_pass\": {";
    bool first = true;
    for (const auto &[module, ms] : self_by_module) {
        out << (first ? "" : ", ") << "\"" << module
            << "\": " << formatNumber(ms);
        first = false;
    }
    out << "},\n \"spans\": [\n";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "  {\"name\": \"" << s.name
            << "\", \"start_ms\": " << formatNumber(s.start_ms)
            << ", \"end_ms\": " << formatNumber(s.end_ms)
            << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}"
            << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << " ]}\n";
}

double
sumWallMs(const std::vector<OpTime> &ops)
{
    double sum = 0.0;
    for (const OpTime &t : ops)
        sum += t.wall_ms;
    return sum;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, &args))
        return 2;
    std::unique_ptr<Workload> workload;
    if (args.workload == "serve-mix")
        workload = makeServeMix(args.seed);
    else if (args.workload == "sparse-kernels")
        workload = makeSparseKernels(args.seed, args.corpus);
    else {
        std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
        return 2;
    }

    std::printf("# provenance: workload=%s seed=%llu seconds=%g trace=%d "
                "hardware_concurrency=%u shared_pool_threads=%d "
                "cpu_features=%s compiler=\"%s %s\" build=\"%s\" "
                "workers=library defaults (Session encode_workers=1, "
                "compute_workers=shared pool; ServingOptions "
                "num_threads=1)\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, std::thread::hardware_concurrency(),
                dstc::sharedThreadPool().numThreads(), cpuFeatures().c_str(),
#ifdef __clang__
                "clang",
#else
                "gcc",
#endif
                __VERSION__, PB_BUILD_FLAGS);

    // -- passes ------------------------------------------------------
    Tracer off(false), on(true);
    std::vector<PassResult> untraced, traced;
    std::vector<TracedPass> traced_spans;
    int64_t attempted = 0, failed = 0;
    std::vector<std::string> errors;
    std::optional<std::map<std::string, double>> reference_exact;
    std::optional<std::map<std::string, double>> reference_untraced;
    int passes_run = 0;
    auto runOne = [&](Tracer &tracer) {
        const size_t first_span = tracer.spans().size();
        PassResult pass;
        try {
            pass = workload->runPass(tracer);
        } catch (const std::exception &ex) {
            pass.attempted = 1;
            pass.fail(std::string("pass threw: ") + ex.what());
        }
        auto compare = [&](std::optional<std::map<std::string, double>>
                               &reference,
                           const std::map<std::string, double> &got) {
            if (!reference) {
                reference = got;
                return;
            }
            for (const std::string &name : exactMismatches(*reference, got)) {
                ++failed;
                if (errors.size() < 8)
                    errors.push_back(std::string(tracer.enabled()
                                                     ? "traced"
                                                     : "untraced") +
                                     " pass: exact figure " + name +
                                     " differs from the first pass");
            }
        };
        compare(reference_exact, pass.exact);
        if (!tracer.enabled())
            compare(reference_untraced, pass.untraced);
        std::fprintf(stderr,
                     "pass %d%s: setup %.4f s, measured %.4f s, %lld ops, "
                     "%lld failed\n",
                     passes_run++,
                     tracer.enabled() ? " (traced)" : "", pass.setup_s,
                     pass.measured_s, static_cast<long long>(pass.ops),
                     static_cast<long long>(pass.failed));
        attempted += pass.attempted;
        failed += pass.failed;
        for (const std::string &e : pass.errors)
            if (errors.size() < 8)
                errors.push_back(e);
        if (tracer.enabled()) {
            traced_spans.push_back(
                summarizeSpans(tracer.spans(), first_span,
                               tracer.spans().size()));
            traced.push_back(std::move(pass));
        } else {
            untraced.push_back(std::move(pass));
        }
    };

    // The first pass warms up (first-touch memory, process-wide memo
    // tables) and is checked against the references; it is not timed.
    runOne(off);
    const PassResult warmup = std::move(untraced.front());
    untraced.clear();

    // Passes run until the next one, as long as the last, would end
    // past the budget: a run ends near --seconds, never a pass beyond.
    const auto start = std::chrono::steady_clock::now();
    auto runUntil = [&](Tracer &tracer, double budget_s) {
        double pass_s = 0.0;
        do {
            const auto pass_start = std::chrono::steady_clock::now();
            runOne(tracer);
            pass_s = elapsedS(pass_start);
        } while (elapsedS(start) + pass_s <= budget_s);
    };
    runUntil(off, args.trace ? args.seconds / 2.0 : args.seconds);
    if (args.trace)
        runUntil(on, args.seconds);
    // Read before runOnce, so the peak covers the workload's passes.
    const double peak_rss_mb = peakRssMb();
    const std::map<std::string, double> exact = warmup.exact;
    std::map<std::string, double> once;
    try {
        once = workload->runOnce();
    } catch (const std::exception &ex) {
        ++attempted;
        ++failed;
        errors.push_back(std::string("runOnce threw: ") + ex.what());
    }
    const std::map<std::string, double> &untraced_exact = warmup.untraced;
    const std::map<std::string, double> *exact_maps[] = {&once, &exact,
                                                         &untraced_exact};
    auto exactValue = [&](const std::string &name) {
        for (const std::map<std::string, double> *m : exact_maps)
            if (const auto it = m->find(name); it != m->end())
                return it->second;
        return 0.0;
    };

    // -- end-to-end metrics (untraced passes) --------------------------
    // Every pass repeats the same ops; the host-time metrics take each
    // op at its median over the timed passes, which other tenants of a
    // shared host slowing some passes moves least.
    std::vector<OpTime> op_samples;
    for (const PassResult &p : untraced)
        op_samples.insert(op_samples.end(), p.op_times.begin(),
                          p.op_times.end());
    const bool cpu_clock = workload->hostClock() == HostClock::Cpu;
    const std::vector<OpTime> op_medians = medianOps(op_samples);
    std::vector<double> op_latency_ms;
    int64_t completed = 0;
    double pass_ms = 0.0;
    for (const OpTime &t : op_medians) {
        const double ms = cpu_clock ? t.cpu_ms : t.wall_ms;
        op_latency_ms.push_back(
            ms / static_cast<double>(std::max<int64_t>(1, t.completed)));
        completed += t.completed;
        pass_ms += ms;
    }
    const Percentile p50 = nearestRank(op_latency_ms, 50.0);
    const Percentile p95 = nearestRank(op_latency_ms, 95.0);
    const double throughput =
        pass_ms > 0.0 ? static_cast<double>(completed) / (pass_ms * 1e-3)
                      : 0.0;
    std::vector<double> setups;
    for (const PassResult &p : untraced)
        setups.push_back(cpu_clock ? p.setup_cpu_s : p.setup_s);

    std::map<std::string, Metric> e2e;
    e2e["throughput"] = {throughput, "ops/s"};
    e2e["op_ms_p50"] = {p50.value, "ms"};
    e2e["op_ms_p95"] = {p95.value, "ms"};
    e2e["setup_s"] = {median(setups), "s"};
    e2e["peak_rss_mb"] = {peak_rss_mb, "MB"};
    e2e["sim_us"] = {exactValue("sim_us"), "us"};
    e2e["sim_speedup_vs_dense"] = {exactValue("sim_speedup_vs_dense"), "x"};
    e2e["sim_p99_us"] = {exactValue("sim_p99_us"), "us"};
    e2e["sim_goodput_rpms"] = {exactValue("sim_goodput_rpms"), "req/ms"};

    const double error_rate =
        attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;
    std::printf("# passes: 1 warm-up, %zu untraced (each op at its median "
                "over them, on the %s clock), %zu traced; %zu exact figures "
                "checked; op samples %zu (p95 leaves %zu beyond it%s)\n",
                untraced.size(), cpu_clock ? "process CPU" : "wall",
                traced.size(), exact.size(), p95.count,
                p95.beyond,
                p95.resolved() ? "" : "; fewer than ten: unresolved");
    std::printf("# error_rate = %s failed/attempted (%lld / %lld)\n",
                formatNumber(error_rate).c_str(),
                static_cast<long long>(failed),
                static_cast<long long>(attempted));
    for (const std::string &e : errors)
        std::printf("# FAILED: %s\n", e.c_str());

    std::map<std::string, Metric> printed = e2e;
    if (args.trace) {
        // -- per-layer metrics ------------------------------------------
        std::map<std::string, Metric> layer;
        // Per traced pass, median over the passes that made the call
        // (the serve replay check runs in the first traced pass only).
        auto spanMedian = [&](const std::string &name) {
            std::vector<double> v;
            for (const TracedPass &t : traced_spans)
                if (const auto it = t.span_ms.find(name);
                    it != t.span_ms.end())
                    v.push_back(it->second);
            return median(v);
        };
        for (const char *name :
             {"serve.run", "serve.arrivals", "serve.replay",
              "core.cluster.capacity", "core.digest", "sparse.encode", "sparse.mtx_load",
              "gemm.profile", "gemm.spgemm", "gemm.spmm",
              "gemm.spmm_time_from_profile", "im2col.lower", "conv.run",
              "conv.time_only", "model.layer_requests"})
            layer[std::string(name) + "_ms"] = {spanMedian(name), "ms"};
        {
            double total_ms = 0.0;
            int64_t calls = 0;
            for (const Span &span : on.spans())
                if (span.name == "gemm.time_from_profiles") {
                    total_ms += span.durationMs();
                    ++calls;
                }
            layer["gemm.time_from_profiles_us"] = {
                calls ? total_ms * 1e3 / static_cast<double>(calls) : 0.0,
                "us"};
        }
        std::vector<double> plan, execute, plan_sum, execute_sum, cpw;
        for (const PassResult &p : untraced) {
            plan.insert(plan.end(), p.plan_ms.begin(), p.plan_ms.end());
            execute.insert(execute.end(), p.execute_ms.begin(),
                           p.execute_ms.end());
            double ps = 0.0, es = 0.0;
            for (double v : p.plan_ms)
                ps += v;
            for (double v : p.execute_ms)
                es += v;
            plan_sum.push_back(ps);
            execute_sum.push_back(es);
            cpw.push_back(p.measured_s > 0.0 ? p.cpu_s / p.measured_s : 0.0);
        }
        layer["core.plan_ms_p50"] = {nearestRank(plan, 50.0).value, "ms"};
        layer["core.plan_ms_sum"] = {median(plan_sum), "ms"};
        layer["core.execute_ms_p50"] = {nearestRank(execute, 50.0).value,
                                        "ms"};
        layer["core.execute_ms_sum"] = {median(execute_sum), "ms"};
        layer["core.thread_pool.cpu_per_wall"] = {median(cpw), "cpu_s/s"};
        for (const char *name :
             {"serve.completed", "serve.rejected", "serve.dropped",
              "serve.steals", "serve.microbatched", "core.auto_candidates",
              "core.cache.hits", "core.cache.misses", "core.cache.evictions",
              "isa.ohmma_issued", "isa.ohmma_skipped",
              "gemm.warp_tiles_skipped", "timing.merge_memo_entries"})
            layer[name] = {exactValue(name), "count"};
        layer["core.cache.hit_ratio"] = {exactValue("core.cache.hit_ratio"),
                                         "share"};
        layer["core.cache.mb"] = {exactValue("core.cache.mb"), "MB"};
        layer["serve.capacity_rpms"] = {exactValue("serve.capacity_rpms"),
                                        "req/ms"};
        layer["serve.offered"] = {exactValue("serve.offered"), "count"};
        layer["timing.dram_mb"] = {exactValue("timing.dram_mb"), "MB"};
        layer["timing.compute_bound_share"] = {
            exactValue("timing.compute_bound_share"), "share"};
        {
            const auto &t = traced.empty() ? std::map<std::string, double>{}
                                           : traced.front().traced;
            const auto it = t.find("sparse.encoded_mb");
            layer["sparse.encoded_mb"] = {it == t.end() ? 0.0 : it->second,
                                          "MB"};
        }

        // Self time per module, per traced pass (median).
        std::map<std::string, double> self_by_module;
        for (const char *module : {"serve", "core", "sparse", "gemm",
                                   "im2col", "conv", "model", "uncovered"}) {
            std::vector<double> v;
            for (const TracedPass &t : traced_spans) {
                const auto it = t.self_ms.find(module);
                v.push_back(it == t.self_ms.end() ? 0.0 : it->second);
            }
            self_by_module[module] = median(v);
            layer[std::string("self.") + module + "_ms"] = {median(v), "ms"};
        }
        double op_ms = 0.0, covered_ms = 0.0, min_cov = 1.0;
        std::vector<OpTime> span_samples;
        for (const TracedPass &t : traced_spans) {
            op_ms += t.op_ms;
            covered_ms += t.covered_ms;
            min_cov = std::min(min_cov, t.min_coverage);
            span_samples.insert(span_samples.end(), t.op_spans.begin(),
                                t.op_spans.end());
        }
        const double coverage = op_ms > 0.0 ? covered_ms / op_ms : 0.0;
        // Both runs do the same ops, each taken at its median pass, so
        // the throughput loss is the untraced share of the traced time
        // (wall time: spans have no CPU clock).
        const double traced_ms = sumWallMs(medianOps(span_samples));
        const double overhead =
            traced_ms > 0.0 ? 1.0 - sumWallMs(op_medians) / traced_ms : 0.0;
        layer["trace.coverage"] = {coverage, "share"};
        layer["trace.min_op_coverage"] = {min_cov, "share"};
        layer["trace.overhead"] = {overhead, "share"};

        std::printf("# per-module self time per traced pass (ms):");
        for (const auto &[module, ms] : self_by_module)
            std::printf(" %s=%.3f", module.c_str(), ms);
        std::printf("\n# span coverage of op wall time %.4f (min per op "
                    "%.4f); tracing overhead %.4f of untraced throughput\n",
                    coverage, min_cov, overhead);
        if (!args.trace_file.empty())
            writeTraceFile(args.trace_file, args, on.spans(), self_by_module,
                           coverage, min_cov, overhead);
        printed = layer;
    }

    for (const auto &[name, m] : printed)
        std::printf("%-32s %s %s\n", name.c_str(),
                    formatNumber(m.value).c_str(), m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed), jsonMetrics(printed).c_str());
    return 0;
}
