/**
 * @file
 * In-memory spans of the traced run.
 *
 * Spans are recorded only by the benchmark, around its calls into the
 * library's public functions; the library itself is not instrumented.
 * Each span has a name ("<module>.<call>"), host start and end times,
 * the index of the span that caused it (-1 for a root) and the id of
 * the op it belongs to (-1 for set-up and probe work). Spans stay in
 * memory and are written out once, when the run ends.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span
{
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
    int64_t op = -1;

    double durationMs() const { return end_ms - start_ms; }
};

/** Records nested spans from one thread; a disabled tracer records
 *  nothing and costs one branch per span. */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Op id stamped on spans begun from now on (-1 = none). */
    void setOp(int64_t op) { op_ = op; }

    /** Open a span under the innermost open one; returns its index
     *  (-1 when disabled). */
    int begin(const char *name);

    /** Close span @p index (the innermost open one). */
    void end(int index);

    const std::vector<Span> &spans() const { return spans_; }

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name)
            : tracer_(tracer), index_(tracer.begin(name))
        {
        }
        ~Scope() { tracer_.end(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        int index_;
    };

  private:
    double nowMs() const;

    bool enabled_;
    int64_t op_ = -1;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** Length of the union of half-open [start, end) intervals: time
 *  covered by several overlapping intervals counts once. */
double unionLength(std::vector<std::pair<double, double>> intervals);

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by the union of its children's intervals (each
 * clipped to the parent). Children that overlap one another, as
 * parallel calls would, are counted once.
 */
std::vector<double> selfTimesMs(const std::vector<Span> &spans);

/** Share of span @p root's duration covered by its children. */
double childCoverage(const std::vector<Span> &spans, int root);

/** Module of a span name: the text before the first '.'. */
std::string moduleOf(const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
