#include "trace.h"

#include <algorithm>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now())
{
}

double
Tracer::nowMs() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int
Tracer::begin(const char *name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op_;
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
    open_.push_back(index);
    spans_.back().start_ms = nowMs();
    return index;
}

void
Tracer::end(int index)
{
    if (index < 0)
        return;
    spans_[static_cast<size_t>(index)].end_ms = nowMs();
    if (!open_.empty() && open_.back() == index)
        open_.pop_back();
}

double
unionLength(std::vector<std::pair<double, double>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double run_start = 0.0, run_end = 0.0;
    bool open = false;
    for (const auto &[start, end] : intervals) {
        if (end <= start)
            continue;
        if (open && start <= run_end) {
            run_end = std::max(run_end, end);
            continue;
        }
        if (open)
            covered += run_end - run_start;
        run_start = start;
        run_end = end;
        open = true;
    }
    if (open)
        covered += run_end - run_start;
    return covered;
}

namespace {

std::vector<std::vector<std::pair<double, double>>>
childIntervals(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0)
            continue;
        const Span &p = spans[static_cast<size_t>(s.parent)];
        children[static_cast<size_t>(s.parent)].emplace_back(
            std::max(s.start_ms, p.start_ms),
            std::min(s.end_ms, p.end_ms));
    }
    return children;
}

} // namespace

std::vector<double>
selfTimesMs(const std::vector<Span> &spans)
{
    const auto children = childIntervals(spans);
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].durationMs() - unionLength(children[i]);
    return self;
}

double
childCoverage(const std::vector<Span> &spans, int root)
{
    const Span &r = spans[static_cast<size_t>(root)];
    std::vector<std::pair<double, double>> children;
    for (const Span &s : spans)
        if (s.parent == root)
            children.emplace_back(std::max(s.start_ms, r.start_ms),
                                  std::min(s.end_ms, r.end_ms));
    const double d = r.durationMs();
    return d > 0.0 ? unionLength(std::move(children)) / d : 1.0;
}

std::string
moduleOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // namespace perfbench
