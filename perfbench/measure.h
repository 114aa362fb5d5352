// Measurement arithmetic of the benchmark of record: percentiles with a
// samples-beyond rule, quantiles of bucketed latency histograms, span self
// times from a Chrome trace, and the open-loop rate-ladder search. Kept
// free of workload code so the self-tests can pin each rule on synthetic
// inputs.
#ifndef OISCHED_PERFBENCH_MEASURE_H
#define OISCHED_PERFBENCH_MEASURE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of a sample: the value at rank ceil(q * n)
/// (1-based) of the sorted sample, and how many samples lie beyond that
/// rank. A tail percentile is only reported when `beyond` is large enough
/// to mean something (see tail()).
struct Percentile {
  double value = 0.0;
  std::size_t count = 0;   // sample size
  std::size_t beyond = 0;  // samples ranked after the percentile's rank
};

/// q in (0, 1]. Sorts a copy; an empty sample gives {0, 0, 0}.
[[nodiscard]] Percentile percentile(std::span<const double> sample, double q);

/// The percentile `q` when at least `min_beyond` samples lie beyond it;
/// throws std::runtime_error otherwise — a run too short for its tail is
/// a sizing bug of the benchmark, never a result.
[[nodiscard]] Percentile tail(std::span<const double> sample, double q,
                              std::size_t min_beyond);

[[nodiscard]] double median(std::vector<double> sample);

/// Quantile q in [0, 1] of a small sample, interpolated linearly between
/// the two nearest order statistics (q = 0.5 is the median). For figures
/// over a handful of timed units, not for latency tails (see tail()).
[[nodiscard]] double quantile(std::vector<double> sample, double q);

/// Nearest-rank quantile of a bucketed histogram whose bucket b covers
/// [edges[b], edges[b+1]), interpolated log-linearly inside the bucket by
/// the rank's position among the bucket's samples. `counts` has
/// edges.size() - 1 entries; buckets with a zero lower edge interpolate
/// linearly.
[[nodiscard]] double bucket_quantile(std::span<const std::uint64_t> counts,
                                     std::span<const double> edges, double q);

/// One complete span of a Chrome trace ("ph":"X").
struct Span {
  std::string name;
  std::size_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

/// The complete spans of a Chrome trace-event JSON document.
[[nodiscard]] std::vector<Span> parse_spans(const std::string& trace_json);

/// Per-name totals over a set of spans nested by time on each track.
struct SpanTotals {
  double total_us = 0.0;  // sum of durations
  double self_us = 0.0;   // sum of durations minus direct children
  std::size_t roots = 0;  // spans with no enclosing span on their track
};

/// A span's self time is its duration minus the part its direct children
/// cover; children are the spans of the same track that lie inside it
/// (within `slack_us`, the trace's timestamp rounding). Spans that
/// overlap without nesting are attributed to the innermost open span
/// that contains their start, as a stack walk would.
[[nodiscard]] std::map<std::string, SpanTotals> self_times(std::vector<Span> spans,
                                                           double slack_us = 0.002);

/// Outcome of one rung of an open-loop rate ladder.
struct RungResult {
  double rate = 0.0;         // offered events/s
  double p99_s = 0.0;        // p99 latency from due time
  bool backlog_grew = false;
};

/// Walks `rungs` (ascending rates) from the lowest, probing each, and
/// stops at the first rung whose p99 exceeds `limit_s` or whose backlog
/// grew. Returns every probed rung; the highest passing rate is
/// max_passing_rate() of that list (0 when the lowest rung fails).
[[nodiscard]] std::vector<RungResult> ladder_search(
    std::span<const double> rungs, double limit_s,
    const std::function<RungResult(double rate)>& probe);

[[nodiscard]] double max_passing_rate(std::span<const RungResult> probed, double limit_s);

/// Runs the self-tests of this file's arithmetic and returns the number
/// of failures. Failed checks always go to stderr; passed ones too when
/// `verbose`.
int run_self_tests(bool verbose);

}  // namespace perfbench

#endif  // OISCHED_PERFBENCH_MEASURE_H
