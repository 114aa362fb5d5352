#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/json_reader.h"

namespace perfbench {

Percentile percentile(std::span<const double> sample, double q) {
  Percentile out;
  out.count = sample.size();
  if (sample.empty()) return out;
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * n - 1e-9)), 1, sorted.size());
  out.value = sorted[rank - 1];
  out.beyond = sorted.size() - rank;
  return out;
}

Percentile tail(std::span<const double> sample, double q, std::size_t min_beyond) {
  Percentile out = percentile(sample, q);
  if (out.beyond < min_beyond) {
    throw std::runtime_error("percentile " + std::to_string(q) + " of " +
                             std::to_string(out.count) + " samples has only " +
                             std::to_string(out.beyond) + " beyond it (need " +
                             std::to_string(min_beyond) + ")");
  }
  return out;
}

double median(std::vector<double> sample) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const std::size_t mid = sample.size() / 2;
  return sample.size() % 2 == 1 ? sample[mid] : 0.5 * (sample[mid - 1] + sample[mid]);
}

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double position = std::clamp(q, 0.0, 1.0) * static_cast<double>(sample.size() - 1);
  const auto below = static_cast<std::size_t>(position);
  if (below + 1 >= sample.size()) return sample.back();
  const double frac = position - static_cast<double>(below);
  return sample[below] + frac * (sample[below + 1] - sample[below]);
}

double bucket_quantile(std::span<const std::uint64_t> counts, std::span<const double> edges,
                       double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total) - 1e-9)));
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    if (counts[b] == 0 || below + counts[b] < rank) {
      below += counts[b];
      continue;
    }
    // Position of the rank inside the bucket, centred on its samples:
    // the k-th of c samples sits at (k - 0.5) / c of the bucket's width.
    const double within = (static_cast<double>(rank - below) - 0.5) /
                          static_cast<double>(counts[b]);
    const double lo = edges[b];
    const double hi = edges[b + 1];
    if (!std::isfinite(hi)) return lo;
    if (lo <= 0.0) return lo + within * (hi - lo);
    return lo * std::pow(hi / lo, within);
  }
  return edges[counts.size()];
}

std::vector<Span> parse_spans(const std::string& trace_json) {
  const oisched::JsonValue document = oisched::parse_json(trace_json);
  const oisched::JsonValue& events = document.at("traceEvents");
  std::vector<Span> spans;
  spans.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const oisched::JsonValue& event = events.item(i);
    if (event.at("ph").as_string() != "X") continue;
    spans.push_back(Span{event.at("name").as_string(),
                         static_cast<std::size_t>(event.at("tid").as_int()),
                         event.at("ts").as_double(), event.at("dur").as_double()});
  }
  return spans;
}

std::map<std::string, SpanTotals> self_times(std::vector<Span> spans, double slack_us) {
  // Parents first: by track, then start, then longest first, so a child
  // that starts with its parent still sorts after it.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;
  });
  std::vector<double> child_us(spans.size(), 0.0);
  std::vector<bool> is_root(spans.size(), false);
  std::vector<std::size_t> open;  // stack of indices into spans
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i > 0 && spans[i].tid != spans[i - 1].tid) open.clear();
    const double start = spans[i].ts_us;
    while (!open.empty() &&
           spans[open.back()].ts_us + spans[open.back()].dur_us <= start + slack_us) {
      open.pop_back();
    }
    if (open.empty()) {
      is_root[i] = true;
    } else {
      child_us[open.back()] += spans[i].dur_us;
    }
    open.push_back(i);
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    t.total_us += spans[i].dur_us;
    t.self_us += spans[i].dur_us - child_us[i];
    if (is_root[i]) ++t.roots;
  }
  return totals;
}

std::vector<RungResult> ladder_search(std::span<const double> rungs, double limit_s,
                                      const std::function<RungResult(double rate)>& probe) {
  std::vector<RungResult> probed;
  for (const double rate : rungs) {
    probed.push_back(probe(rate));
    if (probed.back().p99_s > limit_s || probed.back().backlog_grew) break;
  }
  return probed;
}

double max_passing_rate(std::span<const RungResult> probed, double limit_s) {
  double best = 0.0;
  for (const RungResult& rung : probed) {
    if (rung.p99_s > limit_s || rung.backlog_grew) break;
    best = rung.rate;
  }
  return best;
}

// --- self-tests ------------------------------------------------------------

namespace {

bool near(double a, double b, double tol = 1e-9) {
  return std::abs(a - b) <= tol * std::max(1.0, std::abs(b));
}

}  // namespace

int run_self_tests(bool verbose) {
  const auto check = [verbose](bool ok, const char* what) {
    if (!ok || verbose) std::fprintf(stderr, "  %s %s\n", ok ? "ok  " : "FAIL", what);
    return ok ? 0 : 1;
  };
  const auto section = [verbose](const char* name) {
    if (verbose) std::fprintf(stderr, "self-test: %s\n", name);
  };
  int failures = 0;
  section("percentile rule");
  {
    std::vector<double> sample;
    for (int i = 1; i <= 4000; ++i) sample.push_back(static_cast<double>(i));
    const Percentile p99 = percentile(sample, 0.99);
    failures += check(p99.value == 3960.0 && p99.beyond == 40 && p99.count == 4000,
                      "p99 of 1..4000 is 3960 with 40 samples beyond");
    const Percentile p50 = percentile(sample, 0.5);
    failures += check(p50.value == 2000.0 && p50.beyond == 2000, "p50 of 1..4000 is 2000");
    bool threw = false;
    try {
      (void)tail(std::span<const double>(sample).first(3999), 0.99, 40);
    } catch (const std::runtime_error&) {
      threw = true;
    }
    failures += check(threw, "p99 of 3999 samples is refused when 40 must lie beyond");
    failures += check(tail(sample, 0.99, 40).value == 3960.0,
                      "p99 of 4000 samples passes the 40-beyond rule");
    std::vector<double> reversed(sample.rbegin(), sample.rend());
    failures += check(percentile(reversed, 0.99).value == 3960.0,
                      "percentile ignores input order");
    failures += check(percentile(std::vector<double>{7.0}, 0.99).value == 7.0 &&
                          percentile(std::vector<double>{7.0}, 0.99).beyond == 0,
                      "single sample is its own p99 with nothing beyond");
    failures += check(median({3.0, 1.0, 2.0}) == 2.0 && median({4.0, 1.0, 2.0, 3.0}) == 2.5,
                      "median of odd and even samples");
    failures += check(quantile({4.0, 1.0, 3.0, 2.0}, 0.5) == 2.5 &&
                          quantile({3.0, 1.0, 2.0}, 0.5) == 2.0,
                      "quantile 0.5 is the median");
    failures += check(quantile({5.0, 1.0, 4.0, 2.0, 3.0}, 0.25) == 2.0 &&
                          quantile({5.0, 1.0, 4.0, 2.0, 3.0}, 0.75) == 4.0 &&
                          near(quantile({10.0, 20.0}, 0.75), 17.5),
                      "quartiles interpolate between order statistics");
    failures += check(quantile({7.0}, 0.25) == 7.0 && quantile({1.0, 9.0}, 1.0) == 9.0 &&
                          quantile({1.0, 9.0}, 0.0) == 1.0,
                      "quantile ends and single sample");
  }
  section("bucketed quantiles");
  {
    const std::vector<double> edges = {0.0, 1.0, 2.0, 4.0, 8.0};
    const std::vector<std::uint64_t> counts = {0, 0, 10, 0};
    // Ten samples in [2, 4): the 5th sits at 4.5/10 of the bucket.
    failures += check(near(bucket_quantile(counts, edges, 0.5), 2.0 * std::pow(2.0, 0.45)),
                      "median interpolates log-linearly inside its bucket");
    const std::vector<std::uint64_t> split = {4, 0, 0, 6};
    failures += check(near(bucket_quantile(split, edges, 0.4), 0.875),
                      "rank in the zero-edged bucket interpolates linearly");
    failures += check(bucket_quantile(split, edges, 0.5) >= 4.0 &&
                          bucket_quantile(split, edges, 0.5) < 8.0,
                      "next rank moves to the next occupied bucket");
    failures += check(bucket_quantile(std::vector<std::uint64_t>{0, 0, 0, 0}, edges, 0.5) == 0.0,
                      "empty histogram reads 0");
  }
  section("span self times");
  {
    // Track 1: apply [0,100) holding scan [10,30) and update [40,90),
    // update holding a nested update [50,60); then apply [100,150) with a
    // child starting exactly at its parent's start. Track 2 overlaps
    // track 1 in time and must not nest into it.
    const std::vector<Span> spans = {
        {"apply", 1, 0.0, 100.0},          {"scan", 1, 10.0, 20.0},
        {"update", 1, 40.0, 50.0},         {"update", 1, 50.0, 10.0},
        {"apply", 1, 100.0, 50.0},         {"compaction", 1, 100.0, 49.999},
        {"queue_wait", 2, 5.0, 200.0},     {"scan", 2, 20.0, 5.0},
    };
    const auto totals = self_times(spans);
    failures += check(near(totals.at("apply").self_us, 30.0 + 0.001, 1e-6) &&
                          totals.at("apply").roots == 2,
                      "apply self = duration minus direct children only");
    failures += check(near(totals.at("update").self_us, 50.0, 1e-9) &&
                          near(totals.at("update").total_us, 60.0, 1e-9),
                      "nested same-name span counts once in self time");
    failures += check(near(totals.at("scan").self_us, 25.0, 1e-9) &&
                          totals.at("scan").roots == 0,
                      "scan nests under its own track's parent on both tracks");
    failures += check(near(totals.at("queue_wait").self_us, 195.0, 1e-9),
                      "tracks are independent");
    double self_sum = 0.0;
    for (const auto& entry : totals) self_sum += entry.second.self_us;
    // Self times partition the roots: 150 us of apply on track 1 plus the
    // 200 us queue_wait root on track 2.
    failures += check(near(self_sum, 350.0, 1e-9),
                      "self times sum to the root spans' durations");
  }
  section("rate ladder");
  {
    // M/M/1-like curve: p99 = 0.5 ms / (1 - rate / 20000), infinite past
    // capacity; the backlog grows past capacity.
    const auto probe = [](double rate) {
      RungResult r;
      r.rate = rate;
      r.backlog_grew = rate >= 20000.0;
      r.p99_s = r.backlog_grew ? 1.0 : 0.0005 / (1.0 - rate / 20000.0);
      return r;
    };
    const std::vector<double> rungs = {1000, 2000, 4000, 8000, 16000, 32000, 64000};
    const std::vector<RungResult> probed = ladder_search(rungs, 0.005, probe);
    // 16000 -> 2.5 ms passes; 32000 is past capacity; 64000 never probed.
    failures += check(probed.size() == 6, "search stops at the first failing rung");
    failures += check(max_passing_rate(probed, 0.005) == 16000.0,
                      "highest passing rung below the knee");
    const std::vector<RungResult> strict = ladder_search(rungs, 0.0006, probe);
    // 1000 -> 0.526 ms passes, 2000 -> 0.556 ms passes, 4000 -> 0.625 fails.
    failures += check(max_passing_rate(strict, 0.0006) == 2000.0 && strict.size() == 3,
                      "a tighter limit moves the answer down the ladder");
    failures += check(max_passing_rate(ladder_search(rungs, 0.0001, probe), 0.0001) == 0.0,
                      "no passing rung reads 0");
  }
  if (verbose || failures > 0) std::fprintf(stderr, "self-test: %d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
