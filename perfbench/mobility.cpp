#include "mobility.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <numbers>
#include <queue>
#include <vector>

#include "util/rng.h"

namespace perfbench {

using oisched::ChurnEvent;
using oisched::Point;
using oisched::Request;

namespace {

// Geometry of random_square: senders uniform in [0, side]^2, initial
// lengths log-uniform in [1, 64].
constexpr double kSide = 1000.0;
constexpr double kMinLength = 1.0;
constexpr double kMaxLength = 64.0;
// The waypoint model's rates (waypoint_trace defaults).
constexpr double kMeanHoldingTime = 8.0;
// One move shifts the sender by at most the median initial length
// (log-uniform on [1, 64]: sqrt(64) = 8) ...
constexpr double kMaxStep = 8.0;
// ... and keeps the length inside one doubling around its start,
// [L0 / sqrt(2), L0 * sqrt(2)].
constexpr double kLengthFactor = std::numbers::sqrt2;

}  // namespace

MobilityWorkload bounded_mobility(std::size_t links, std::size_t events, std::uint64_t seed) {
  oisched::Rng rng(seed);
  const std::size_t n = links;
  std::vector<Point> points;
  std::vector<Request> requests;
  std::vector<double> initial_length(n);
  std::vector<double> heading(n);
  points.reserve(2 * n + 2 * events);
  for (std::size_t i = 0; i < n; ++i) {
    const Point sender{rng.uniform(0.0, kSide), rng.uniform(0.0, kSide), 0.0};
    initial_length[i] = std::exp(
        rng.uniform(std::log(kMinLength), std::log(kMaxLength)));
    heading[i] = rng.uniform(0.0, 2.0 * std::numbers::pi);
    points.push_back(sender);
    points.push_back(Point{sender.x + initial_length[i] * std::cos(heading[i]),
                           sender.y + initial_length[i] * std::sin(heading[i]), 0.0});
    requests.push_back(Request{2 * i, 2 * i + 1});
  }
  std::vector<Request> current = requests;
  std::vector<double> length = initial_length;

  // Poisson churn keeps ~half the links active (rate * holding = n / 2);
  // moves are a third Poisson stream at rate n / 2, as in waypoint_trace.
  const double arrival_rate = static_cast<double>(n) / (2.0 * kMeanHoldingTime);
  const double move_rate = static_cast<double>(n) / 2.0;

  MobilityWorkload out;
  out.trace.universe = n;
  out.trace.events.reserve(events);
  std::vector<std::size_t> active;             // active links, unordered
  std::vector<std::size_t> slot(n, n);         // position in `active`, n = inactive
  std::vector<std::size_t> inactive(n);        // inactive links, unordered
  std::vector<std::size_t> inactive_slot(n);
  for (std::size_t i = 0; i < n; ++i) inactive[i] = inactive_slot[i] = i;
  using Departure = std::pair<double, std::size_t>;
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>> departures;
  double next_arrival = rng.exponential(arrival_rate);
  double next_move = rng.exponential(move_rate);
  std::vector<char> moved(n, 0);

  const auto take = [](std::vector<std::size_t>& set, std::vector<std::size_t>& pos,
                       std::size_t link) {
    const std::size_t at = pos[link];
    set[at] = set.back();
    pos[set[at]] = at;
    set.pop_back();
  };
  while (out.trace.events.size() < events) {
    const double next_departure =
        departures.empty() ? INFINITY : departures.top().first;
    if (next_departure <= next_arrival && next_departure <= next_move) {
      const std::size_t link = departures.top().second;
      departures.pop();
      take(active, slot, link);
      slot[link] = n;
      inactive_slot[link] = inactive.size();
      inactive.push_back(link);
      out.trace.events.push_back(
          ChurnEvent{ChurnEvent::Kind::departure, link, next_departure, {}});
    } else if (next_arrival <= next_move) {
      const double now = next_arrival;
      next_arrival += rng.exponential(arrival_rate);
      if (inactive.empty()) continue;
      const std::size_t link = inactive[rng.uniform_index(inactive.size())];
      take(inactive, inactive_slot, link);
      slot[link] = active.size();
      active.push_back(link);
      departures.emplace(now + rng.exponential(1.0 / kMeanHoldingTime), link);
      out.trace.events.push_back(ChurnEvent{ChurnEvent::Kind::arrival, link, now, {}});
    } else {
      const double now = next_move;
      next_move += rng.exponential(move_rate);
      if (active.empty()) continue;
      const std::size_t link = active[rng.uniform_index(active.size())];
      // Sender: a uniform step inside a disk of radius kMaxStep, kept in
      // the square. Receiver: the heading turns a little and the length
      // takes a multiplicative step clamped to the length window.
      const Point& from = points[current[link].u];
      const double radius = kMaxStep * std::sqrt(rng.uniform());
      const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
      const Point sender{std::clamp(from.x + radius * std::cos(angle), 0.0, kSide),
                         std::clamp(from.y + radius * std::sin(angle), 0.0, kSide),
                         0.0};
      heading[link] += rng.normal(0.0, 0.25);
      length[link] = std::clamp(length[link] * std::exp(rng.normal(0.0, 0.1)),
                                initial_length[link] / kLengthFactor,
                                initial_length[link] * kLengthFactor);
      const Point receiver{sender.x + length[link] * std::cos(heading[link]),
                           sender.y + length[link] * std::sin(heading[link]), 0.0};
      current[link] = Request{points.size(), points.size() + 1};
      points.push_back(sender);
      points.push_back(receiver);
      moved[link] = 1;
      ++out.moves;
      out.trace.events.push_back(
          ChurnEvent{ChurnEvent::Kind::link_update, link, now, current[link]});
    }
  }

  auto metric = std::make_shared<const oisched::EuclideanMetric>(std::move(points));
  std::size_t moved_links = 0;
  double ratio_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (moved[i] == 0) continue;
    ++moved_links;
    ratio_sum += metric->distance(current[i].u, current[i].v) / initial_length[i];
  }
  out.mean_length_drift = moved_links > 0 ? ratio_sum / static_cast<double>(moved_links) : 0.0;
  out.metric = metric;
  out.instance = std::make_unique<oisched::Instance>(metric, std::move(requests));
  return out;
}

std::string check_mobility(const MobilityWorkload& workload) {
  try {
    workload.trace.validate();
  } catch (const std::exception& e) {
    return std::string("trace fails validate(): ") + e.what();
  }
  // Moves at n / 2 against n / 8 admits plus releases: 80% of the events
  // once the churn is in steady state.
  const double move_share = static_cast<double>(workload.moves) /
                            static_cast<double>(workload.trace.events.size());
  if (move_share < 0.7 || move_share > 0.9) {
    return "move share " + std::to_string(move_share) + " is not the waypoint mix (0.8)";
  }
  if (workload.mean_length_drift < 1.0 / 1.1 || workload.mean_length_drift > 1.1) {
    return "mean link-length drift " + std::to_string(workload.mean_length_drift) +
           " outside [1/1.1, 1.1]";
  }
  return {};
}

}  // namespace perfbench
