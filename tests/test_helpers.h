// Shared fixtures for the test suite: deterministic line, grid and random
// instances, plus the index helpers nearly every property test needs.
//
// Tests that need "a small instance" should build it through these helpers
// instead of hand-rolling point vectors; the helpers are header-only and
// fully deterministic (random shapes derive from util/rng with an explicit
// seed), so a failing seed reproduces bit-for-bit everywhere.
#ifndef OISCHED_TESTS_TEST_HELPERS_H
#define OISCHED_TESTS_TEST_HELPERS_H

#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "metric/euclidean.h"
#include "sinr/gain_storage.h"
#include "sinr/model.h"
#include "util/error.h"
#include "util/rng.h"

namespace oisched::testutil {

/// A metric plus its requests, kept separate for the APIs that take them
/// that way (feasibility checkers, the power-control oracle). `instance()`
/// bundles them when an Instance is wanted instead.
struct Scenario {
  std::shared_ptr<EuclideanMetric> metric;
  std::vector<Request> requests;

  [[nodiscard]] Instance instance() const { return Instance(metric, requests); }
};

/// {0, 1, ..., n-1}: the "schedule everything" index set.
[[nodiscard]] inline std::vector<std::size_t> iota_indices(std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  return idx;
}

/// Shared-ownership metric from positions on the line.
[[nodiscard]] inline std::shared_ptr<EuclideanMetric> line_metric(
    std::vector<double> positions) {
  return std::make_shared<EuclideanMetric>(EuclideanMetric::line(positions));
}

/// Points at the given positions on the line, requests as given.
[[nodiscard]] inline Scenario line_scenario(std::vector<double> positions,
                                            std::vector<Request> requests) {
  return {line_metric(std::move(positions)), std::move(requests)};
}

/// Points at the given positions on the line, paired up in order:
/// requests (0,1), (2,3), ... — the common "pairs on a line" shape.
[[nodiscard]] inline Scenario line_pairs(std::vector<double> positions) {
  require(positions.size() % 2 == 0, "line_pairs: need an even number of positions");
  std::vector<Request> requests;
  requests.reserve(positions.size() / 2);
  for (std::size_t i = 0; 2 * i + 1 < positions.size(); ++i) {
    requests.push_back(Request{2 * i, 2 * i + 1});
  }
  return line_scenario(std::move(positions), std::move(requests));
}

/// rows x cols points at `spacing` apart; one request per horizontally
/// adjacent disjoint pair: (r,c) -> (r,c+1) for even c. Node ids are
/// row-major. A regular, collision-free planar workload.
[[nodiscard]] inline Scenario grid_scenario(std::size_t rows, std::size_t cols,
                                            double spacing = 10.0) {
  require(rows > 0 && cols >= 2, "grid_scenario: need rows >= 1 and cols >= 2");
  std::vector<Point> points;
  points.reserve(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      points.push_back(Point{static_cast<double>(c) * spacing,
                             static_cast<double>(r) * spacing, 0.0});
    }
  }
  std::vector<Request> requests;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c + 1 < cols; c += 2) {
      requests.push_back(Request{r * cols + c, r * cols + c + 1});
    }
  }
  return {std::make_shared<EuclideanMetric>(std::move(points)), std::move(requests)};
}

/// n random sender/receiver pairs: senders uniform in a side x side square,
/// receivers at a uniform length in [min_length, max_length) and a uniform
/// direction. Deterministic in `seed`; draw order is part of the contract
/// (sender x, sender y, length, angle per pair), so existing seeded
/// expectations stay stable.
[[nodiscard]] inline Scenario random_scenario(std::size_t n, std::uint64_t seed,
                                              double side = 60.0, double min_length = 1.0,
                                              double max_length = 8.0) {
  Rng rng(seed);
  std::vector<Point> points;
  std::vector<Request> requests;
  points.reserve(2 * n);
  requests.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Point s{rng.uniform(0, side), rng.uniform(0, side), 0};
    const double len = rng.uniform(min_length, max_length);
    const double angle = rng.uniform(0, 6.28318);
    points.push_back(s);
    points.push_back(Point{s.x + len * std::cos(angle), s.y + len * std::sin(angle), 0});
    requests.push_back(Request{2 * i, 2 * i + 1});
  }
  return {std::make_shared<EuclideanMetric>(std::move(points)), std::move(requests)};
}

/// An n x n dense table filled through `fill` (which returns 0.0 on the
/// diagonal) — the fixed-universe layout, row stride n.
[[nodiscard]] inline DenseGainStorage dense_table(std::size_t n, const GainFiller& fill) {
  std::vector<double> data(n * n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) data[j * n + i] = fill(j, i);
  }
  return DenseGainStorage(n, std::move(data));
}

}  // namespace oisched::testutil

#endif  // OISCHED_TESTS_TEST_HELPERS_H
