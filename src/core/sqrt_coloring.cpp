#include "core/sqrt_coloring.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "core/power_assignment.h"
#include "lp/simplex.h"
#include "sinr/feasibility.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace oisched {
namespace {

/// One round of the Section-5 selection: picks a large set of requests that
/// (after thinning) shares one color under the square-root assignment.
class RoundSelector {
 public:
  /// `gains` enables the precomputed-gain path (pass nullptr for the
  /// metric-recomputing one); both paths are bit-for-bit equivalent.
  RoundSelector(const Instance& instance, std::span<const double> powers,
                const SinrParams& params, Variant variant,
                const SqrtColoringOptions& options, const GainMatrix* gains, Rng& rng,
                SqrtColoringStats& stats, ThreadPool* scan_pool)
      : instance_(instance),
        powers_(powers),
        params_(params),
        variant_(variant),
        options_(options),
        gains_(gains),
        rng_(rng),
        stats_(stats),
        scan_pool_(scan_pool) {
    if (gains_ != nullptr) {
      acc_v_.assign(instance_.size(), 0.0);
      if (variant_ == Variant::bidirectional) acc_u_.assign(instance_.size(), 0.0);
    }
  }

  [[nodiscard]] std::vector<std::size_t> select(std::span<const std::size_t> uncolored) {
    selection_.clear();
    const auto classes = distance_classes(uncolored);
    for (const auto& [exponent, members] : classes) {
      process_class(members);
    }
    // Proposition-3 thinning: the union satisfies the constraints only up to
    // a constant gain factor; extract a beta-feasible subset, longest first.
    std::vector<std::size_t> order = selection_;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return instance_.length(a) > instance_.length(b);
    });
    std::vector<std::size_t> final_set =
        gains_ != nullptr
            ? greedy_feasible_subset(*gains_, order, params_)
            : greedy_feasible_subset(instance_.metric(), instance_.requests(), powers_,
                                     order, params_, variant_);
    if (final_set.empty() && !uncolored.empty()) {
      // Safety net: a singleton is always feasible in the noise-free model.
      final_set.push_back(uncolored.front());
    }
    return final_set;
  }

 private:
  /// Buckets requests by floor(log_base(length / min_length)).
  [[nodiscard]] std::map<int, std::vector<std::size_t>> distance_classes(
      std::span<const std::size_t> uncolored) const {
    double min_len = std::numeric_limits<double>::infinity();
    for (const std::size_t j : uncolored) min_len = std::min(min_len, instance_.length(j));
    std::map<int, std::vector<std::size_t>> classes;
    for (const std::size_t j : uncolored) {
      const double ratio = instance_.length(j) / min_len;
      const int exponent =
          static_cast<int>(std::floor(std::log(ratio) / std::log(options_.class_base) +
                                      1e-12));
      classes[exponent].push_back(j);
    }
    return classes;
  }

  /// Interference at node w from the current selection (square-root powers).
  [[nodiscard]] double selection_interference(NodeId w) const {
    return interference_at(instance_.metric(), instance_.requests(), powers_, selection_, w,
                           params_.alpha, variant_, selection_.size());
  }

  /// Appends `chosen` to the selection, keeping the per-request interference
  /// accumulators of the gain path in sync (accumulation order matches the
  /// order selection_interference sums in, so both paths agree bit-for-bit).
  /// Each chosen row is added slot-wise: every acc slot receives exactly
  /// one add per chosen row, in selection order.
  void extend_selection(std::span<const std::size_t> chosen) {
    selection_.insert(selection_.end(), chosen.begin(), chosen.end());
    if (gains_ == nullptr) return;
    const std::size_t n = instance_.size();
    const auto add_row = [n](double* acc, std::span<const double> row) {
      for (std::size_t i = 0; i < n; ++i) acc[i] += row[i];
    };
    for (const std::size_t s : chosen) {
      add_row(acc_v_.data(), gains_->row_v(s));
      if (variant_ == Variant::bidirectional) add_row(acc_u_.data(), gains_->row_u(s));
    }
  }

  /// The set V' of the paper: a request of the current class survives when
  /// both of its endpoints still tolerate the already-selected requests with
  /// a factor-2 slack (gain beta/2).
  [[nodiscard]] bool endpoints_tolerate(std::size_t j) const {
    if (gains_ != nullptr) {
      const double tolerance = gains_->signal(j) / (2.0 * params_.beta);
      if (acc_v_[j] > tolerance) return false;
      if (variant_ == Variant::bidirectional && acc_u_[j] > tolerance) return false;
      return true;
    }
    const Request& r = instance_.request(j);
    const double tolerance =
        powers_[j] / instance_.loss(j, params_.alpha) / (2.0 * params_.beta);
    if (selection_interference(r.v) > tolerance) return false;
    if (variant_ == Variant::bidirectional && selection_interference(r.u) > tolerance) {
      return false;
    }
    return true;
  }

  /// Do all members of `sample` satisfy their SINR constraints at gain
  /// beta/2, counting interference from the selection and the sample?
  /// (Earlier classes' constraints are deliberately not rechecked — the
  /// paper bounds that backwash separately, Lemma 19, and the final
  /// Proposition-3 thinning repairs it.)
  [[nodiscard]] bool sample_feasible(std::span<const std::size_t> sample) const {
    if (gains_ != nullptr) return sample_feasible_gains(sample);
    std::vector<std::size_t> combined(selection_.begin(), selection_.end());
    combined.insert(combined.end(), sample.begin(), sample.end());
    const SinrParams relaxed = params_.with_beta(params_.beta / 2.0);
    for (std::size_t pos = 0; pos < sample.size(); ++pos) {
      const std::size_t j = sample[pos];
      const Request& r = instance_.request(j);
      const double signal = powers_[j] / instance_.loss(j, params_.alpha);
      const std::size_t pos_in_combined = selection_.size() + pos;
      const double at_v =
          interference_at(instance_.metric(), instance_.requests(), powers_, combined, r.v,
                          params_.alpha, variant_, pos_in_combined);
      if (!(signal > relaxed.beta * at_v)) return false;
      if (variant_ == Variant::bidirectional) {
        const double at_u =
            interference_at(instance_.metric(), instance_.requests(), powers_, combined,
                            r.u, params_.alpha, variant_, pos_in_combined);
        if (!(signal > relaxed.beta * at_u)) return false;
      }
    }
    return true;
  }

  /// Gain-path sample_feasible: the selection's contribution comes from the
  /// accumulators (same partial sums selection_interference would produce),
  /// the sample's from table lookups in the same order as the direct scan.
  [[nodiscard]] bool sample_feasible_gains(std::span<const std::size_t> sample) const {
    const SinrParams relaxed = params_.with_beta(params_.beta / 2.0);
    for (std::size_t pos = 0; pos < sample.size(); ++pos) {
      const std::size_t j = sample[pos];
      const double signal = gains_->signal(j);
      double at_v = acc_v_[j];
      for (std::size_t other = 0; other < sample.size(); ++other) {
        if (other == pos) continue;
        at_v += gains_->at_v(sample[other], j);
      }
      if (!(signal > relaxed.beta * at_v)) return false;
      if (variant_ == Variant::bidirectional) {
        double at_u = acc_u_[j];
        for (std::size_t other = 0; other < sample.size(); ++other) {
          if (other == pos) continue;
          at_u += gains_->at_u(sample[other], j);
        }
        if (!(signal > relaxed.beta * at_u)) return false;
      }
    }
    return true;
  }

  /// Greedily removes sample members (worst violators last in, first out)
  /// until `sample_feasible` holds.
  [[nodiscard]] std::vector<std::size_t> trim_sample(std::vector<std::size_t> sample) const {
    // Shortest requests tolerate the least interference; drop them first.
    std::sort(sample.begin(), sample.end(), [&](std::size_t a, std::size_t b) {
      return instance_.length(a) > instance_.length(b);
    });
    while (!sample.empty() && !sample_feasible(sample)) sample.pop_back();
    return sample;
  }

  void process_class(const std::vector<std::size_t>& members) {
    // The V' filter: a pure per-request predicate against the current
    // selection. With a scan pool, workers evaluate disjoint strides and
    // survivors are collected in member order afterwards, so the candidate
    // list is bit-identical to the sequential scan's.
    std::vector<std::size_t> candidates;
    if (scan_pool_ != nullptr && members.size() > 1) {
      const std::size_t workers =
          std::min(scan_pool_->num_threads(), members.size());
      std::vector<char> tolerated(members.size(), 0);
      for (std::size_t t = 0; t < workers; ++t) {
        scan_pool_->submit([&, t, workers] {
          for (std::size_t k = t; k < members.size(); k += workers) {
            tolerated[k] = endpoints_tolerate(members[k]) ? 1 : 0;
          }
        });
      }
      scan_pool_->wait_idle();
      for (std::size_t k = 0; k < members.size(); ++k) {
        if (tolerated[k] != 0) candidates.push_back(members[k]);
      }
    } else {
      for (const std::size_t j : members) {
        if (endpoints_tolerate(j)) candidates.push_back(j);
      }
    }
    if (candidates.empty()) return;

    std::vector<std::size_t> chosen;
    if (options_.use_lp && candidates.size() <= options_.lp_variable_limit &&
        candidates.size() >= 2) {
      chosen = lp_select(candidates);
      ++stats_.lp_solves;
    } else {
      chosen = trim_sample(candidates);
      ++stats_.greedy_fallbacks;
    }
    extend_selection(chosen);
  }

  /// Lemma 16: LP relaxation of the Claim-17 interference budgets, then
  /// randomized rounding with alteration.
  [[nodiscard]] std::vector<std::size_t> lp_select(
      const std::vector<std::size_t>& candidates) {
    // Budget nodes: every endpoint of a candidate, keyed with a
    // (request, endpoint-side) representative so the gain path can address
    // the tables; any candidate touching the node works since gains depend
    // only on the node itself.
    std::map<NodeId, std::pair<std::size_t, bool>> node_rep;  // node -> (request, is_u)
    for (const std::size_t j : candidates) {
      node_rep.emplace(instance_.request(j).u, std::make_pair(j, true));
      node_rep.emplace(instance_.request(j).v, std::make_pair(j, false));
    }

    double min_len = std::numeric_limits<double>::infinity();
    for (const std::size_t j : candidates) {
      min_len = std::min(min_len, instance_.length(j));
    }
    // Claim 17 in unscaled units: any feasible class T keeps the
    // interference at every node below (2^alpha / beta) times the strongest
    // class signal, which is 1/sqrt(min_loss) under square-root powers.
    const double budget = std::pow(2.0, params_.alpha) / params_.beta /
                          std::sqrt(path_loss(min_len, params_.alpha));

    LpProblem lp;
    lp.num_vars = candidates.size();
    lp.objective.assign(lp.num_vars, 1.0);
    lp.upper_bounds.assign(lp.num_vars, 1.0);
    for (const auto& [w, rep_entry] : node_rep) {
      std::vector<double> row(lp.num_vars, 0.0);
      bool nontrivial = false;
      const auto [rep, rep_is_u] = rep_entry;
      for (std::size_t k = 0; k < candidates.size(); ++k) {
        const Request& r = instance_.request(candidates[k]);
        if (r.u == w || r.v == w) continue;  // own-endpoint terms are excluded
        if (gains_ != nullptr) {
          const double g = rep_is_u ? gains_->at_u(candidates[k], rep)
                                    : gains_->at_v(candidates[k], rep);
          if (std::isinf(g)) continue;  // co-located: the direct path skips l == 0
          row[k] = g;
        } else {
          const double l =
              variant_ == Variant::directed
                  ? path_loss(instance_.metric().distance(r.u, w), params_.alpha)
                  : min_endpoint_loss(instance_.metric(), r, w, params_.alpha);
          if (l <= 0.0) continue;
          row[k] = powers_[candidates[k]] / l;
        }
        if (row[k] > 0.0) nontrivial = true;
      }
      if (nontrivial) lp.add_constraint(std::move(row), budget);
    }

    std::vector<double> x;
    if (lp.rows.empty()) {
      x.assign(lp.num_vars, 1.0);
    } else {
      const LpSolution sol = solve_lp(lp);
      if (sol.status != LpStatus::optimal) {
        // Numerically stuck LP: fall back to the greedy path.
        ++stats_.greedy_fallbacks;
        return trim_sample(candidates);
      }
      x = sol.x;
    }

    auto accepts = [&](std::span<const std::size_t> sample_local) {
      std::vector<std::size_t> sample;
      sample.reserve(sample_local.size());
      for (const std::size_t k : sample_local) sample.push_back(candidates[k]);
      return sample_feasible(sample);
    };
    auto trim = [&](std::vector<std::size_t> sample_local) {
      std::vector<std::size_t> sample;
      sample.reserve(sample_local.size());
      for (const std::size_t k : sample_local) sample.push_back(candidates[k]);
      sample = trim_sample(std::move(sample));
      // Translate back to local indices.
      std::vector<std::size_t> local;
      for (const std::size_t j : sample) {
        const auto it = std::find(candidates.begin(), candidates.end(), j);
        local.push_back(static_cast<std::size_t>(it - candidates.begin()));
      }
      return local;
    };
    const std::vector<std::size_t> local =
        randomized_round(x, rng_, accepts, trim, options_.rounding);

    std::vector<std::size_t> chosen;
    chosen.reserve(local.size());
    for (const std::size_t k : local) chosen.push_back(candidates[k]);

    // Augmentation: rounding at x_j / c leaves roughly a (1 - 1/c) fraction
    // of the LP mass on the table; greedily re-add whatever still fits (in
    // decreasing LP-weight order). Only additions that keep the sample
    // constraints at gain beta/2 are accepted, so the invariants of the
    // round are unchanged.
    std::vector<std::size_t> by_weight;
    for (std::size_t k = 0; k < candidates.size(); ++k) by_weight.push_back(k);
    std::sort(by_weight.begin(), by_weight.end(),
              [&](std::size_t a, std::size_t b) { return x[a] > x[b]; });
    std::vector<char> taken(candidates.size(), 0);
    for (const std::size_t k : local) taken[k] = 1;
    for (const std::size_t k : by_weight) {
      if (taken[k]) continue;
      chosen.push_back(candidates[k]);
      if (sample_feasible(chosen)) {
        taken[k] = 1;
      } else {
        chosen.pop_back();
      }
    }
    return chosen;
  }

  const Instance& instance_;
  std::span<const double> powers_;
  SinrParams params_;
  Variant variant_;
  const SqrtColoringOptions& options_;
  const GainMatrix* gains_;
  Rng& rng_;
  SqrtColoringStats& stats_;
  ThreadPool* scan_pool_;  // nullptr = sequential candidate scans
  std::vector<std::size_t> selection_;
  /// Gain path only: interference from selection_ at v_i / u_i for every i.
  std::vector<double> acc_v_;
  std::vector<double> acc_u_;
};

}  // namespace

SqrtColoringResult sqrt_coloring(const Instance& instance, const SinrParams& params,
                                 Variant variant, const SqrtColoringOptions& options) {
  params.validate();
  require(options.class_base > 1.0, "sqrt_coloring: class base must exceed 1");

  SqrtColoringResult result;
  result.powers = SqrtPower{}.assign(instance, params.alpha);
  result.schedule.color_of.assign(instance.size(), -1);

  std::shared_ptr<const GainMatrix> gains;
  if (options.engine == FeasibilityEngine::gain_matrix) {
    // The LP budgets interference at sender nodes too, so the directed
    // variant also needs the at_u table here.
    gains = instance.gains(result.powers, params.alpha, variant, /*with_sender_gains=*/true);
  }

  Rng rng(options.seed);
  std::optional<ThreadPool> scan_pool;
  if (options.scan_threads > 1) scan_pool.emplace(options.scan_threads);
  std::vector<std::size_t> uncolored = instance.all_indices();
  int color = 0;
  while (!uncolored.empty()) {
    RoundSelector selector(instance, result.powers, params, variant, options,
                           gains.get(), rng, result.stats,
                           scan_pool.has_value() ? &*scan_pool : nullptr);
    const std::vector<std::size_t> chosen = selector.select(uncolored);
    ensure(!chosen.empty(), "sqrt_coloring: a round must color at least one request");
    for (const std::size_t j : chosen) {
      result.schedule.color_of[j] = color;
    }
    std::vector<std::size_t> remaining;
    remaining.reserve(uncolored.size() - chosen.size());
    std::set<std::size_t> chosen_set(chosen.begin(), chosen.end());
    for (const std::size_t j : uncolored) {
      if (!chosen_set.contains(j)) remaining.push_back(j);
    }
    uncolored = std::move(remaining);
    ++color;
    ++result.stats.rounds;
  }
  result.schedule.num_colors = color;
  return result;
}

}  // namespace oisched
