#include "sinr/gain_matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "core/instance.h"
#include "sinr/farfield.h"
#include "util/error.h"

namespace oisched {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// One unit in the last place of a double — the per-operation rounding loss.
constexpr double kUlp = std::numeric_limits<double>::epsilon();
/// Compensated removals trigger a rebuild once the cancelled magnitude of a
/// slot exceeds this multiple of what remains: beyond it the slot has lost
/// ~log10(kDriftRatio) of its ~16 significant digits to cancellation.
constexpr double kDriftRatio = 1e6;
/// Far-field bound gates widen the threshold comparison by this relative
/// slack before certifying a verdict. The gate arithmetic (a handful of
/// adds and one multiply over correctly rounded operands) loses at most
/// ~10 ulp (~2^-49 relative); 2^-40 dominates that by ~500x while staying
/// negligible against the cell-granularity width of the bounds themselves —
/// so a certified verdict always equals the exact one, and the slack costs
/// at most a few extra fallbacks at the margin.
constexpr double kTestSlack = 0x1p-40;

/// Element generator for one table side: the exact formula of the eager
/// build, evaluated per entry. Captures the shared request/power stores
/// (not the matrix), so a computed row or an appended one reads the same
/// data — and a grown store is visible to later fills without rewiring
/// anything.
GainFiller make_gain_filler(const MetricSpace* metric,
                            std::shared_ptr<std::vector<Request>> requests,
                            std::shared_ptr<std::vector<double>> powers, double alpha,
                            Variant variant, bool sender_side) {
  return [metric, requests = std::move(requests), powers = std::move(powers), alpha,
          variant, sender_side](std::size_t j, std::size_t i) -> double {
    if (i == j) return 0.0;
    const Request& rj = (*requests)[j];
    const Request& ri = (*requests)[i];
    const NodeId target = sender_side ? ri.u : ri.v;
    const double loss = variant == Variant::directed
                            ? path_loss(metric->distance(rj.u, target), alpha)
                            : min_endpoint_loss(*metric, rj, target, alpha);
    return loss == 0.0 ? kInf : (*powers)[j] / loss;
  };
}

/// acc[i] += row[i] for i in [begin, end) — the plain policies' row
/// update. Slot-wise, so the compiler vectorizes it across slots without
/// reordering any slot's additions.
void add_row(double* acc, const double* row, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) acc[i] += row[i];
}

}  // namespace

const char* to_string(FeasibilityEngine engine) {
  switch (engine) {
    case FeasibilityEngine::direct:
      return "direct";
    case FeasibilityEngine::incremental:
      return "incremental";
    case FeasibilityEngine::gain_matrix:
      return "gain_matrix";
  }
  return "unknown";
}

const char* to_string(RemovePolicy policy) {
  switch (policy) {
    case RemovePolicy::rebuild:
      return "rebuild";
    case RemovePolicy::compensated:
      return "compensated";
    case RemovePolicy::exact:
      return "exact";
  }
  return "unknown";
}

bool parse_remove_policy(const std::string& word, RemovePolicy& policy) {
  if (word == "rebuild") {
    policy = RemovePolicy::rebuild;
  } else if (word == "compensated") {
    policy = RemovePolicy::compensated;
  } else if (word == "exact") {
    policy = RemovePolicy::exact;
  } else {
    return false;
  }
  return true;
}

GainMatrix::GainMatrix(const MetricSpace& metric, std::span<const Request> requests,
                       std::span<const double> powers, double alpha, Variant variant,
                       bool with_sender_gains, GainBackend backend)
    : n_(requests.size()),
      alpha_(alpha),
      variant_(variant),
      backend_(backend),
      metric_(&metric),
      requests_store_(std::make_shared<std::vector<Request>>(requests.begin(), requests.end())),
      powers_store_(std::make_shared<std::vector<double>>(powers.begin(), powers.end())) {
  require(requests.size() == powers.size(),
          "GainMatrix: powers must be given for every request");
  signal_.reserve(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const double l = link_loss(metric, requests[i], alpha_);
    require(l > 0.0, "GainMatrix: request endpoints must be distinct points");
    signal_.push_back(powers[i] / l);
  }
  const bool build_at_u = variant_ == Variant::bidirectional || with_sender_gains;
  if (backend_ == GainBackend::dense) {
    // Fused native build (the historical eager loop): one metric/pow pass
    // fills both tables with no per-element filler dispatch. Same formula,
    // same values, bit for bit — just the fast path for the default
    // backend that every offline run cold-builds.
    std::vector<double> table_v(n_ * n_, 0.0);
    std::vector<double> table_u;
    if (build_at_u) table_u.assign(n_ * n_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
      const Request& rj = requests[j];
      for (std::size_t i = 0; i < n_; ++i) {
        if (i == j) continue;
        const Request& ri = requests[i];
        const double lv = variant_ == Variant::directed
                              ? path_loss(metric.distance(rj.u, ri.v), alpha_)
                              : min_endpoint_loss(metric, rj, ri.v, alpha_);
        table_v[j * n_ + i] = lv == 0.0 ? kInf : powers[j] / lv;
        if (build_at_u) {
          const double lu = variant_ == Variant::directed
                                ? path_loss(metric.distance(rj.u, ri.u), alpha_)
                                : min_endpoint_loss(metric, rj, ri.u, alpha_);
          table_u[j * n_ + i] = lu == 0.0 ? kInf : powers[j] / lu;
        }
      }
    }
    table_v_.emplace(n_, std::move(table_v));
    if (build_at_u) table_u_.emplace(n_, std::move(table_u));
  } else {
    computed_v_.emplace(n_, make_gain_filler(metric_, requests_store_, powers_store_,
                                             alpha_, variant_, /*sender_side=*/false));
    if (build_at_u) {
      computed_u_.emplace(n_, make_gain_filler(metric_, requests_store_, powers_store_,
                                               alpha_, variant_, /*sender_side=*/true));
    }
  }
  bind_tables();
}

void GainMatrix::bind_tables() {
  std::size_t total = signal_.size();
  if (table_v_) {
    dense_v_ = table_v_->data();
    stride_ = table_v_->stride();
    total += table_v_->resident_doubles();
  }
  if (table_u_) {
    dense_u_ = table_u_->data();
    total += table_u_->resident_doubles();
  }
  if (computed_v_) total += computed_v_->resident_doubles();
  if (computed_u_) total += computed_u_->resident_doubles();
  resident_doubles_.store(total);
}

GainMatrix::GainMatrix(const Instance& instance, std::span<const double> powers,
                       double alpha, Variant variant, bool with_sender_gains,
                       GainBackend backend)
    : GainMatrix(instance.metric(), instance.requests(), powers, alpha, variant,
                 with_sender_gains, backend) {}

std::size_t GainMatrix::append_request(const Request& request, double power) {
  require(backend_ == GainBackend::dense, "GainMatrix: only dense tables grow");
  require(request.u < metric_->size() && request.v < metric_->size(),
          "GainMatrix: request endpoint out of metric range");
  const double l = link_loss(*metric_, request, alpha_);
  require(l > 0.0, "GainMatrix: request endpoints must be distinct points");
  require(std::isfinite(power) && power > 0.0,
          "GainMatrix: powers must be positive and finite");
  // Grow the stores first so the fillers see the new link, then extend the
  // tables by its row and column.
  requests_store_->push_back(request);
  powers_store_->push_back(power);
  n_ = requests_store_->size();
  signal_.push_back(power / l);
  table_v_->append(make_gain_filler(metric_, requests_store_, powers_store_, alpha_,
                                    variant_, /*sender_side=*/false));
  if (table_u_) {
    table_u_->append(make_gain_filler(metric_, requests_store_, powers_store_, alpha_,
                                      variant_, /*sender_side=*/true));
  }
  bind_tables();
  return n_ - 1;
}

void GainMatrix::update_request(std::size_t link, const Request& request,
                                double power) {
  require(link < n_, "GainMatrix: update of an out-of-range link");
  require(request.u < metric_->size() && request.v < metric_->size(),
          "GainMatrix: request endpoint out of metric range");
  const double l = link_loss(*metric_, request, alpha_);
  require(l > 0.0, "GainMatrix: request endpoints must be distinct points");
  require(std::isfinite(power) && power > 0.0,
          "GainMatrix: powers must be positive and finite");
  // Update the shared stores first, then refresh through fillers that read
  // them — the refreshed entries are exactly what an eager build over the
  // moved universe would compute.
  (*requests_store_)[link] = request;
  (*powers_store_)[link] = power;
  signal_[link] = power / l;
  if (computed_v_) {
    computed_v_->refresh_link(link);
    if (computed_u_) computed_u_->refresh_link(link);
    return;
  }
  table_v_->refresh_link(link, make_gain_filler(metric_, requests_store_, powers_store_,
                                                alpha_, variant_, /*sender_side=*/false));
  if (table_u_) {
    table_u_->refresh_link(link, make_gain_filler(metric_, requests_store_, powers_store_,
                                                  alpha_, variant_, /*sender_side=*/true));
  }
}

FeasibilityReport check_feasible(const GainMatrix& gains,
                                 std::span<const std::size_t> active,
                                 const SinrParams& params) {
  params.validate();
  FeasibilityReport report;
  report.worst_margin = kInf;
  const bool bidirectional = gains.variant() == Variant::bidirectional;
  for (std::size_t pos = 0; pos < active.size(); ++pos) {
    const std::size_t i = active[pos];
    const double signal = gains.signal(i);
    const int num_constraints = bidirectional ? 2 : 1;
    for (int c = 0; c < num_constraints; ++c) {
      double interference = 0.0;
      for (std::size_t other = 0; other < active.size(); ++other) {
        if (other == pos) continue;
        const std::size_t j = active[other];
        interference += c == 0 ? gains.at_v(j, i) : gains.at_u(j, i);
      }
      const double demand = params.beta * (interference + params.noise);
      const double margin = demand > 0.0 ? signal / demand : kInf;
      if (margin < report.worst_margin) {
        report.worst_margin = margin;
        report.worst_request = pos;
      }
      if (!(signal > demand)) report.feasible = false;
    }
  }
  return report;
}

double max_feasible_gain(const GainMatrix& gains, std::span<const std::size_t> active) {
  double best = kInf;
  const bool bidirectional = gains.variant() == Variant::bidirectional;
  for (std::size_t pos = 0; pos < active.size(); ++pos) {
    const std::size_t i = active[pos];
    const double signal = gains.signal(i);
    const int num_constraints = bidirectional ? 2 : 1;
    for (int c = 0; c < num_constraints; ++c) {
      double interference = 0.0;
      for (std::size_t other = 0; other < active.size(); ++other) {
        if (other == pos) continue;
        const std::size_t j = active[other];
        interference += c == 0 ? gains.at_v(j, i) : gains.at_u(j, i);
      }
      if (interference > 0.0) best = std::min(best, signal / interference);
    }
  }
  return best;
}

IncrementalGainClass::IncrementalGainClass(const GainMatrix& gains,
                                           const SinrParams& params,
                                           RemovePolicy policy,
                                           std::size_t rebuild_interval,
                                           const FarFieldContext* farfield)
    : gains_(&gains),
      params_(params),
      policy_(policy),
      rebuild_interval_(rebuild_interval),
      farfield_(farfield) {
  params_.validate();
  require(rebuild_interval_ > 0,
          "IncrementalGainClass: rebuild interval must be positive");
  acc_v_.assign(gains_->size(), 0.0);
  if (gains_->variant() == Variant::bidirectional) acc_u_.assign(gains_->size(), 0.0);
  if (policy_ == RemovePolicy::compensated) {
    cancelled_v_.assign(acc_v_.size(), 0.0);
    cancelled_u_.assign(acc_u_.size(), 0.0);
  }
  if (policy_ == RemovePolicy::exact) {
    exact_v_.assign_zero(acc_v_.size());
    exact_u_.assign_zero(acc_u_.size());
  }
  if (farfield_ != nullptr) {
    require(policy_ == RemovePolicy::exact,
            "IncrementalGainClass: far-field mode requires the exact remove policy");
    require(farfield_->variant() == gains_->variant(),
            "IncrementalGainClass: far-field context variant mismatch");
    require(farfield_->size() == gains_->size(),
            "IncrementalGainClass: far-field context out of sync with the matrix");
    far_lo_.resize(farfield_->num_cells());
    far_hi_.resize(farfield_->num_cells());
    far_lo_val_.assign(farfield_->num_cells(), 0.0);
    far_hi_val_.assign(farfield_->num_cells(), 0.0);
  }
}

bool IncrementalGainClass::far_test(std::size_t i, std::size_t j,
                                    bool sender_side) const {
  const double signal = gains_->signal(i);
  const std::size_t cell = sender_side ? farfield_->cell_u(i) : farfield_->cell_v(i);
  const double near_acc = sender_side ? acc_u_[i] : acc_v_[i];
  double extra_lo = 0.0;
  double extra_hi = 0.0;
  double extra = 0.0;
  bool extra_exact = true;
  if (j != kNoExtra) {
    if (farfield_->is_near(j, cell)) {
      extra = sender_side ? gains_->at_u(j, i) : gains_->at_v(j, i);
      extra_lo = extra_hi = extra;
    } else {
      extra_lo = farfield_->bound_lo(j, cell);
      extra_hi = farfield_->bound_hi(j, cell);
      extra_exact = false;
    }
  }
  // Certify from the bracket when it clears the threshold either way; the
  // slack keeps a certificate valid against the exact expression despite
  // the bracket arithmetic's own rounding.
  const double hi =
      params_.beta * (near_acc + far_hi_val_[cell] + extra_hi + params_.noise);
  if (signal > hi * (1.0 + kTestSlack)) {
    farfield_->count_bound_hit();
    return true;
  }
  const double lo =
      params_.beta * (near_acc + far_lo_val_[cell] + extra_lo + params_.noise);
  if (!(signal > lo * (1.0 - kTestSlack))) {
    farfield_->count_bound_hit();
    return false;
  }
  // Straddle: reconstruct the exact-only accumulator and evaluate the
  // reference expression verbatim.
  farfield_->count_exact_fallback();
  if (!extra_exact) extra = sender_side ? gains_->at_u(j, i) : gains_->at_v(j, i);
  const double acc = far_exact_slot(i, sender_side);
  return signal > params_.beta * (acc + extra + params_.noise);
}

double IncrementalGainClass::far_exact_slot(std::size_t i, bool sender_side) const {
  // The near expansion already holds the exact sum of the members near
  // slot i's cell; extending it with the far members' exact gains yields
  // the same member multiset the exact-only class accumulates — and
  // ExactSum's value is the correct rounding of the infinitely precise
  // sum regardless of accumulation order, so the readout is bit-identical
  // to the exact-only accumulator.
  ExactSum sum = (sender_side ? exact_u_ : exact_v_).extract(i);
  const std::size_t cell = sender_side ? farfield_->cell_u(i) : farfield_->cell_v(i);
  for (const std::size_t m : members_) {
    if (m == i || farfield_->is_near(m, cell)) continue;
    sum.add(sender_side ? gains_->at_u(m, i) : gains_->at_v(m, i));
  }
  return sum.value();
}

bool IncrementalGainClass::far_apply_member(std::size_t j, bool add_op) {
  const bool bidirectional = gains_->variant() == Variant::bidirectional;
  bool saturated = false;
  // Exact near-field walk: j's gain lands in every slot whose relevant
  // endpoint cell is near j — the same per-(member, slot) partition the
  // lookups use, so near banks and far aggregates never double-count.
  farfield_->near_cells(j, cell_scratch_);
  for (const std::size_t cell : cell_scratch_) {
    for (const std::size_t i : farfield_->slots_v(cell)) {
      if (i == j) continue;
      const double g = gains_->at_v(j, i);
      acc_v_[i] = add_op ? exact_v_.add(i, g) : exact_v_.subtract(i, g);
      saturated |= exact_v_.saturated(i);
    }
    if (bidirectional) {
      for (const std::size_t i : farfield_->slots_u(cell)) {
        if (i == j) continue;
        const double g = gains_->at_u(j, i);
        acc_u_[i] = add_op ? exact_u_.add(i, g) : exact_u_.subtract(i, g);
        saturated |= exact_u_.saturated(i);
      }
    }
  }
  // Far cells take j's conservative bound pair; exact aggregation makes
  // the withdrawal on departure lossless, however long the churn runs.
  const std::size_t cells = farfield_->num_cells();
  for (std::size_t cell = 0; cell < cells; ++cell) {
    if (farfield_->is_near(j, cell)) continue;
    const double lo = farfield_->bound_lo(j, cell);
    const double hi = farfield_->bound_hi(j, cell);
    if (add_op) {
      far_lo_[cell].add(lo);
      far_hi_[cell].add(hi);
    } else {
      far_lo_[cell].subtract(lo);
      far_hi_[cell].subtract(hi);
    }
    far_lo_val_[cell] = far_lo_[cell].value();
    far_hi_val_[cell] = far_hi_[cell].value();
  }
  return saturated;
}

bool IncrementalGainClass::apply_row(std::size_t j, std::size_t begin, std::size_t end,
                                     bool add_op) {
  if (begin == end) return false;
  const auto apply = [&](const double* row, ExactSumBank& bank, double* acc,
                         double* cancelled) {
    if (policy_ == RemovePolicy::exact) {
      return add_op ? bank.add_row(begin, row + begin, end - begin, acc)
                    : bank.sub_row(begin, row + begin, end - begin, acc);
    }
    if (add_op) {
      add_row(acc, row, begin, end);
      return false;
    }
    // Compensated removal (the only plain-policy subtract): the cancelled
    // magnitude grows by what passed through the slot.
    for (std::size_t i = begin; i < end; ++i) {
      acc[i] -= row[i];
      cancelled[i] += std::abs(row[i]);
    }
    return false;
  };
  bool saturated = apply(gains_->row_v(j).data(), exact_v_, acc_v_.data(), cancelled_v_.data());
  if (gains_->variant() == Variant::bidirectional) {
    saturated |= apply(gains_->row_u(j).data(), exact_u_, acc_u_.data(), cancelled_u_.data());
  }
  return saturated;
}

bool IncrementalGainClass::apply_row_off_diagonal(std::size_t j, bool add_op) {
  const bool below = apply_row(j, 0, j, add_op);
  const bool above = apply_row(j, j + 1, gains_->size(), add_op);
  return below || above;
}

bool IncrementalGainClass::can_add(std::size_t request_index) const {
  require(acc_v_.size() == gains_->size(),
          "IncrementalGainClass: the gain matrix grew; call sync_universe() first");
  const bool bidirectional = gains_->variant() == Variant::bidirectional;
  const double cand_signal = gains_->signal(request_index);

  if (farfield_ != nullptr) {
    // Same tests in the same order as below, each answered by far_test —
    // verdicts are bit-identical, so the scan short-circuits at the same
    // member and the overall answer matches the exact-only class.
    for (const std::size_t m : members_) {
      if (!far_test(m, request_index, /*sender_side=*/false)) return false;
      if (bidirectional && !far_test(m, request_index, /*sender_side=*/true)) {
        return false;
      }
    }
    if (!far_test(request_index, kNoExtra, /*sender_side=*/false)) return false;
    if (bidirectional && !far_test(request_index, kNoExtra, /*sender_side=*/true)) {
      return false;
    }
    return true;
  }

  // Existing members must tolerate the newcomer's extra interference, read
  // off the candidate's row — one virtual call per row, not per member (and
  // none at all for an empty class).
  const double* row_v = nullptr;
  const double* row_u = nullptr;
  if (!members_.empty()) {
    row_v = gains_->row_v(request_index).data();
    if (bidirectional) row_u = gains_->row_u(request_index).data();
  }
  for (const std::size_t m : members_) {
    const double extra_v = row_v[m];
    if (!(gains_->signal(m) > params_.beta * (acc_v_[m] + extra_v + params_.noise))) {
      return false;
    }
    if (bidirectional) {
      const double extra_u = row_u[m];
      if (!(gains_->signal(m) > params_.beta * (acc_u_[m] + extra_u + params_.noise))) {
        return false;
      }
    }
  }

  // The newcomer must decode against everyone already in the class.
  if (!(cand_signal > params_.beta * (acc_v_[request_index] + params_.noise))) return false;
  if (bidirectional &&
      !(cand_signal > params_.beta * (acc_u_[request_index] + params_.noise))) {
    return false;
  }
  return true;
}

void IncrementalGainClass::add(std::size_t request_index) {
  require(acc_v_.size() == gains_->size(),
          "IncrementalGainClass: the gain matrix grew; call sync_universe() first");
  if (farfield_ != nullptr) {
    far_apply_member(request_index, /*add_op=*/true);
    members_.push_back(request_index);
    return;
  }
  // Under exact the slot keeps the error-free expansion and exposes its
  // correct rounding — a pure function of the member multiset, so any
  // later subtract restores today's state bit for bit.
  apply_row_off_diagonal(request_index, /*add_op=*/true);
  members_.push_back(request_index);
}

bool IncrementalGainClass::contains(std::size_t request_index) const {
  return std::find(members_.begin(), members_.end(), request_index) != members_.end();
}

void IncrementalGainClass::remove(std::size_t request_index) {
  require(acc_v_.size() == gains_->size(),
          "IncrementalGainClass: the gain matrix grew; call sync_universe() first");
  const auto it = std::find(members_.begin(), members_.end(), request_index);
  require(it != members_.end(), "IncrementalGainClass: remove of a non-member");
  members_.erase(it);

  if (farfield_ != nullptr) {
    if (far_apply_member(request_index, /*add_op=*/false)) {
      // Same sticky-saturation escape hatch as the exact path below.
      ++removal_rebuilds_;
      rebuild();
      return;
    }
    ++removes_since_rebuild_;
#ifndef NDEBUG
    if (removes_since_rebuild_ % 8 == 0) {
      ensure(accumulator_drift() == 0.0,
             "IncrementalGainClass: far-field accumulator deviated from replay");
    }
#endif
    return;
  }

  if (policy_ == RemovePolicy::rebuild) {
    ++removal_rebuilds_;
    rebuild();
    return;
  }

  if (policy_ == RemovePolicy::exact) {
    // Exact O(n) removal: subtracting from the expansions is error-free,
    // so every slot lands bit for bit where a freshly built exact class
    // over the survivors would — no replay, except the one pathological
    // escape hatch below.
    if (apply_row_off_diagonal(request_index, /*add_op=*/false)) {
      // A slot's true interference sum once exceeded the double range:
      // ExactSum saturation is sticky, so subtraction alone cannot bring
      // the finite state back even though the survivors' sum may be
      // representable again. Re-derive from scratch — the only removal
      // that ever pays a replay under this policy, and only in this
      // beyond-DBL_MAX regime.
      ++removal_rebuilds_;
      rebuild();
      return;
    }
    ++removes_since_rebuild_;
#ifndef NDEBUG
    // Debug tripwire for the exactness claim itself: the live state must
    // coincide — exactly, not approximately — with an exact replay of the
    // survivors.
    if (removes_since_rebuild_ % 8 == 0) {
      ensure(accumulator_drift() == 0.0,
             "IncrementalGainClass: exact accumulator deviated from replay");
    }
#endif
    return;
  }

  // Compensated fast path: subtract the departed contributions and grow the
  // per-slot cancellation bound by their magnitude.
  apply_row_off_diagonal(request_index, /*add_op=*/false);
  ++removes_since_rebuild_;
  maybe_rebuild_after_remove();
#ifndef NDEBUG
  // Debug cross-check (drift guard): after long add/remove sequences the
  // compensated accumulators must stay within the rounding budget of the
  // from-scratch replay — each of the O(members + removes) float ops loses
  // at most one ulp of the magnitudes that passed through the slot.
  if (removes_since_rebuild_ > 0 && removes_since_rebuild_ % 8 == 0) {
    std::vector<double> fresh_v, fresh_u;
    replay_accumulators(fresh_v, fresh_u);
    const double ops =
        static_cast<double>(members_.size() + removes_since_rebuild_ + 4);
    for (std::size_t i = 0; i < acc_v_.size(); ++i) {
      const double bound =
          ops * kUlp * (cancelled_v_[i] + std::abs(fresh_v[i]) + std::abs(acc_v_[i]));
      ensure(std::abs(acc_v_[i] - fresh_v[i]) <= bound,
             "IncrementalGainClass: compensated accumulator drifted past its bound");
    }
    for (std::size_t i = 0; i < acc_u_.size(); ++i) {
      const double bound =
          ops * kUlp * (cancelled_u_[i] + std::abs(fresh_u[i]) + std::abs(acc_u_[i]));
      ensure(std::abs(acc_u_[i] - fresh_u[i]) <= bound,
             "IncrementalGainClass: compensated accumulator drifted past its bound");
    }
  }
#endif
}

void IncrementalGainClass::begin_link_update(std::size_t link) {
  require(acc_v_.size() == gains_->size(),
          "IncrementalGainClass: the gain matrix grew; call sync_universe() first");
  require(!update_pending_,
          "IncrementalGainClass: begin_link_update while an update is pending");
  require(link < gains_->size(),
          "IncrementalGainClass: update of an out-of-range link");
  update_pending_ = true;
  if (!contains(link)) return;  // nothing of the stale row is accumulated here
  if (policy_ == RemovePolicy::rebuild) return;  // finish replays from scratch

  if (farfield_ != nullptr) {
    // Withdraw the member through the STALE geometry — the scheduler
    // updates the context (cells, slot lists, bounds inputs) only between
    // the two phases, so this subtraction mirrors what was added.
    far_apply_member(link, /*add_op=*/false);
    return;
  }
  apply_row_off_diagonal(link, /*add_op=*/false);
}

void IncrementalGainClass::finish_link_update(std::size_t link) {
  require(update_pending_,
          "IncrementalGainClass: finish_link_update without a pending update");
  update_pending_ = false;
  const bool member = contains(link);

  if (member && policy_ == RemovePolicy::rebuild) {
    // The rebuild policy restores every slot — including slot `link` — by
    // replaying the members over the refreshed tables.
    ++removal_rebuilds_;
    rebuild();
    return;
  }

  if (member) {
    // Re-add the link's row, now reading the refreshed tables (and, in
    // far-field mode, the refreshed geometry), then fall through to the
    // shared slot re-derivation below.
    const bool saturated = farfield_ != nullptr ? far_apply_member(link, /*add_op=*/true)
                                                : apply_row_off_diagonal(link, /*add_op=*/true);
    if (saturated) {
      // Same escape hatch as remove(): sticky saturation means a slot's
      // true sum once left the double range, and only a replay restores
      // the finite state.
      ++removal_rebuilds_;
      rebuild();
      return;
    }
  }

  // Slot `link` reads column `link`, which just changed — and the add /
  // subtract passes above never touch a link's own slot. Re-derive it from
  // the members in every class, member or not.
  rederive_slot(link);

  if (member && policy_ == RemovePolicy::compensated) {
    // The subtract in begin_link_update cancelled like a removal; keep the
    // drift bookkeeping identical.
    ++removes_since_rebuild_;
    maybe_rebuild_after_remove();
  }
  if (member && policy_ == RemovePolicy::exact) {
    ++removes_since_rebuild_;
#ifndef NDEBUG
    // Debug tripwire for the in-place-update exactness claim itself, at
    // the same cadence as the removal tripwire.
    if (removes_since_rebuild_ % 8 == 0) {
      ensure(accumulator_drift() == 0.0,
             "IncrementalGainClass: exact accumulator deviated after link update");
    }
#endif
  }
}

void IncrementalGainClass::rederive_slot(std::size_t link) {
  const bool bidirectional = gains_->variant() == Variant::bidirectional;
  if (farfield_ != nullptr) {
    // The slot's near partition follows its (possibly moved) cell: rebuild
    // the near expansion from the members near the CURRENT cell. The far
    // aggregates are per-cell, not per-slot, so they need no repair — the
    // lookups simply read the new cell's aggregate.
    ExactSum sum_v;
    ExactSum sum_u;
    const std::size_t cv = farfield_->cell_v(link);
    const std::size_t cu = farfield_->cell_u(link);
    for (const std::size_t m : members_) {
      if (m == link) continue;
      if (farfield_->is_near(m, cv)) sum_v.add(gains_->at_v(m, link));
      if (bidirectional && farfield_->is_near(m, cu)) sum_u.add(gains_->at_u(m, link));
    }
    exact_v_.store(link, sum_v);
    acc_v_[link] = sum_v.value();
    if (bidirectional) {
      exact_u_.store(link, sum_u);
      acc_u_[link] = sum_u.value();
    }
    return;
  }
  if (policy_ == RemovePolicy::exact) {
    ExactSum sum_v;
    ExactSum sum_u;
    for (const std::size_t m : members_) {
      if (m == link) continue;
      sum_v.add(gains_->at_v(m, link));
      if (bidirectional) sum_u.add(gains_->at_u(m, link));
    }
    exact_v_.store(link, sum_v);
    acc_v_[link] = sum_v.value();
    if (bidirectional) {
      exact_u_.store(link, sum_u);
      acc_u_[link] = sum_u.value();
    }
    return;
  }
  // Plain policies replay the slot in insertion order — the arithmetic of
  // replay_accumulators, restricted to one slot.
  double sum_v = 0.0;
  double sum_u = 0.0;
  for (const std::size_t m : members_) {
    if (m == link) continue;
    sum_v += gains_->at_v(m, link);
    if (bidirectional) sum_u += gains_->at_u(m, link);
  }
  acc_v_[link] = sum_v;
  if (bidirectional) acc_u_[link] = sum_u;
  if (policy_ == RemovePolicy::compensated) {
    // A freshly derived slot has no accumulated cancellation.
    cancelled_v_[link] = 0.0;
    if (bidirectional) cancelled_u_[link] = 0.0;
  }
}

bool IncrementalGainClass::members_feasible() const {
  const bool bidirectional = gains_->variant() == Variant::bidirectional;
  if (farfield_ != nullptr) {
    for (const std::size_t m : members_) {
      if (!far_test(m, kNoExtra, /*sender_side=*/false)) return false;
      if (bidirectional && !far_test(m, kNoExtra, /*sender_side=*/true)) return false;
    }
    return true;
  }
  for (const std::size_t m : members_) {
    if (!(gains_->signal(m) > params_.beta * (acc_v_[m] + params_.noise))) return false;
    if (bidirectional &&
        !(gains_->signal(m) > params_.beta * (acc_u_[m] + params_.noise))) {
      return false;
    }
  }
  return true;
}

void IncrementalGainClass::sync_universe() {
  const std::size_t n = gains_->size();
  if (acc_v_.size() == n) return;
  require(acc_v_.size() < n, "IncrementalGainClass: gain matrices never shrink");
  const std::size_t old_n = acc_v_.size();
  const bool bidirectional = gains_->variant() == Variant::bidirectional;
  acc_v_.resize(n, 0.0);
  if (bidirectional) acc_u_.resize(n, 0.0);
  if (policy_ == RemovePolicy::compensated) {
    cancelled_v_.resize(acc_v_.size(), 0.0);
    cancelled_u_.resize(acc_u_.size(), 0.0);
  }
  if (farfield_ != nullptr) {
    require(farfield_->size() == n,
            "IncrementalGainClass: far-field context out of sync with the matrix");
    exact_v_.resize(acc_v_.size());
    exact_u_.resize(acc_u_.size());
    // Each fresh slot's near expansion sums the members near ITS cell —
    // exactly the state a from-scratch far-field build over the grown
    // universe holds. Far aggregates are per-cell and unaffected by new
    // slots.
    for (std::size_t i = old_n; i < n; ++i) {
      ExactSum sum_v;
      ExactSum sum_u;
      const std::size_t cv = farfield_->cell_v(i);
      const std::size_t cu = farfield_->cell_u(i);
      for (const std::size_t m : members_) {
        if (farfield_->is_near(m, cv)) sum_v.add(gains_->at_v(m, i));
        if (bidirectional && farfield_->is_near(m, cu)) sum_u.add(gains_->at_u(m, i));
      }
      exact_v_.store(i, sum_v);
      acc_v_[i] = sum_v.value();
      if (bidirectional) {
        exact_u_.store(i, sum_u);
        acc_u_[i] = sum_u.value();
      }
    }
    return;
  }
  if (policy_ == RemovePolicy::exact) {
    exact_v_.resize(acc_v_.size());
    exact_u_.resize(acc_u_.size());
  }
  // The fresh slots accumulate the members' contributions in insertion
  // order (error-free under exact) — exactly the sums a from-scratch
  // replay over the grown universe produces, so exactness guarantees
  // survive growth. Members always predate the growth, so the [old_n, n)
  // range never crosses a member's own diagonal.
  for (const std::size_t m : members_) apply_row(m, old_n, n, /*add_op=*/true);
}

void IncrementalGainClass::maybe_rebuild_after_remove() {
  bool drifted = removes_since_rebuild_ >= rebuild_interval_;
  if (!drifted) {
    // Rebuild-on-drift: once the cancelled magnitude dwarfs what is left in
    // a slot, the remaining digits are rounding residue, not information.
    for (std::size_t i = 0; i < acc_v_.size() && !drifted; ++i) {
      drifted = cancelled_v_[i] > kDriftRatio * std::abs(acc_v_[i]) &&
                cancelled_v_[i] > 0.0;
    }
    for (std::size_t i = 0; i < acc_u_.size() && !drifted; ++i) {
      drifted = cancelled_u_[i] > kDriftRatio * std::abs(acc_u_[i]) &&
                cancelled_u_[i] > 0.0;
    }
  }
  if (drifted) {
    ++removal_rebuilds_;
    rebuild();
  }
}

void IncrementalGainClass::replay_accumulators(std::vector<double>& acc_v,
                                               std::vector<double>& acc_u) const {
  const bool bidirectional = gains_->variant() == Variant::bidirectional;
  acc_v.assign(gains_->size(), 0.0);
  acc_u.assign(bidirectional ? gains_->size() : 0, 0.0);
  if (farfield_ != nullptr) {
    // The canonical near-only state: per slot, the exact sum of the
    // members near its cell.
    for (std::size_t i = 0; i < gains_->size(); ++i) {
      ExactSum sum_v;
      ExactSum sum_u;
      const std::size_t cv = farfield_->cell_v(i);
      const std::size_t cu = farfield_->cell_u(i);
      for (const std::size_t m : members_) {
        if (i == m) continue;
        if (farfield_->is_near(m, cv)) sum_v.add(gains_->at_v(m, i));
        if (bidirectional && farfield_->is_near(m, cu)) sum_u.add(gains_->at_u(m, i));
      }
      acc_v[i] = sum_v.value();
      if (bidirectional) acc_u[i] = sum_u.value();
    }
    return;
  }
  if (policy_ == RemovePolicy::exact) {
    // The exact policy's canonical state: error-free accumulation of the
    // members, read out correctly rounded. Order-free by construction.
    for (std::size_t i = 0; i < gains_->size(); ++i) {
      ExactSum sum_v;
      ExactSum sum_u;
      for (const std::size_t m : members_) {
        if (i == m) continue;
        sum_v.add(gains_->at_v(m, i));
        if (bidirectional) sum_u.add(gains_->at_u(m, i));
      }
      acc_v[i] = sum_v.value();
      if (bidirectional) acc_u[i] = sum_u.value();
    }
    return;
  }
  // Plain policies: insertion-order float sums, skipping each member's own
  // slot.
  const std::size_t n = gains_->size();
  for (const std::size_t m : members_) {
    const double* row_v = gains_->row_v(m).data();
    add_row(acc_v.data(), row_v, 0, m);
    add_row(acc_v.data(), row_v, m + 1, n);
    if (bidirectional) {
      const double* row_u = gains_->row_u(m).data();
      add_row(acc_u.data(), row_u, 0, m);
      add_row(acc_u.data(), row_u, m + 1, n);
    }
  }
}

void IncrementalGainClass::rebuild() {
  if (farfield_ != nullptr) {
    exact_v_.assign_zero(gains_->size());
    exact_u_.assign_zero(acc_u_.empty() ? 0 : gains_->size());
    std::fill(acc_v_.begin(), acc_v_.end(), 0.0);
    std::fill(acc_u_.begin(), acc_u_.end(), 0.0);
    for (ExactSum& sum : far_lo_) sum = ExactSum();
    for (ExactSum& sum : far_hi_) sum = ExactSum();
    std::fill(far_lo_val_.begin(), far_lo_val_.end(), 0.0);
    std::fill(far_hi_val_.begin(), far_hi_val_.end(), 0.0);
    for (const std::size_t m : members_) far_apply_member(m, /*add_op=*/true);
    removes_since_rebuild_ = 0;
    return;
  }
  if (policy_ == RemovePolicy::exact) {
    // Re-derive the expansions themselves, not just the rounded values:
    // rebuild must leave the full state where a fresh class would be.
    const bool bidirectional = gains_->variant() == Variant::bidirectional;
    exact_v_.assign_zero(gains_->size());
    exact_u_.assign_zero(bidirectional ? gains_->size() : 0);
    std::fill(acc_v_.begin(), acc_v_.end(), 0.0);
    std::fill(acc_u_.begin(), acc_u_.end(), 0.0);
    for (const std::size_t m : members_) apply_row_off_diagonal(m, /*add_op=*/true);
    removes_since_rebuild_ = 0;
    return;
  }
  replay_accumulators(acc_v_, acc_u_);
  if (policy_ == RemovePolicy::compensated) {
    std::fill(cancelled_v_.begin(), cancelled_v_.end(), 0.0);
    std::fill(cancelled_u_.begin(), cancelled_u_.end(), 0.0);
  }
  removes_since_rebuild_ = 0;
}

double IncrementalGainClass::accumulator_drift() const {
  std::vector<double> fresh_v, fresh_u;
  replay_accumulators(fresh_v, fresh_u);
  double drift = 0.0;
  for (std::size_t i = 0; i < acc_v_.size(); ++i) {
    drift = std::max(drift, std::abs(acc_v_[i] - fresh_v[i]));
  }
  for (std::size_t i = 0; i < acc_u_.size(); ++i) {
    drift = std::max(drift, std::abs(acc_u_[i] - fresh_u[i]));
  }
  if (farfield_ != nullptr) {
    // The far aggregates are part of the exactness claim too: replay the
    // members' bound contributions and compare the rounded readouts.
    for (std::size_t cell = 0; cell < far_lo_.size(); ++cell) {
      ExactSum lo;
      ExactSum hi;
      for (const std::size_t m : members_) {
        if (farfield_->is_near(m, cell)) continue;
        lo.add(farfield_->bound_lo(m, cell));
        hi.add(farfield_->bound_hi(m, cell));
      }
      drift = std::max(drift, std::abs(far_lo_val_[cell] - lo.value()));
      drift = std::max(drift, std::abs(far_hi_val_[cell] - hi.value()));
    }
  }
  return drift;
}

std::vector<std::size_t> greedy_feasible_subset(const GainMatrix& gains,
                                                std::span<const std::size_t> candidates,
                                                const SinrParams& params) {
  IncrementalGainClass cls(gains, params);
  for (const std::size_t j : candidates) {
    if (cls.can_add(j)) cls.add(j);
  }
  return cls.members();
}

double LinkLossMatrix::loss_vu(std::size_t j, std::size_t i) const {
  require(!loss_vu_.empty(), "LinkLossMatrix: loss_vu is bidirectional-only");
  return loss_vu_[j * n_ + i];
}

LinkLossMatrix::LinkLossMatrix(const MetricSpace& metric,
                               std::span<const Request> requests, double alpha,
                               Variant variant)
    : n_(requests.size()) {
  loss_uv_.assign(n_ * n_, 0.0);
  if (variant == Variant::bidirectional) loss_vu_.assign(n_ * n_, 0.0);
  for (std::size_t j = 0; j < n_; ++j) {
    const Request& rj = requests[j];
    for (std::size_t i = 0; i < n_; ++i) {
      const Request& ri = requests[i];
      loss_uv_[j * n_ + i] = path_loss(metric.distance(rj.u, ri.v), alpha);
      if (variant == Variant::bidirectional) {
        loss_vu_[j * n_ + i] = path_loss(metric.distance(rj.v, ri.u), alpha);
      }
    }
  }
}

}  // namespace oisched
