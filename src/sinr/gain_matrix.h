// Shared gain-matrix engine: precomputed pairwise SINR gains.
//
// Every algorithm in the library keeps asking the same two questions: "how
// strong is request i's own signal?" and "how strongly does request j
// interfere at one of request i's endpoints?". Answered directly, each
// query costs a metric distance plus a std::pow — and the coloring
// algorithms ask them Theta(n^2) times and more, recomputing identical
// values inside every feasibility test. A GainMatrix answers them once per
// (metric, requests, powers, variant): all n^2 variant-resolved
// contributions are tabulated up front and the hot loops become table
// lookups.
//
// The tables store exactly the values the direct path computes
// (power / path_loss with the min-endpoint rule applied per variant), and
// the query-side overloads below sum them in the same order as their
// direct counterparts in sinr/feasibility.h — so verdicts, margins and the
// resulting colorings are bit-for-bit identical. The direct path stays
// alive behind the same APIs (see FeasibilityEngine) for cross-checking.
#ifndef OISCHED_SINR_GAIN_MATRIX_H
#define OISCHED_SINR_GAIN_MATRIX_H

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "metric/metric_space.h"
#include "sinr/feasibility.h"
#include "sinr/gain_storage.h"
#include "sinr/model.h"
#include "util/exact_bank.h"
#include "util/exact_sum.h"

namespace oisched {

class FarFieldContext;
class Instance;

/// Which machinery answers feasibility queries inside an algorithm. All
/// three produce bit-for-bit identical results; they differ only in cost.
enum class FeasibilityEngine {
  /// Re-evaluate the whole color class from scratch on every query
  /// (check_feasible): O(k^2) distance/pow work per insertion test. The
  /// reference semantics; kept for cross-checking and benchmarking.
  direct,
  /// Metric-based incremental accumulators (IncrementalClass): O(k)
  /// distance/pow work per insertion test.
  incremental,
  /// Precomputed GainMatrix plus incremental accumulators: O(n^2) pow work
  /// once per instance, then O(k) table lookups per insertion test.
  gain_matrix,
};

/// Human-readable engine name ("direct" / "incremental" / "gain_matrix").
[[nodiscard]] const char* to_string(FeasibilityEngine engine);

/// Precomputed pairwise gains for one (metric, requests, powers, variant).
///
/// at_v(j, i) is the interference request j contributes at request i's
/// receiver v_i under the variant's rule (sender u_j radiates in the
/// directed variant; the nearer endpoint radiates in the bidirectional
/// one); at_u(j, i) is the same at u_i. The bidirectional constraints need
/// at_u, so its table is always built for that variant; the directed ones
/// never consult it, so directed callers only get it (and pay its n^2
/// build) by passing with_sender_gains = true — the sqrt-coloring LP does,
/// because it budgets interference at sender nodes too. Without the table
/// at_u reads as 0, matching the direct path that never evaluates it.
/// Co-located interferers yield +infinity, like the direct path.
/// signal(i) is p_i / l_i; construction requires all links to have
/// positive loss, mirroring the precondition of every direct checker.
///
/// The tables live in one of two storage forms (gain_storage.h). `dense`
/// keeps the eager layout (and its raw-pointer fast path) and grows in
/// place — append_request gives a fresh link its row and column in
/// amortized O(n), the foundation of the online scheduler's growing
/// universe; `computed` keeps no table and evaluates rows on demand. Both
/// compute each entry with the same formula from the same inputs, so
/// queries are bit-for-bit identical across backends.
///
/// Lifetime: the matrix copies the requests and powers it was built from
/// (requests()/powers() view the copies), but only references the metric —
/// the caller keeps it alive, as Instance's gain cache does. Growth and the
/// computed backend consult the metric after construction; a fixed dense
/// table never does, but the contract is uniform.
class GainMatrix {
 public:
  GainMatrix(const MetricSpace& metric, std::span<const Request> requests,
             std::span<const double> powers, double alpha, Variant variant,
             bool with_sender_gains = false, GainBackend backend = GainBackend::dense);
  GainMatrix(const Instance& instance, std::span<const double> powers, double alpha,
             Variant variant, bool with_sender_gains = false,
             GainBackend backend = GainBackend::dense);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] Variant variant() const noexcept { return variant_; }
  [[nodiscard]] double alpha() const noexcept { return alpha_; }
  [[nodiscard]] GainBackend backend() const noexcept { return backend_; }
  [[nodiscard]] const MetricSpace& metric() const noexcept { return *metric_; }
  [[nodiscard]] std::span<const Request> requests() const noexcept {
    return *requests_store_;
  }
  [[nodiscard]] std::span<const double> powers() const noexcept { return *powers_store_; }

  /// Own-link signal strength p_i / l_i.
  [[nodiscard]] double signal(std::size_t i) const { return signal_[i]; }
  /// Contribution of request j at request i's receiver v_i (j != i).
  [[nodiscard]] double at_v(std::size_t j, std::size_t i) const {
    if (dense_v_ != nullptr) return dense_v_[j * stride_ + i];
    return computed_v_->at(j, i);
  }
  /// Contribution of request j at request i's sender u_i (j != i); 0 when
  /// the sender-side table was not built (directed default).
  [[nodiscard]] double at_u(std::size_t j, std::size_t i) const {
    if (dense_u_ != nullptr) return dense_u_[j * stride_ + i];
    return computed_u_ ? computed_u_->at(j, i) : 0.0;
  }

  /// Receiver-table row j in full (size() entries) — what the accumulator
  /// row walks and member scans read instead of per-element at_v. A raw
  /// pointer into the buffer on dense; the one-row cache on computed (valid
  /// until the next row of the same table is read).
  [[nodiscard]] std::span<const double> row_v(std::size_t j) const {
    if (dense_v_ != nullptr) return {dense_v_ + j * stride_, n_};
    return computed_v_->row(j);
  }
  /// Sender-side counterpart; requires the sender table (bidirectional or
  /// with_sender_gains builds).
  [[nodiscard]] std::span<const double> row_u(std::size_t j) const {
    if (dense_u_ != nullptr) return {dense_u_ + j * stride_, n_};
    return computed_u_->row(j);
  }

  /// Grows the universe by one link (dense backend only): copies the
  /// request, computes its signal and its table row/column in amortized
  /// O(n), and returns the new link's index. The first append reallocates
  /// each table to stride 1.5n (2.25 n^2 doubles, ~3.25 n^2 during the
  /// copy; see DenseGainStorage::append). Spans handed out by
  /// requests()/powers()/row_v()/row_u() before the append are invalidated.
  /// Only legal on a privately owned matrix; not thread-safe.
  std::size_t append_request(const Request& request, double power);

  /// Re-points link `link` at new endpoints (endpoint motion), possibly
  /// with a new power: updates the stores, recomputes the link's signal
  /// and refreshes its table row and column in place — O(n) element
  /// evaluations on either backend. Each refreshed entry is computed by
  /// the same formula from the same stores as an eager build over the
  /// moved universe, so queries stay bit-for-bit identical to a freshly
  /// constructed matrix. Only
  /// legal on a privately owned matrix (Instance's shared gain cache must
  /// never mutate); not thread-safe.
  void update_request(std::size_t link, const Request& request, double power);

  /// Doubles resident across signal and both tables. Safe to sample from
  /// another thread while the owner appends or reads rows.
  [[nodiscard]] std::size_t resident_doubles() const noexcept {
    return resident_doubles_.load();
  }

 private:
  /// Re-reads the dense fast-path pointers and stride, and republishes the
  /// residency — after construction and after every growth.
  void bind_tables();

  std::size_t n_;
  double alpha_;
  Variant variant_;
  GainBackend backend_;
  const MetricSpace* metric_;
  /// Owned copies shared with the storage fillers, so computed entries and
  /// appended rows read the same data the eager build would have.
  std::shared_ptr<std::vector<Request>> requests_store_;
  std::shared_ptr<std::vector<double>> powers_store_;
  std::vector<double> signal_;
  /// The tables: the dense pair or the computed pair, by backend_; the
  /// sender-side one only for bidirectional or with_sender_gains builds.
  std::optional<DenseGainStorage> table_v_;
  std::optional<DenseGainStorage> table_u_;
  std::optional<ComputedGainStorage> computed_v_;
  std::optional<ComputedGainStorage> computed_u_;
  /// Raw fast-path pointers into dense storage (nullptr otherwise) and the
  /// dense row stride (== n_ until the table grows).
  const double* dense_v_ = nullptr;
  const double* dense_u_ = nullptr;
  std::size_t stride_ = 0;
  std::atomic<std::size_t> resident_doubles_{0};
};

/// check_feasible over precomputed gains; identical to the direct overload.
[[nodiscard]] FeasibilityReport check_feasible(const GainMatrix& gains,
                                               std::span<const std::size_t> active,
                                               const SinrParams& params);

/// max_feasible_gain over precomputed gains; identical to the direct one.
[[nodiscard]] double max_feasible_gain(const GainMatrix& gains,
                                       std::span<const std::size_t> active);

/// How IncrementalGainClass restores its accumulators when a member leaves.
///
/// Plain floating-point accumulators are order-sensitive: subtracting a
/// departed member's contributions does not, in general, reproduce the sum
/// a fresh replay of the surviving adds would compute, so a class that
/// only ever subtracts drifts away from the from-scratch evaluation.
enum class RemovePolicy {
  /// Replay the surviving members' contributions in insertion order after
  /// every removal. O(|class| * n) per remove, but the plain-double
  /// accumulators are bit-for-bit identical to a freshly built class at
  /// all times. The historical exact mode (and still the default of
  /// IncrementalGainClass itself, whose add-path arithmetic the offline
  /// engine-equivalence gates pin).
  rebuild,
  /// Subtract the departed member's contributions (O(n) per remove) and
  /// track the accumulated cancellation magnitude per slot; replay from
  /// scratch only when the bound drifts past a relative tolerance or a
  /// removal-count interval. Verdicts may differ from the from-scratch
  /// evaluation by at most the tracked drift between rebuilds.
  compensated,
  /// Numerically exact O(n) removal: every accumulator slot is an
  /// ExactSum expansion (util/exact_sum.h), so add accumulates and
  /// remove subtracts with zero rounding error, and the slot's exposed
  /// double is the correct rounding of the infinitely precise member
  /// sum. The state is a pure function of the member multiset: after any
  /// add/remove history the accumulators are bit-for-bit identical to a
  /// freshly built exact-policy class over the survivors (in any
  /// insertion order), with no replays at all — accumulator_drift() is
  /// exactly 0.0 forever. (Sole escape hatch: a slot whose true
  /// interference sum exceeded DBL_MAX saturates its expansion, and the
  /// next removal re-derives the class from scratch to restore the
  /// finite state.) The online scheduler's default.
  exact,
};

/// Human-readable policy name ("rebuild" / "compensated" / "exact").
[[nodiscard]] const char* to_string(RemovePolicy policy);

/// Parses a policy name (as printed by to_string); returns false on an
/// unknown word.
[[nodiscard]] bool parse_remove_policy(const std::string& word, RemovePolicy& policy);

/// Incrementally maintained color class over a GainMatrix.
///
/// Same contract as IncrementalClass, but the interference every member
/// suffers is kept in per-request accumulators covering *all* n requests,
/// so can_add costs O(|class|) comparisons with no distance or pow work
/// and the candidate's own constraint is a single lookup; add costs O(n)
/// table additions. Accumulation follows insertion order, making verdicts
/// bit-for-bit identical to IncrementalClass. Classes also shrink:
/// remove() evicts a member under the configured RemovePolicy.
///
/// Far-field mode (a non-null FarFieldContext, exact policy only): the
/// exact banks hold NEAR-ONLY interference (members within the context's
/// near radius of each slot's cell), mutations walk the per-cell slot
/// lists instead of full rows, and the class additionally keeps per-cell
/// exact aggregates of the far members' conservative gain bounds. Every
/// feasibility comparison is answered from the [near + far_lo,
/// near + far_hi] bracket when it clears the threshold either way, and
/// falls back to an exact reconstruction — extract the near expansion,
/// add the far members' exact gains — only when the bracket straddles it.
/// The reconstruction is the correct rounding of the same member multiset
/// the exact-only class accumulates, so every verdict (and hence every
/// schedule) is bit-identical to a class without the context; the bounds
/// only decide how much work a test costs. Counters for both outcomes
/// live on the context.
class IncrementalGainClass {
 public:
  IncrementalGainClass(const GainMatrix& gains, const SinrParams& params,
                       RemovePolicy policy = RemovePolicy::rebuild,
                       std::size_t rebuild_interval = 16,
                       const FarFieldContext* farfield = nullptr);

  [[nodiscard]] bool can_add(std::size_t request_index) const;
  void add(std::size_t request_index);
  /// Evicts a member (precondition: it is one). Under RemovePolicy::rebuild
  /// the accumulators afterwards equal a fresh replay of the surviving adds
  /// in insertion order, bit for bit; under exact they equal a freshly
  /// built exact-policy class over the survivors, bit for bit, at O(n)
  /// cost; under compensated they are within the drift bound of that
  /// replay.
  void remove(std::size_t request_index);

  /// Endpoint-motion bracket, phase 1 of 2: called on EVERY class (member
  /// or not) BEFORE GainMatrix::update_request rewrites link `link`'s row
  /// and column. A member class subtracts the link's stale row
  /// contribution from the other slots under this policy's arithmetic
  /// (error-free under exact); a non-member class has nothing to read from
  /// the old tables. Must be paired with finish_link_update on the same
  /// link, with no other mutation in between.
  void begin_link_update(std::size_t link);
  /// Endpoint-motion bracket, phase 2 of 2: called AFTER the matrix
  /// refresh. A member class adds the link's new row contribution; every
  /// class then re-derives slot `link` from its members, because the
  /// column behind that slot changed and the add/remove paths never touch
  /// a link's own slot. Under exact the resulting state is bit-for-bit a
  /// freshly built exact class over the same members and the moved
  /// universe, with no replay (the sticky-saturation escape hatch of
  /// remove() applies here too, counted in removal_rebuilds()); under
  /// rebuild a member class replays; under compensated the subtract grows
  /// the drift bound exactly as a remove does.
  void finish_link_update(std::size_t link);
  /// True when every member still decodes against the live accumulators —
  /// the O(|class|) re-validation the online scheduler runs after motion
  /// (only the moved link's own class can break: removing a member only
  /// shrinks interference sums termwise everywhere else).
  [[nodiscard]] bool members_feasible() const;

  [[nodiscard]] bool contains(std::size_t request_index) const;
  /// Extends the accumulators after the gain matrix grew (append_request):
  /// fresh slots receive the members' contributions in insertion order,
  /// bit-identical to a from-scratch replay over the grown
  /// universe. Must be called before the next can_add/add/remove once the
  /// matrix has appended rows; a no-op when sizes already agree.
  void sync_universe();
  /// Re-derives the accumulators by replaying the members in insertion
  /// order — the canonical from-scratch state every policy converges to
  /// (a no-op change of state under exact, whose accumulators never leave
  /// it).
  void rebuild();
  /// Largest absolute deviation of the live accumulators from a replayed
  /// rebuild under this policy's arithmetic — the cross-check of the
  /// compensated policy (always exactly 0.0 under rebuild AND under
  /// exact). Does not modify the class.
  [[nodiscard]] double accumulator_drift() const;

  /// Full O(|class| * n) accumulator replays triggered by removals so far
  /// (every remove under rebuild, drift/interval triggers under
  /// compensated, never under exact) — the counter the online scheduler
  /// aggregates to show the rebuilds a policy eliminated.
  [[nodiscard]] std::size_t removal_rebuilds() const noexcept {
    return removal_rebuilds_;
  }

  /// The live accumulator slots (interference the members contribute at
  /// request i's receiver / sender): what can_add thresholds against.
  /// Exposed so the exactness suites can compare states bit for bit.
  [[nodiscard]] double accumulator_v(std::size_t i) const { return acc_v_[i]; }
  /// 0.0 for the directed variant, which has no sender-side constraint.
  [[nodiscard]] double accumulator_u(std::size_t i) const {
    return acc_u_.empty() ? 0.0 : acc_u_[i];
  }

  [[nodiscard]] const std::vector<std::size_t>& members() const noexcept {
    return members_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return members_.size(); }

 private:
  static constexpr std::size_t kNoExtra = static_cast<std::size_t>(-1);

  /// Applies columns [begin, end) of gain-table row j to the accumulators
  /// under the class's policy: exact-bank add/subtract, plain add, or the
  /// compensated subtract (which also grows the cancellation bound).
  /// Returns true when an exact slot is left saturated.
  bool apply_row(std::size_t j, std::size_t begin, std::size_t end, bool add_op);
  /// apply_row over every column but j's own — a member never interferes
  /// with itself, and skipping the diagonal keeps that slot untouched
  /// instead of relying on += 0.0 (which would flip the sign of a -0.0
  /// slot and is not a no-op on the exact expansions).
  bool apply_row_off_diagonal(std::size_t j, bool add_op);
  void replay_accumulators(std::vector<double>& acc_v, std::vector<double>& acc_u) const;
  void maybe_rebuild_after_remove();
  void rederive_slot(std::size_t link);
  /// Far-field mode: applies (or withdraws) member j — exact near-field
  /// walk over the cell slot lists plus bound contributions to every far
  /// cell's aggregates. Returns true when a near slot is left saturated.
  bool far_apply_member(std::size_t j, bool add_op);
  /// Far-field mode: the reference verdict of
  ///   signal(i) > beta * (acc_full(i) + extra + noise)
  /// on one side, where acc_full is the exact-only class's accumulator and
  /// extra is candidate j's gain at slot i (kNoExtra for none) — answered
  /// from the bounds when they clear the threshold, exactly otherwise.
  [[nodiscard]] bool far_test(std::size_t i, std::size_t j, bool sender_side) const;
  /// Far-field mode: the exact-only accumulator of slot i on one side,
  /// bit-identical by the order-free ExactSum reconstruction.
  [[nodiscard]] double far_exact_slot(std::size_t i, bool sender_side) const;

  const GainMatrix* gains_;
  SinrParams params_;
  RemovePolicy policy_;
  std::size_t rebuild_interval_;
  bool update_pending_ = false;
  std::size_t removes_since_rebuild_ = 0;
  std::size_t removal_rebuilds_ = 0;
  std::vector<std::size_t> members_;
  /// Interference from the members at v_i / u_i, for every request i. The
  /// slots of members themselves exclude their own contribution. Under
  /// the exact policy these are the correctly rounded values of exact_v_/
  /// exact_u_, refreshed after every mutation.
  std::vector<double> acc_v_;
  std::vector<double> acc_u_;
  /// Compensated mode only: accumulated magnitude cancelled out of each
  /// slot since the last rebuild — an upper bound on the lost precision.
  std::vector<double> cancelled_v_;
  std::vector<double> cancelled_u_;
  /// Exact mode only: the error-free expansions behind the slots, in the
  /// structure-of-arrays bank the row updates stream (util/exact_bank.h).
  /// In far-field mode they hold the near-field part only.
  ExactSumBank exact_v_;
  ExactSumBank exact_u_;
  /// Far-field mode only (see class comment). The aggregates are exact
  /// sums of the members' per-cell bound doubles, so unlimited add/remove
  /// churn keeps them sound; the *_val_ mirrors cache their correctly
  /// rounded readouts for the hot comparisons.
  const FarFieldContext* farfield_ = nullptr;
  std::vector<ExactSum> far_lo_;
  std::vector<ExactSum> far_hi_;
  std::vector<double> far_lo_val_;
  std::vector<double> far_hi_val_;
  std::vector<std::size_t> cell_scratch_;
};

/// greedy_feasible_subset over precomputed gains; identical selection.
[[nodiscard]] std::vector<std::size_t> greedy_feasible_subset(
    const GainMatrix& gains, std::span<const std::size_t> candidates,
    const SinrParams& params);

/// Precomputed directed link losses for the MAC simulator: the path loss
/// between the half-slot transmitter of pair j and the half-slot receiver
/// of pair i. Phase 0 sends u -> v (loss_uv), phase 1 sends v -> u
/// (loss_vu, bidirectional only). Losses — not gains — are stored so the
/// simulator's power / loss arithmetic stays bit-identical while skipping
/// the per-slot distance and pow work.
class LinkLossMatrix {
 public:
  LinkLossMatrix(const MetricSpace& metric, std::span<const Request> requests,
                 double alpha, Variant variant);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  /// Path loss l(u_j, v_i).
  [[nodiscard]] double loss_uv(std::size_t j, std::size_t i) const {
    return loss_uv_[j * n_ + i];
  }
  /// Path loss l(v_j, u_i); only built for the bidirectional variant
  /// (the directed simulator has no phase-1 half-slot).
  [[nodiscard]] double loss_vu(std::size_t j, std::size_t i) const;

 private:
  std::size_t n_;
  std::vector<double> loss_uv_;
  std::vector<double> loss_vu_;
};

}  // namespace oisched

#endif  // OISCHED_SINR_GAIN_MATRIX_H
