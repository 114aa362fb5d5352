// Storage-backend equivalence suite: the dense and computed gain backends
// must answer every query bit-for-bit identically — raw table entries,
// feasibility verdicts and margins, whole first-fit schedules and whole
// online replays — across the line/grid/random/adversarial fixtures and
// both variants. Plus dense growth: a table grown in place one link at a
// time, and the class accumulators synced over it, must equal a fresh
// dense build over the final universe bit for bit, under every remove
// policy and with the far field.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/greedy.h"
#include "core/power_assignment.h"
#include "core/schedule.h"
#include "gen/adversarial.h"
#include "metric/euclidean.h"
#include "online/online_scheduler.h"
#include "sinr/farfield.h"
#include "sinr/feasibility.h"
#include "sinr/gain_matrix.h"
#include "sinr/gain_storage.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/rng.h"

namespace oisched {
namespace {

using testutil::grid_scenario;
using testutil::line_pairs;
using testutil::random_scenario;

/// line/grid/random fixtures plus the Theorem-1 adversarial family (which
/// lives in the directed variant but tabulates fine under both).
std::vector<Instance> fixture_instances() {
  std::vector<Instance> instances;
  instances.push_back(
      line_pairs({0.0, 2.0, 50.0, 53.0, 120.0, 121.0, 200.0, 207.0}).instance());
  instances.push_back(grid_scenario(4, 6).instance());
  instances.push_back(random_scenario(32, /*seed=*/17).instance());
  instances.push_back(theorem1_family(12, LinearPower{}, 3.0).instance);
  return instances;
}

std::vector<Variant> both_variants() {
  return {Variant::directed, Variant::bidirectional};
}

std::vector<GainBackend> all_backends() {
  return {GainBackend::dense, GainBackend::computed};
}

TEST(GainBackendNames, RoundTrip) {
  for (const GainBackend backend : all_backends()) {
    GainBackend parsed = GainBackend::computed;
    ASSERT_TRUE(parse_gain_backend(to_string(backend), parsed));
    EXPECT_EQ(parsed, backend);
  }
  GainBackend parsed = GainBackend::dense;
  for (const char* word : {"sparse", "tiled", "appendable"}) {
    EXPECT_FALSE(parse_gain_backend(word, parsed)) << word;
  }
}

TEST(GainStorageBackends, VerdictsAndMarginsAgreeOnRandomSubsets) {
  Rng rng(4711);
  for (const Instance& instance : fixture_instances()) {
    const auto powers = SqrtPower{}.assign(instance, 3.0);
    SinrParams params;
    params.alpha = 3.0;
    params.beta = 0.5;
    for (const Variant variant : both_variants()) {
      const GainMatrix dense(instance, powers, params.alpha, variant,
                             /*with_sender_gains=*/false, GainBackend::dense);
      const GainMatrix computed(instance, powers, params.alpha, variant,
                                /*with_sender_gains=*/false, GainBackend::computed);
      for (int trial = 0; trial < 12; ++trial) {
        std::vector<std::size_t> active;
        for (std::size_t i = 0; i < instance.size(); ++i) {
          if (rng.bernoulli(0.4)) active.push_back(i);
        }
        const FeasibilityReport expect = check_feasible(dense, active, params);
        const FeasibilityReport got = check_feasible(computed, active, params);
        EXPECT_EQ(got.feasible, expect.feasible);
        EXPECT_EQ(got.worst_margin, expect.worst_margin);
        EXPECT_EQ(got.worst_request, expect.worst_request);
        EXPECT_EQ(max_feasible_gain(computed, active), max_feasible_gain(dense, active));
      }
    }
  }
}

TEST(GainStorageBackends, FirstFitSchedulesIdenticalOnComputedTables) {
  // greedy_coloring reads the shared dense tables; first-fit over classes
  // on a computed matrix (one filler pass per candidate row) must place
  // every request identically.
  for (const Instance& instance : fixture_instances()) {
    SinrParams params;
    params.alpha = 3.0;
    params.beta = 1.0;
    for (const auto& assignment : standard_assignments()) {
      const auto powers = assignment->assign(instance, params.alpha);
      for (const Variant variant : both_variants()) {
        const Schedule dense =
            greedy_coloring(instance, powers, params, variant,
                            RequestOrder::longest_first, FeasibilityEngine::gain_matrix);
        const GainMatrix computed(instance, powers, params.alpha, variant,
                                  /*with_sender_gains=*/false, GainBackend::computed);
        std::vector<IncrementalGainClass> classes;
        std::vector<int> color_of(instance.size(), -1);
        for (const std::size_t r : ordered_indices(instance, RequestOrder::longest_first)) {
          std::size_t c = 0;
          while (c < classes.size() && !classes[c].can_add(r)) ++c;
          if (c == classes.size()) classes.emplace_back(computed, params);
          classes[c].add(r);
          color_of[r] = static_cast<int>(c);
        }
        EXPECT_EQ(color_of, dense.color_of) << assignment->name();
        EXPECT_EQ(static_cast<int>(classes.size()), dense.num_colors);
      }
    }
  }
}

TEST(GainStorageBackends, OnlineReplaysIdenticalAcrossBackends) {
  for (const Instance& instance : fixture_instances()) {
    SinrParams params;
    params.alpha = 3.0;
    params.beta = 1.0;
    const auto powers = SqrtPower{}.assign(instance, params.alpha);
    for (const Variant variant : both_variants()) {
      Rng rng(77);
      const ChurnTrace trace =
          make_churn_trace("poisson", instance.size(), /*target_events=*/400, rng);
      ReplayResult reference;
      bool have_reference = false;
      for (const GainBackend backend : all_backends()) {
        OnlineSchedulerOptions options;
        options.storage = backend;
        OnlineScheduler scheduler(instance, powers, params, variant, options);
        const ReplayResult replay = replay_trace(scheduler, trace);
        EXPECT_TRUE(replay.validated) << to_string(backend);
        if (!have_reference) {
          reference = replay;
          have_reference = true;
          continue;
        }
        // The whole replayed trajectory is backend-invariant: same final
        // coloring, same color count, same compaction work.
        EXPECT_EQ(replay.final_schedule.color_of, reference.final_schedule.color_of)
            << to_string(backend);
        EXPECT_EQ(replay.final_colors, reference.final_colors);
        EXPECT_EQ(replay.stats.migrations, reference.stats.migrations);
        EXPECT_EQ(replay.stats.compaction_skips, reference.stats.compaction_skips);
        EXPECT_EQ(replay.final_worst_margin, reference.final_worst_margin);
      }
    }
  }
}

TEST(GainStorageBackends, ExactAccumulatorsBitIdenticalAcrossBackends) {
  // The exact expansions consume table entries, so both backends — whose
  // entries are bit-identical — must yield bit-identical exact accumulator
  // states through an add/remove workout.
  const auto scenario = random_scenario(24, /*seed=*/51);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 0.5;
  const GainMatrix dense(instance, powers, params.alpha, Variant::bidirectional);
  const GainMatrix computed(instance, powers, params.alpha, Variant::bidirectional,
                            /*with_sender_gains=*/false, GainBackend::computed);
  IncrementalGainClass on_dense(dense, params, RemovePolicy::exact);
  IncrementalGainClass on_computed(computed, params, RemovePolicy::exact);
  Rng rng(404);
  std::vector<std::size_t> in_class;
  for (int step = 0; step < 120; ++step) {
    if (!in_class.empty() && rng.bernoulli(0.4)) {
      const std::size_t pos = rng.uniform_index(in_class.size());
      const std::size_t victim = in_class[pos];
      in_class.erase(in_class.begin() + static_cast<std::ptrdiff_t>(pos));
      on_dense.remove(victim);
      on_computed.remove(victim);
    } else {
      const std::size_t cand = rng.uniform_index(instance.size());
      if (on_dense.contains(cand) || !on_dense.can_add(cand)) continue;
      ASSERT_TRUE(on_computed.can_add(cand));
      on_dense.add(cand);
      on_computed.add(cand);
      in_class.push_back(cand);
    }
    for (std::size_t i = 0; i < instance.size(); ++i) {
      ASSERT_EQ(on_dense.accumulator_v(i), on_computed.accumulator_v(i)) << i;
      ASSERT_EQ(on_dense.accumulator_u(i), on_computed.accumulator_u(i)) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Computed (tableless) backend: every answer is recomputed through the
// filler, so the tables cost O(n) memory — and must still be bit-identical.

TEST(ComputedBackend, AnswersMatchDenseBitForBit) {
  for (const Instance& instance : fixture_instances()) {
    const auto powers = SqrtPower{}.assign(instance, 3.0);
    for (const Variant variant : both_variants()) {
      const GainMatrix dense(instance, powers, 3.0, variant,
                             /*with_sender_gains=*/true, GainBackend::dense);
      const GainMatrix computed(instance, powers, 3.0, variant,
                                /*with_sender_gains=*/true, GainBackend::computed);
      EXPECT_EQ(computed.backend(), GainBackend::computed);
      for (std::size_t j = 0; j < dense.size(); ++j) {
        EXPECT_EQ(computed.signal(j), dense.signal(j));
        for (std::size_t i = 0; i < dense.size(); ++i) {
          if (i == j) continue;
          ASSERT_EQ(computed.at_v(j, i), dense.at_v(j, i)) << j << "," << i;
          ASSERT_EQ(computed.at_u(j, i), dense.at_u(j, i)) << j << "," << i;
        }
        // Whole rows serve the same values from the one-row caches.
        const auto row_v = computed.row_v(j);
        const auto row_u = computed.row_u(j);
        ASSERT_EQ(row_v.size(), dense.size());
        ASSERT_EQ(row_u.size(), dense.size());
        for (std::size_t i = 0; i < dense.size(); ++i) {
          ASSERT_EQ(row_v[i], dense.row_v(j)[i]) << j << "," << i;
          ASSERT_EQ(row_u[i], dense.row_u(j)[i]) << j << "," << i;
        }
      }
      // The whole point: no n^2 tables. Signals plus one cached row per
      // table, allocated up front, so the figure never moves.
      EXPECT_EQ(computed.resident_doubles(), 3 * computed.size());
      EXPECT_LT(computed.resident_doubles(), dense.resident_doubles());
    }
  }
}

TEST(ComputedBackend, UpdateRequestInvalidatesTheRowCache) {
  const auto scenario = random_scenario(12, /*seed=*/23);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  GainMatrix computed(instance, powers, 3.0, Variant::bidirectional,
                      /*with_sender_gains=*/true, GainBackend::computed);
  // Warm the cache on the row we are about to move.
  const std::size_t moved = 5;
  (void)computed.row_v(moved);
  (void)computed.row_u(moved);
  std::vector<Request> requests(instance.requests().begin(),
                                instance.requests().end());
  requests[moved] = Request{requests[moved].v, requests[moved].u};  // flip
  computed.update_request(moved, requests[moved], powers[moved]);
  const Instance after(instance.metric_ptr(), requests);
  const GainMatrix dense(after, powers, 3.0, Variant::bidirectional,
                         /*with_sender_gains=*/true, GainBackend::dense);
  for (std::size_t j = 0; j < dense.size(); ++j) {
    EXPECT_EQ(computed.signal(j), dense.signal(j));
    for (std::size_t i = 0; i < dense.size(); ++i) {
      if (i == j) continue;
      ASSERT_EQ(computed.at_v(j, i), dense.at_v(j, i)) << j << "," << i;
      ASSERT_EQ(computed.at_u(j, i), dense.at_u(j, i)) << j << "," << i;
    }
  }
  for (std::size_t i = 0; i < dense.size(); ++i) {
    ASSERT_EQ(computed.row_v(moved)[i], dense.at_v(moved, i)) << i;
  }
}

// ---------------------------------------------------------------------------
// Dense growth: append_request grows the table in place.

/// Asserts a grown matrix equals a fresh dense build entry for entry.
void expect_tables_identical(const GainMatrix& grown, const GainMatrix& fresh) {
  ASSERT_EQ(grown.size(), fresh.size());
  for (std::size_t j = 0; j < fresh.size(); ++j) {
    ASSERT_EQ(grown.signal(j), fresh.signal(j)) << j;
    const auto row_v = grown.row_v(j);
    ASSERT_EQ(row_v.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      ASSERT_EQ(row_v[i], fresh.row_v(j)[i]) << j << "," << i;
      ASSERT_EQ(grown.at_v(j, i), fresh.at_v(j, i)) << j << "," << i;
      ASSERT_EQ(grown.at_u(j, i), fresh.at_u(j, i)) << j << "," << i;
    }
  }
}

TEST(DenseGrowth, GrowthMatchesAFullDenseBuildBitForBit) {
  const auto scenario = random_scenario(24, /*seed=*/5);
  const Instance full = scenario.instance();
  const auto powers = SqrtPower{}.assign(full, 3.0);
  for (const Variant variant : both_variants()) {
    const GainMatrix dense(full, powers, 3.0, variant, /*with_sender_gains=*/true);
    const std::size_t n0 = 10;
    const auto all = full.requests();
    GainMatrix growing(full.metric(), all.subspan(0, n0),
                       std::span<const double>(powers).subspan(0, n0), 3.0, variant,
                       /*with_sender_gains=*/true);
    for (std::size_t k = n0; k < full.size(); ++k) {
      const std::size_t index = growing.append_request(all[k], powers[k]);
      EXPECT_EQ(index, k);
    }
    EXPECT_EQ(growing.requests().size(), full.size());
    expect_tables_identical(growing, dense);
    // Growth reserves capacity geometrically; the fresh build holds exactly
    // n^2 doubles per table plus the signals.
    EXPECT_EQ(dense.resident_doubles(), 2 * full.size() * full.size() + full.size());
    EXPECT_GE(growing.resident_doubles(), dense.resident_doubles());
    EXPECT_LE(growing.resident_doubles(), 2 * 3 * full.size() * full.size());
  }
}

TEST(DenseGrowth, GrownTablesRefreshInPlace) {
  // Motion after growth: the refresh walks the grown stride.
  const auto scenario = random_scenario(16, /*seed=*/8);
  const Instance full = scenario.instance();
  const auto powers = SqrtPower{}.assign(full, 3.0);
  const auto all = full.requests();
  GainMatrix growing(full.metric(), all.subspan(0, 4),
                     std::span<const double>(powers).subspan(0, 4), 3.0,
                     Variant::bidirectional);
  for (std::size_t k = 4; k < full.size(); ++k) (void)growing.append_request(all[k], powers[k]);
  std::vector<Request> requests(all.begin(), all.end());
  requests[7] = Request{requests[7].v, requests[7].u};
  growing.update_request(7, requests[7], powers[7]);
  const Instance after(full.metric_ptr(), requests);
  expect_tables_identical(growing, GainMatrix(after, powers, 3.0, Variant::bidirectional));
}

TEST(DenseGrowth, OnlyDenseGrows) {
  const auto scenario = random_scenario(6, /*seed=*/3);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  GainMatrix computed(instance, powers, 3.0, Variant::bidirectional,
                      /*with_sender_gains=*/false, GainBackend::computed);
  EXPECT_THROW((void)computed.append_request(instance.request(0), 1.0),
               PreconditionError);
  GainMatrix dense(instance, powers, 3.0, Variant::bidirectional);
  EXPECT_EQ(dense.append_request(instance.request(0), 1.0), instance.size());
}

TEST(IncrementalGainClassGrowth, SyncedAccumulatorsMatchAFreshReplay) {
  const auto scenario = random_scenario(20, /*seed=*/13);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 0.5;
  const std::size_t n0 = 12;
  const auto all = instance.requests();
  GainMatrix growing(instance.metric(), all.subspan(0, n0),
                     std::span<const double>(powers).subspan(0, n0), params.alpha,
                     Variant::bidirectional);
  IncrementalGainClass cls(growing, params);
  for (std::size_t i = 0; i < n0; ++i) {
    if (cls.can_add(i)) cls.add(i);
  }
  // Unsynced use after growth is rejected; after sync the class is
  // bit-identical to a from-scratch replay over the grown universe.
  (void)growing.append_request(all[n0], powers[n0]);
  EXPECT_THROW((void)cls.can_add(n0), PreconditionError);
  cls.sync_universe();
  EXPECT_EQ(cls.accumulator_drift(), 0.0);
  IncrementalGainClass twin(growing, params);
  for (const std::size_t m : cls.members()) twin.add(m);
  for (std::size_t cand = 0; cand <= n0; ++cand) {
    if (cls.contains(cand)) continue;
    EXPECT_EQ(cls.can_add(cand), twin.can_add(cand)) << cand;
  }
}

TEST(IncrementalGainClassGrowth, GrownClassesMatchAFreshDenseBuildUnderEveryPolicy) {
  // Members join as the universe grows one link at a time; after every
  // append + sync_universe each class must equal a class built from
  // scratch, with the same members in the same order, over a FRESH dense
  // matrix of the grown universe — bit for bit, under all three remove
  // policies, and with the far field (exact only) on the near banks too.
  const auto scenario = random_scenario(24, /*seed=*/13);
  const Instance instance = scenario.instance();
  const auto powers = SqrtPower{}.assign(instance, 3.0);
  const std::shared_ptr<const EuclideanMetric> euclid = scenario.metric;
  SinrParams params;
  params.alpha = 3.0;
  params.beta = 0.5;
  const std::size_t n0 = 8;
  const auto all = instance.requests();
  const std::span<const double> all_powers(powers);
  const FarFieldOptions far_options{/*target_cells=*/16, /*near_radius=*/1};
  for (const RemovePolicy policy :
       {RemovePolicy::rebuild, RemovePolicy::compensated, RemovePolicy::exact}) {
    for (const bool farfield : {false, true}) {
      if (farfield && policy != RemovePolicy::exact) continue;
      const std::string context =
          std::string(to_string(policy)) + (farfield ? "/farfield" : "");
      GainMatrix growing(instance.metric(), all.subspan(0, n0), all_powers.subspan(0, n0),
                         params.alpha, Variant::bidirectional);
      FarFieldContext ctx(euclid, std::vector<Request>(all.begin(), all.begin() + n0),
                          std::vector<double>(powers.begin(), powers.begin() + n0),
                          params.alpha, Variant::bidirectional, far_options);
      const FarFieldContext* far = farfield ? &ctx : nullptr;
      std::vector<IncrementalGainClass> classes;
      const auto place = [&](std::size_t link) {
        for (IncrementalGainClass& cls : classes) {
          if (cls.can_add(link)) {
            cls.add(link);
            return;
          }
        }
        classes.emplace_back(growing, params, policy, /*rebuild_interval=*/16, far);
        classes.back().add(link);
      };
      for (std::size_t i = 0; i < n0; ++i) place(i);
      for (std::size_t k = n0; k < instance.size(); ++k) {
        (void)growing.append_request(all[k], powers[k]);
        ctx.append_link(all[k], powers[k]);
        for (IncrementalGainClass& cls : classes) cls.sync_universe();
        place(k);
        const Instance grown(instance.metric_ptr(),
                             std::vector<Request>(all.begin(), all.begin() + k + 1));
        const GainMatrix fresh(grown, all_powers.subspan(0, k + 1), params.alpha,
                               Variant::bidirectional);
        expect_tables_identical(growing, fresh);
        const FarFieldContext fresh_ctx(
            euclid, std::vector<Request>(all.begin(), all.begin() + k + 1),
            std::vector<double>(powers.begin(), powers.begin() + k + 1), params.alpha,
            Variant::bidirectional, far_options);
        for (const IncrementalGainClass& cls : classes) {
          IncrementalGainClass twin(fresh, params, policy, /*rebuild_interval=*/16,
                                    farfield ? &fresh_ctx : nullptr);
          for (const std::size_t m : cls.members()) twin.add(m);
          for (std::size_t i = 0; i <= k; ++i) {
            ASSERT_EQ(cls.accumulator_v(i), twin.accumulator_v(i))
                << context << " slot " << i << " after growth to " << k + 1;
            ASSERT_EQ(cls.accumulator_u(i), twin.accumulator_u(i))
                << context << " slot " << i << " after growth to " << k + 1;
          }
        }
      }
    }
  }
}

TEST(GainStorageUnits, DenseExposesRawDataAndResidency) {
  const GainFiller fill = [](std::size_t j, std::size_t i) {
    return i == j ? 0.0 : static_cast<double>(10 * j + i);
  };
  const DenseGainStorage dense = testutil::dense_table(4, fill);
  EXPECT_NE(dense.data(), nullptr);
  EXPECT_EQ(dense.stride(), 4u);  // a fixed universe: stride == n
  EXPECT_EQ(dense.at(2, 3), 23.0);
  EXPECT_EQ(dense.at(1, 1), 0.0);
  EXPECT_EQ(dense.resident_doubles(), 16u);

  DenseGainStorage grown = testutil::dense_table(2, fill);
  EXPECT_EQ(grown.at(0, 1), 1.0);
  grown.append(fill);
  grown.append(fill);
  EXPECT_EQ(grown.size(), 4u);
  EXPECT_GE(grown.stride(), 4u);
  EXPECT_EQ(grown.resident_doubles(), grown.stride() * grown.stride());
  EXPECT_EQ(grown.at(0, 3), 3.0);   // new column of an old row
  EXPECT_EQ(grown.at(3, 1), 31.0);  // old column of a new row
  EXPECT_EQ(grown.at(3, 3), 0.0);
  EXPECT_EQ(grown.row(3).size(), 4u);

  ComputedGainStorage computed(4, fill);
  EXPECT_EQ(computed.resident_doubles(), 4u);  // the row cache, from the start
  EXPECT_EQ(computed.at(2, 3), 23.0);
  EXPECT_EQ(computed.rows_materialized(), 0u);
  EXPECT_EQ(computed.row(2)[3], 23.0);
  EXPECT_EQ(computed.row(2)[1], 21.0);  // served from the cache
  EXPECT_EQ(computed.rows_materialized(), 1u);
  EXPECT_EQ(computed.resident_doubles(), 4u);
}

TEST(DenseGrowth, FirstAppendGrowsTheStrideByHalf) {
  // The residency a grown table keeps: the first fresh link of an n0-link
  // table reallocates to stride n0 + n0/2, so resident_doubles() reads
  // 2.25 n0^2 until the universe reaches that stride (the copy briefly
  // holds the old n0^2 buffer too, ~3.25 n0^2 at the peak).
  const GainFiller fill = [](std::size_t j, std::size_t i) {
    return i == j ? 0.0 : static_cast<double>(j + 2 * i + 1);
  };
  const std::size_t n0 = 64;
  DenseGainStorage dense = testutil::dense_table(n0, fill);
  EXPECT_EQ(dense.resident_doubles(), n0 * n0);
  dense.append(fill);
  const std::size_t stride = n0 + n0 / 2;
  EXPECT_EQ(dense.stride(), stride);
  EXPECT_EQ(dense.resident_doubles(), stride * stride);
  const double* buffer = dense.data();
  while (dense.size() < stride) dense.append(fill);
  EXPECT_EQ(dense.data(), buffer);  // no reallocation until the stride fills
  EXPECT_EQ(dense.resident_doubles(), stride * stride);
  dense.append(fill);
  EXPECT_EQ(dense.stride(), stride + stride / 2);
}

TEST(GainStorageUnits, RefreshLinkRewritesTheRowAndColumn) {
  // The filler reads shared mutable state — exactly how GainMatrix wires
  // it (fillers capture the request/power stores). After the state changes,
  // refresh_link(1, fill) must rewrite link 1's row and column in place
  // while every other entry keeps its original value — on a fixed table
  // and on one grown past its initial stride.
  const auto scale = std::make_shared<double>(1.0);
  const GainFiller fill = [scale](std::size_t j, std::size_t i) {
    return i == j ? 0.0 : *scale * static_cast<double>(10 * j + i);
  };
  DenseGainStorage dense = testutil::dense_table(4, fill);
  DenseGainStorage grown(0, {});
  for (int k = 0; k < 4; ++k) grown.append(fill);
  *scale = 3.0;
  for (DenseGainStorage* storage : {&dense, &grown}) {
    storage->refresh_link(1, fill);
    // Row 1 and column 1 read the new state...
    EXPECT_EQ(storage->at(1, 2), 36.0);
    EXPECT_EQ(storage->at(2, 1), 63.0);
    EXPECT_EQ(storage->at(1, 1), 0.0);
    // ...every other entry keeps the pre-refresh value.
    EXPECT_EQ(storage->at(0, 2), 2.0);
    EXPECT_EQ(storage->at(3, 2), 32.0);
  }
}

}  // namespace
}  // namespace oisched
