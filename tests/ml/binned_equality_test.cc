// The binned-training equality suite (docs/binned-training.md): serialized
// model bytes must be identical across thread counts and with or without a
// shared BinningCache, for every learner in the tree zoo. A golden
// fingerprint file pins the absolute model bytes so silent re-pins of the
// shared grower are caught; intentional re-pins are documented in the golden
// file header and applied with NEXTMAINT_REGEN_GOLDEN=1.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ml/binned_dataset.h"
#include "ml/registry.h"

namespace nextmaint {
namespace ml {
namespace {

/// One grid point of the differential sweep. `id` keys the golden file.
struct SweepConfig {
  std::string id;
  std::string algorithm;
  ParamMap params;
};

const std::vector<SweepConfig>& Grid() {
  static const std::vector<SweepConfig> kGrid = {
      {"RF_e20_d6_b32",
       "RF",
       {{"num_estimators", 20}, {"max_depth", 6}, {"max_bins", 32}}},
      {"RF_e10_d3_b256",
       "RF",
       {{"num_estimators", 10}, {"max_depth", 3}, {"max_bins", 256}}},
      {"XGB_i25_d4_b64",
       "XGB",
       {{"num_iterations", 25}, {"max_depth", 4}, {"max_bins", 64}}},
      {"XGB_i15_d2_b256",
       "XGB",
       {{"num_iterations", 15}, {"max_depth", 2}, {"max_bins", 256}}},
      {"Tree_d6_b128", "Tree", {{"max_depth", 6}, {"max_bins", 128}}},
  };
  return kGrid;
}

/// Deterministic fleet-shaped training data: a continuous utilization
/// column, a heavily duplicated quantized column, a small-cardinality
/// categorical-ish column and a noisy mixed column.
Dataset MakeFleetData(uint64_t seed, int rows) {
  Rng rng(seed);
  Dataset d;
  for (int i = 0; i < rows; ++i) {
    const double x0 = rng.Uniform(0, 12);
    const double x1 = 0.5 * static_cast<double>(rng.UniformInt(uint64_t{24}));
    const double x2 = static_cast<double>(rng.UniformInt(uint64_t{7}));
    const double x3 = rng.Uniform(-4, 4);
    const std::vector<double> row = {x0, x1, x2, x3};
    d.AddRow(std::span<const double>(row.data(), 4),
             30.0 - 1.5 * x0 - x1 + 0.5 * x2 * x2 + rng.Normal(0, 0.4));
  }
  return d;
}

/// Trains one model with the given thread count and cache and returns its
/// serialized bytes (precision-17 text; byte equality pins the model).
std::string TrainedModelBytes(const SweepConfig& config, int threads,
                              const Dataset& train,
                              std::shared_ptr<BinningCache> cache = nullptr) {
  ParamMap params = config.params;
  params["num_threads"] = static_cast<double>(threads);
  auto model = MakeRegressor(config.algorithm, params, std::move(cache))
                   .MoveValueOrDie();
  EXPECT_TRUE(model->Fit(train).ok()) << config.id;
  std::ostringstream out;
  EXPECT_TRUE(model->Save(out).ok()) << config.id;
  return std::move(out).str();
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string GoldenPath() {
  return std::string(NEXTMAINT_ML_GOLDEN_DIR) + "/binned_equality.golden";
}

/// Parses "<config-id> <16-hex-digit-fingerprint>" lines; '#' comments and
/// blank lines are skipped.
std::map<std::string, std::string> ReadGolden() {
  std::map<std::string, std::string> golden;
  std::ifstream in(GoldenPath());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string id, fingerprint;
    fields >> id >> fingerprint;
    if (!id.empty() && !fingerprint.empty()) golden[id] = fingerprint;
  }
  return golden;
}

std::string HexFingerprint(uint64_t hash) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

// ---------------------------------------------------------------------------
// Model bytes must be identical across thread counts: the forest grows its
// trees from pre-drawn samples and seeds, and binning is per-feature, so no
// thread count may move a single byte.

TEST(BinnedEqualityTest, ThreadCountsProduceIdenticalModelBytes) {
  const Dataset train = MakeFleetData(1234, 240);
  for (const SweepConfig& config : Grid()) {
    const std::string reference = TrainedModelBytes(config, 1, train);
    ASSERT_FALSE(reference.empty()) << config.id;
    EXPECT_EQ(reference, TrainedModelBytes(config, 4, train))
        << config.id << ": model diverges across thread counts";
  }
}

TEST(BinnedEqualityTest, SharedBinningCacheDoesNotChangeModelBytes) {
  const Dataset train = MakeFleetData(777, 180);
  auto cache = std::make_shared<BinningCache>();
  for (const SweepConfig& config : Grid()) {
    const std::string uncached = TrainedModelBytes(config, 1, train);
    EXPECT_EQ(uncached, TrainedModelBytes(config, 1, train, cache))
        << config.id << ": cached binning changed the model";
  }
  // Five grid points over one matrix at three distinct max_bins settings:
  // the cache must have been consulted and reused.
  const BinningCache::Stats stats = cache->stats();
  EXPECT_EQ(stats.lookups, Grid().size());
  EXPECT_GT(stats.hits, 0u);
}

// Absolute pin: the grower's arithmetic is frozen by fingerprint. A diff
// here that is NOT an intentional re-pin is a regression; an intentional
// re-pin must update the golden header's changelog and regenerate with
// NEXTMAINT_REGEN_GOLDEN=1 (instructions in the golden file).
TEST(BinnedEqualityTest, ModelBytesMatchGoldenFingerprints) {
  const Dataset train = MakeFleetData(1234, 240);
  std::map<std::string, std::string> current;
  for (const SweepConfig& config : Grid()) {
    current[config.id] = HexFingerprint(
        Fnv1a(TrainedModelBytes(config, 1, train)));
  }

  if (std::getenv("NEXTMAINT_REGEN_GOLDEN") != nullptr) {
    std::ifstream existing(GoldenPath());
    std::vector<std::string> header;
    std::string line;
    while (std::getline(existing, line)) {
      if (!line.empty() && line[0] == '#') header.push_back(line);
    }
    existing.close();
    std::ofstream out(GoldenPath(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot rewrite " << GoldenPath();
    for (const std::string& kept : header) out << kept << "\n";
    for (const auto& [id, fingerprint] : current) {
      out << id << " " << fingerprint << "\n";
    }
    GTEST_SKIP() << "golden fingerprints regenerated at " << GoldenPath();
  }

  const std::map<std::string, std::string> golden = ReadGolden();
  ASSERT_FALSE(golden.empty())
      << "missing or empty golden file " << GoldenPath();
  for (const auto& [id, fingerprint] : current) {
    const auto it = golden.find(id);
    ASSERT_NE(it, golden.end()) << "no golden entry for " << id;
    EXPECT_EQ(it->second, fingerprint)
        << id << ": model bytes drifted from the golden pin; if this is an "
        << "intentional re-pin, document it in the golden header and rerun "
        << "with NEXTMAINT_REGEN_GOLDEN=1";
  }
  EXPECT_EQ(golden.size(), current.size())
      << "golden file has stale entries; regenerate it";
}

}  // namespace
}  // namespace ml
}  // namespace nextmaint
