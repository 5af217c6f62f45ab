// Segmented checkpoint store tests: round-trips, byte determinism,
// single-segment rewrite isolation, delta-index commits and their
// compaction, corruption handling (every flavour of bad bytes must surface
// kDataLoss, never a crash), and the torn-rewrite invariant — a failed
// SaveVehicle/Commit must leave the committed superblock and every other
// vehicle's segment untouched and readable.

#include "storage/checkpoint_store.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/failpoints.h"
#include "common/rng.h"
#include "storage/checkpoint_format.h"

namespace nextmaint {
namespace storage {
namespace {

class CheckpointStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Parameterized test names contain '/': flatten them so the path stays
    // a single file under TempDir.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    for (char& c : name) {
      if (c == '/') c = '_';
    }
    path_ = ::testing::TempDir() + "checkpoint_store_test_" + name + ".ckpt";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    failpoints::DisarmAll();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  std::string path_;
};

std::vector<VehicleRecord> ThreeRecords() {
  return {
      {"truck-a", "BL", "payload of truck-a\nwith two lines\n"},
      {"truck-b", "LR", std::string(1000, 'b')},
      {"truck-c", "RF", "c"},
  };
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::span<const uint8_t> AsBytes(const std::string& s) {
  return std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

/// The valid superblock slot with the highest generation in `path`.
SuperblockSlot CommittedSlot(const std::string& path) {
  const std::string bytes = ReadFileBytes(path);
  SuperblockSlot best;
  for (size_t i = 0; i < 2 && bytes.size() >= kDataRegionOffset; ++i) {
    const auto slot = DecodeSuperblockSlot(
        AsBytes(bytes).subspan(i * kSuperblockSlotBytes, kSuperblockSlotBytes));
    if (slot.ok() && slot.ValueOrDie().generation > best.generation) {
      best = slot.ValueOrDie();
    }
  }
  return best;
}

using RecordMap = std::map<std::string, VehicleRecord>;

/// Writes exactly `records` to `path` with SaveAll through a fresh store.
bool SaveAllFresh(const std::string& path, const RecordMap& records) {
  std::vector<VehicleRecord> values;
  for (const auto& [id, record] : records) values.push_back(record);
  return CheckpointStore::Open(path).ValueOrDie()->SaveAll(values).ok();
}

/// `manifest` holds exactly `expected`: ids, model names and payload
/// bytes, in id order.
void ExpectManifestHolds(const CheckpointManifest& manifest,
                         const RecordMap& expected) {
  ASSERT_EQ(manifest.vehicles.size(), expected.size());
  auto want = expected.begin();
  for (const ManifestEntry& entry : manifest.vehicles) {
    EXPECT_EQ(entry.vehicle_id, want->second.vehicle_id);
    EXPECT_EQ(entry.model_name, want->second.model_name);
    const Result<std::string_view> payload = entry.segment.Payload();
    ASSERT_TRUE(payload.ok()) << entry.vehicle_id;
    EXPECT_EQ(payload.ValueOrDie(), want->second.payload) << entry.vehicle_id;
    ++want;
  }
}

/// Loads `path` through a fresh store, as a reader process would.
CheckpointManifest LoadFresh(const std::string& path) {
  return CheckpointStore::Open(path).ValueOrDie()->Load().ValueOrDie();
}

/// Stages and commits `record` through a cold store, the way
/// FleetScheduler::SaveVehicleCheckpoint does. Returns the generation.
uint64_t CommitOne(const std::string& path, const VehicleRecord& record) {
  auto store = CheckpointStore::Open(path).ValueOrDie();
  EXPECT_TRUE(store->SaveVehicle(record).ok()) << record.vehicle_id;
  return store->Commit().ValueOrDie();
}

TEST_F(CheckpointStoreTest, SaveAllLoadRoundTrip) {
  auto store = CheckpointStore::Open(path_).ValueOrDie();
  EXPECT_EQ(store->SaveAll(ThreeRecords()).ValueOrDie(), 1u);

  const CheckpointManifest manifest = store->Load().ValueOrDie();
  EXPECT_EQ(manifest.generation, 1u);
  ASSERT_EQ(manifest.vehicles.size(), 3u);
  const std::vector<VehicleRecord> expected = ThreeRecords();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(manifest.vehicles[i].vehicle_id, expected[i].vehicle_id);
    EXPECT_EQ(manifest.vehicles[i].model_name, expected[i].model_name);
    EXPECT_EQ(manifest.vehicles[i].segment.Payload().ValueOrDie(),
              expected[i].payload);
  }
}

TEST_F(CheckpointStoreTest, SaveAllSortsAndRejectsDuplicates) {
  auto store = CheckpointStore::Open(path_).ValueOrDie();
  std::vector<VehicleRecord> shuffled = {{"z", "BL", "zz"},
                                         {"a", "BL", "aa"},
                                         {"m", "BL", "mm"}};
  ASSERT_TRUE(store->SaveAll(shuffled).ok());
  const CheckpointManifest manifest = store->Load().ValueOrDie();
  ASSERT_EQ(manifest.vehicles.size(), 3u);
  EXPECT_EQ(manifest.vehicles[0].vehicle_id, "a");
  EXPECT_EQ(manifest.vehicles[2].vehicle_id, "z");

  std::vector<VehicleRecord> duplicated = {{"a", "BL", "1"}, {"a", "LR", "2"}};
  EXPECT_FALSE(store->SaveAll(duplicated).ok());
}

TEST_F(CheckpointStoreTest, SaveAllIsByteDeterministic) {
  {
    auto store = CheckpointStore::Open(path_).ValueOrDie();
    ASSERT_TRUE(store->SaveAll(ThreeRecords()).ok());
  }
  const std::string first = ReadFileBytes(path_);
  {
    auto store = CheckpointStore::Open(path_).ValueOrDie();
    ASSERT_TRUE(store->SaveAll(ThreeRecords()).ok());
  }
  EXPECT_EQ(ReadFileBytes(path_), first);
}

TEST_F(CheckpointStoreTest, SaveVehicleRewritesOnlyItsSegmentAndIndex) {
  auto store = CheckpointStore::Open(path_).ValueOrDie();
  ASSERT_TRUE(store->SaveAll(ThreeRecords()).ok());
  const std::string before = ReadFileBytes(path_);

  ASSERT_TRUE(
      store->SaveVehicle({"truck-b", "LR", "fresh payload for b"}).ok());
  EXPECT_EQ(store->Commit().ValueOrDie(), 2u);
  const std::string after = ReadFileBytes(path_);

  // Single-segment update is append + alternate-slot flip: the data region
  // up to the old file_used — every committed segment and the old index —
  // is bit-for-bit unchanged, and so is the old generation's slot A.
  ASSERT_GT(after.size(), before.size());
  EXPECT_EQ(after.substr(kDataRegionOffset,
                         before.size() - kDataRegionOffset),
            before.substr(kDataRegionOffset));
  EXPECT_EQ(after.substr(0, kSuperblockSlotBytes),
            before.substr(0, kSuperblockSlotBytes));
  // Only slot B (generation 2 lives at slot index (2-1)%2 = 1) changed.
  EXPECT_NE(after.substr(kSuperblockSlotBytes, kSuperblockSlotBytes),
            before.substr(kSuperblockSlotBytes, kSuperblockSlotBytes));

  const CheckpointManifest manifest = store->Load().ValueOrDie();
  EXPECT_EQ(manifest.generation, 2u);
  ASSERT_EQ(manifest.vehicles.size(), 3u);
  EXPECT_EQ(manifest.vehicles[1].segment.Payload().ValueOrDie(),
            "fresh payload for b");
  EXPECT_EQ(manifest.vehicles[0].segment.Payload().ValueOrDie(),
            ThreeRecords()[0].payload);
}

TEST_F(CheckpointStoreTest, SaveVehicleIsInvisibleUntilCommit) {
  auto store = CheckpointStore::Open(path_).ValueOrDie();
  ASSERT_TRUE(store->SaveAll(ThreeRecords()).ok());
  ASSERT_TRUE(store->SaveVehicle({"truck-a", "BL", "uncommitted"}).ok());

  auto reader = CheckpointStore::Open(path_).ValueOrDie();
  const CheckpointManifest manifest = reader->Load().ValueOrDie();
  EXPECT_EQ(manifest.generation, 1u);
  EXPECT_EQ(manifest.vehicles[0].segment.Payload().ValueOrDie(),
            ThreeRecords()[0].payload);
}

TEST_F(CheckpointStoreTest, SaveVehicleOnMissingOrLegacyFileFails) {
  auto store = CheckpointStore::Open(path_).ValueOrDie();
  EXPECT_EQ(store->SaveVehicle({"v", "BL", "p"}).code(),
            StatusCode::kFailedPrecondition);

  WriteFileBytes(path_, "vehicle v1 BL\nsome model text\nfleet-end\n");
  auto legacy = CheckpointStore::Open(path_).ValueOrDie();
  EXPECT_EQ(legacy->SaveVehicle({"v", "BL", "p"}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(legacy->Load().status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CheckpointStoreTest, CommitWithNothingStagedIsANoOp) {
  auto store = CheckpointStore::Open(path_).ValueOrDie();
  ASSERT_TRUE(store->SaveAll(ThreeRecords()).ok());
  const std::string before = ReadFileBytes(path_);
  EXPECT_EQ(store->Commit().ValueOrDie(), 1u);
  EXPECT_EQ(ReadFileBytes(path_), before);
}

// --------------------------------------------------------------------------
// Delta indexes: a commit writes the entries changed since the last full
// index; past ceil(sqrt(full index count)) of them it compacts.
// --------------------------------------------------------------------------

TEST_F(CheckpointStoreTest, ManyColdStoreCommitsLoadLikeSaveAll) {
  RecordMap expected;
  for (int v = 0; v < 40; ++v) {
    const std::string id = "truck-" + std::to_string(v);
    expected[id] = {id, "BL", "base payload of " + id};
  }
  ASSERT_TRUE(SaveAllFresh(path_, expected));

  Rng rng(20261017);
  int delta_commits = 0;
  int compactions = 0;
  for (uint64_t commit = 0; commit < 60; ++commit) {
    auto store = CheckpointStore::Open(path_).ValueOrDie();
    const uint64_t staged = 1 + rng.UniformInt(uint64_t{3});
    for (uint64_t s = 0; s < staged; ++s) {
      // Ids 40..47 are absent from the base: inserts, not rewrites.
      const std::string id = "truck-" + std::to_string(rng.UniformInt(48));
      const VehicleRecord record{
          id, rng.UniformInt(uint64_t{2}) == 0 ? "LR" : "RF",
          "commit " + std::to_string(commit) + " of " + id +
              std::string(rng.UniformInt(uint64_t{64}), 'x')};
      ASSERT_TRUE(store->SaveVehicle(record).ok());
      expected[id] = record;
    }
    ASSERT_EQ(store->Commit().ValueOrDie(), commit + 2);
    if (CommittedSlot(path_).version == kCheckpointDeltaVersion) {
      ++delta_commits;
    } else {
      ++compactions;
    }
    ExpectManifestHolds(LoadFresh(path_), expected);
  }
  EXPECT_GT(delta_commits, 0);
  EXPECT_GT(compactions, 0);

  // The same records written whole load identically.
  const std::string reference = path_ + ".reference";
  ASSERT_TRUE(SaveAllFresh(reference, expected));
  ExpectManifestHolds(LoadFresh(reference), expected);
  std::remove(reference.c_str());
}

TEST_F(CheckpointStoreTest, RestagedAndNewVehiclesCommitAsOneDelta) {
  RecordMap expected;
  for (const VehicleRecord& record : ThreeRecords()) {
    expected[record.vehicle_id] = record;
  }
  ASSERT_TRUE(SaveAllFresh(path_, expected));
  const std::string before = ReadFileBytes(path_);

  auto cold = CheckpointStore::Open(path_).ValueOrDie();
  const VehicleRecord first{"truck-b", "LR", "first rewrite"};
  const VehicleRecord added{"truck-d", "BL", "absent from the base"};
  const VehicleRecord second{"truck-b", "RF", "second rewrite wins"};
  ASSERT_TRUE(cold->SaveVehicle(first).ok());
  ASSERT_TRUE(cold->SaveVehicle(added).ok());
  ASSERT_TRUE(cold->SaveVehicle(second).ok());
  EXPECT_EQ(cold->Commit().ValueOrDie(), 2u);
  expected["truck-b"] = second;
  expected["truck-d"] = added;

  // One delta entry per changed vehicle: the restaged one counts once.
  const SuperblockSlot slot = CommittedSlot(path_);
  EXPECT_EQ(slot.version, kCheckpointDeltaVersion);
  EXPECT_EQ(slot.vehicle_count, 2u);
  EXPECT_EQ(slot.index_size,
            kDeltaIndexHeaderBytes + 2 * (kMinIndexEntryBytes + 7 + 2));
  // The commit appended its three segments and the delta block, nothing
  // more: no full index was rewritten.
  EXPECT_EQ(ReadFileBytes(path_).size(),
            before.size() + first.payload.size() + added.payload.size() +
                second.payload.size() + slot.index_size);
  ExpectManifestHolds(LoadFresh(path_), expected);
}

TEST_F(CheckpointStoreTest, CommitPastSqrtBoundaryCompacts) {
  RecordMap expected;
  for (int v = 10; v < 26; ++v) {
    const std::string id = std::string("v").append(std::to_string(v));
    expected[id] = {id, "BL", "base " + id};
  }
  ASSERT_TRUE(SaveAllFresh(path_, expected));
  const SuperblockSlot base = CommittedSlot(path_);

  // 16 vehicles: a delta may hold ceil(sqrt(16)) = 4 entries.
  for (int v = 10; v < 14; ++v) {
    const std::string id = std::string("v").append(std::to_string(v));
    expected[id] = {id, "LR", "delta rewrite of " + id};
    CommitOne(path_, expected[id]);
    const SuperblockSlot slot = CommittedSlot(path_);
    EXPECT_EQ(slot.version, kCheckpointDeltaVersion);
    EXPECT_EQ(slot.vehicle_count, static_cast<uint32_t>(v - 9));
    ExpectManifestHolds(LoadFresh(path_), expected);
  }

  // The fifth distinct vehicle crosses the boundary: a full index again.
  expected["v14"] = {"v14", "LR", "compacting rewrite"};
  EXPECT_EQ(CommitOne(path_, expected["v14"]), 6u);
  const SuperblockSlot compacted = CommittedSlot(path_);
  EXPECT_EQ(compacted.version, kCheckpointVersion);
  EXPECT_EQ(compacted.vehicle_count, 16u);
  EXPECT_EQ(compacted.index_size, base.index_size);  // same names, sizes
  ExpectManifestHolds(LoadFresh(path_), expected);

  // The next commit is a one-entry delta over the compacted index.
  expected["v25"] = {"v25", "RF", "after compaction"};
  EXPECT_EQ(CommitOne(path_, expected["v25"]), 7u);
  const SuperblockSlot next = CommittedSlot(path_);
  EXPECT_EQ(next.version, kCheckpointDeltaVersion);
  EXPECT_EQ(next.vehicle_count, 1u);
  const std::string bytes = ReadFileBytes(path_);
  const IndexRef named =
      DecodeDeltaIndexHeader(
          AsBytes(bytes).subspan(next.index_offset, next.index_size),
          next.index_offset)
          .ValueOrDie();
  EXPECT_EQ(named.offset, compacted.index_offset);
  EXPECT_EQ(named.size, compacted.index_size);
  EXPECT_EQ(named.crc32, compacted.index_crc32);
  EXPECT_EQ(named.count, 16u);
  ExpectManifestHolds(LoadFresh(path_), expected);
}

TEST_F(CheckpointStoreTest, OlderBuildsMergedIndexCommitStillLoads) {
  RecordMap expected;
  std::vector<SegmentIndexEntry> merged;
  uint64_t offset = kDataRegionOffset;
  for (const VehicleRecord& record : ThreeRecords()) {
    expected[record.vehicle_id] = record;
    merged.push_back({record.vehicle_id, record.model_name, offset,
                      record.payload.size(), Crc32(record.payload)});
    offset += record.payload.size();
  }
  ASSERT_TRUE(SaveAllFresh(path_, expected));

  // Generation 2 as builds before delta indexes committed it: the new
  // segment, then a merged full index, then slot B as a version-1 slot.
  std::string bytes = ReadFileBytes(path_);
  const VehicleRecord rewrite{"truck-c", "RF", "rewritten by an older build"};
  merged[2].segment_offset = bytes.size();
  merged[2].payload_size = rewrite.payload.size();
  merged[2].payload_crc32 = Crc32(rewrite.payload);
  bytes += rewrite.payload;
  const std::string index = EncodeSegmentIndex(merged);
  SuperblockSlot slot;
  slot.vehicle_count = 3;
  slot.generation = 2;
  slot.index_offset = bytes.size();
  slot.index_size = index.size();
  slot.index_crc32 = Crc32(index);
  slot.file_used = bytes.size() + index.size();
  bytes += index;
  bytes.replace(kSuperblockSlotBytes, kSuperblockSlotBytes,
                EncodeSuperblockSlot(slot));
  WriteFileBytes(path_, bytes);
  expected["truck-c"] = rewrite;

  EXPECT_EQ(LoadFresh(path_).generation, 2u);
  ExpectManifestHolds(LoadFresh(path_), expected);

  // A delta commit builds on that version-1 generation.
  expected["truck-a"] = {"truck-a", "BL", "delta over the older index"};
  EXPECT_EQ(CommitOne(path_, expected["truck-a"]), 3u);
  EXPECT_EQ(CommittedSlot(path_).version, kCheckpointDeltaVersion);
  ExpectManifestHolds(LoadFresh(path_), expected);
}

// --------------------------------------------------------------------------
// Corruption: every flavour must be kDataLoss, never a crash or garbage.
// --------------------------------------------------------------------------

TEST_F(CheckpointStoreTest, GarbageSuperblockIsDataLoss) {
  WriteFileBytes(path_, std::string(4096, '\x5a'));
  auto store = CheckpointStore::Open(path_).ValueOrDie();
  EXPECT_EQ(store->Load().status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(store->SaveVehicle({"v", "BL", "p"}).code(),
            StatusCode::kDataLoss);
}

TEST_F(CheckpointStoreTest, TruncatedSegmentIsDataLossAtPayloadTime) {
  {
    auto store = CheckpointStore::Open(path_).ValueOrDie();
    ASSERT_TRUE(store->SaveAll(ThreeRecords()).ok());
  }
  // Chop inside the first segment: the index (at the tail) is gone too, so
  // the load itself reports data loss.
  const std::string bytes = ReadFileBytes(path_);
  WriteFileBytes(path_, bytes.substr(0, kDataRegionOffset + 8));
  auto store = CheckpointStore::Open(path_).ValueOrDie();
  EXPECT_EQ(store->Load().status().code(), StatusCode::kDataLoss);
}

TEST_F(CheckpointStoreTest, BitFlippedSegmentLoadsButPayloadIsDataLoss) {
  {
    auto store = CheckpointStore::Open(path_).ValueOrDie();
    ASSERT_TRUE(store->SaveAll(ThreeRecords()).ok());
  }
  // Flip one payload byte of truck-a (first segment, right after the
  // superblocks). The index and superblock stay valid, so Load succeeds —
  // lazily — and only materializing the damaged segment fails.
  std::string bytes = ReadFileBytes(path_);
  bytes[kDataRegionOffset + 3] ^= 0x40;
  WriteFileBytes(path_, bytes);

  auto store = CheckpointStore::Open(path_).ValueOrDie();
  const CheckpointManifest manifest = store->Load().ValueOrDie();
  ASSERT_EQ(manifest.vehicles.size(), 3u);
  EXPECT_EQ(manifest.vehicles[0].segment.Payload().status().code(),
            StatusCode::kDataLoss);
  // The sibling segments are untouched and still materialize.
  EXPECT_EQ(manifest.vehicles[1].segment.Payload().ValueOrDie(),
            ThreeRecords()[1].payload);
}

TEST_F(CheckpointStoreTest, SniffRoutesEveryFormat) {
  EXPECT_EQ(SniffCheckpointFormat(path_).ValueOrDie(),
            CheckpointFormat::kMissing);

  WriteFileBytes(path_, "vehicle v1 BL\n...\nfleet-end\n");
  EXPECT_EQ(SniffCheckpointFormat(path_).ValueOrDie(),
            CheckpointFormat::kLegacyText);

  WriteFileBytes(path_, "total nonsense");
  EXPECT_EQ(SniffCheckpointFormat(path_).ValueOrDie(),
            CheckpointFormat::kUnrecognized);

  auto store = CheckpointStore::Open(path_).ValueOrDie();
  ASSERT_TRUE(store->SaveAll(ThreeRecords()).ok());
  EXPECT_EQ(SniffCheckpointFormat(path_).ValueOrDie(),
            CheckpointFormat::kSegmented);
}

// --------------------------------------------------------------------------
// Torn-rewrite invariant (ISSUE 10): a SaveVehicle/Commit that dies at any
// storage failpoint must leave the previous generation fully readable —
// superblock, index and every other vehicle's bytes intact.
// --------------------------------------------------------------------------

class TornRewriteTest : public CheckpointStoreTest,
                        public ::testing::WithParamInterface<const char*> {};

TEST_P(TornRewriteTest, FailedSingleVehicleRewriteLeavesOldGenerationIntact) {
  if (!failpoints::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  {
    auto seeder = CheckpointStore::Open(path_).ValueOrDie();
    ASSERT_TRUE(seeder->SaveAll(ThreeRecords()).ok());
  }
  const std::string before = ReadFileBytes(path_);

  // A cold store, so the rewrite exercises every seam: open fires in the
  // committed-state refresh, segment_write in the append, commit in the
  // pre-fsync window.
  auto store = CheckpointStore::Open(path_).ValueOrDie();
  ASSERT_TRUE(failpoints::Arm(GetParam()).ok());
  Status failed = store->SaveVehicle({"truck-b", "LR", "torn rewrite"});
  if (failed.ok()) failed = store->Commit().status();
  failpoints::DisarmAll();
  EXPECT_FALSE(failed.ok()) << GetParam();

  // Both superblock slots are bit-identical to the committed generation,
  // and a fresh reader still sees generation 1 with the original payloads
  // (orphaned appended bytes past file_used are harmless by design).
  const std::string after = ReadFileBytes(path_);
  ASSERT_GE(after.size(), before.size());
  EXPECT_EQ(after.substr(0, kDataRegionOffset),
            before.substr(0, kDataRegionOffset));

  auto reader = CheckpointStore::Open(path_).ValueOrDie();
  const CheckpointManifest manifest = reader->Load().ValueOrDie();
  EXPECT_EQ(manifest.generation, 1u);
  ASSERT_EQ(manifest.vehicles.size(), 3u);
  const std::vector<VehicleRecord> expected = ThreeRecords();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(manifest.vehicles[i].segment.Payload().ValueOrDie(),
              expected[i].payload);
  }
}

TEST_P(TornRewriteTest, FailedCompactionLeavesOldGenerationIntact) {
  if (!failpoints::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  // Four vehicles allow a delta of ceil(sqrt(4)) = 2 entries: two delta
  // commits, then the third distinct vehicle's commit compacts.
  RecordMap expected;
  for (const VehicleRecord& record : ThreeRecords()) {
    expected[record.vehicle_id] = record;
  }
  expected["truck-d"] = {"truck-d", "BL", "d"};
  ASSERT_TRUE(SaveAllFresh(path_, expected));
  expected["truck-a"] = {"truck-a", "BL", "first delta"};
  expected["truck-b"] = {"truck-b", "LR", "second delta"};
  ASSERT_EQ(CommitOne(path_, expected["truck-a"]), 2u);
  ASSERT_EQ(CommitOne(path_, expected["truck-b"]), 3u);
  ASSERT_EQ(CommittedSlot(path_).version, kCheckpointDeltaVersion);
  const std::string before = ReadFileBytes(path_);

  const VehicleRecord compacting{"truck-c", "RF", "torn compaction"};
  auto store = CheckpointStore::Open(path_).ValueOrDie();
  ASSERT_TRUE(failpoints::Arm(GetParam()).ok());
  Status failed = store->SaveVehicle(compacting);
  if (failed.ok()) failed = store->Commit().status();
  failpoints::DisarmAll();
  EXPECT_FALSE(failed.ok()) << GetParam();

  const std::string after = ReadFileBytes(path_);
  ASSERT_GE(after.size(), before.size());
  EXPECT_EQ(after.substr(0, kDataRegionOffset),
            before.substr(0, kDataRegionOffset));
  const CheckpointManifest manifest = LoadFresh(path_);
  EXPECT_EQ(manifest.generation, 3u);
  ExpectManifestHolds(manifest, expected);

  // With the fault gone the same commit goes through, as a compaction.
  expected["truck-c"] = compacting;
  EXPECT_EQ(CommitOne(path_, compacting), 4u);
  EXPECT_EQ(CommittedSlot(path_).version, kCheckpointVersion);
  ExpectManifestHolds(LoadFresh(path_), expected);
}

INSTANTIATE_TEST_SUITE_P(StorageSites, TornRewriteTest,
                         ::testing::Values("storage.checkpoint.segment_write",
                                           "storage.checkpoint.commit",
                                           "storage.checkpoint.open"));

// --------------------------------------------------------------------------
// Decoder fuzzing: random mutations of valid encodings must either decode
// or fail with a clean Status — DecodeSuperblockSlot/DecodeSegmentIndex are
// pure span->struct functions, so this hammers them without a filesystem.
// --------------------------------------------------------------------------

TEST(CheckpointFuzzTest, MutatedSuperblocksNeverCrash) {
  SuperblockSlot slot;
  slot.vehicle_count = 3;
  slot.generation = 7;
  slot.index_offset = 500;
  slot.index_size = 120;
  slot.index_crc32 = 0xdeadbeef;
  slot.file_used = 620;
  const std::string valid = EncodeSuperblockSlot(slot);
  ASSERT_TRUE(DecodeSuperblockSlot(AsBytes(valid)).ok());

  Rng rng(20260809);
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = valid;
    const int flips = 1 + static_cast<int>(rng.UniformInt(uint64_t{4}));
    for (int f = 0; f < flips; ++f) {
      const size_t pos =
          static_cast<size_t>(rng.UniformInt(uint64_t{mutated.size()}));
      mutated[pos] = static_cast<char>(rng.UniformInt(uint64_t{256}));
    }
    const auto decoded = DecodeSuperblockSlot(AsBytes(mutated));
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
    }
  }
  // Wrong sizes are rejected outright.
  EXPECT_EQ(DecodeSuperblockSlot(AsBytes(valid.substr(1))).status().code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(DecodeSuperblockSlot(AsBytes(std::string())).status().code(),
            StatusCode::kDataLoss);
}

TEST(CheckpointFuzzTest, MutatedIndexesNeverCrashAndNeverOverAllocate) {
  std::vector<SegmentIndexEntry> entries;
  for (int i = 0; i < 4; ++i) {
    SegmentIndexEntry entry;
    entry.vehicle_id = "vehicle-" + std::to_string(i);
    entry.model_name = "BL";
    entry.segment_offset = kDataRegionOffset + static_cast<uint64_t>(i) * 100;
    entry.payload_size = 100;
    entry.payload_crc32 = 0x12345678u + static_cast<uint32_t>(i);
    entries.push_back(std::move(entry));
  }
  const uint64_t file_limit = kDataRegionOffset + 400;
  const std::string valid = EncodeSegmentIndex(entries);
  ASSERT_TRUE(DecodeSegmentIndex(AsBytes(valid), 4, file_limit).ok());

  Rng rng(20260810);
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = valid;
    const int flips = 1 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    for (int f = 0; f < flips; ++f) {
      const size_t pos =
          static_cast<size_t>(rng.UniformInt(uint64_t{mutated.size()}));
      mutated[pos] = static_cast<char>(rng.UniformInt(uint64_t{256}));
    }
    // Also fuzz the declared count and limit occasionally.
    const uint32_t count =
        i % 5 == 0 ? static_cast<uint32_t>(rng.UniformInt(uint64_t{10})) : 4;
    const auto decoded = DecodeSegmentIndex(AsBytes(mutated), count,
                                            file_limit);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
    }
  }
  // Truncations at every byte boundary stay clean.
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    const auto decoded =
        DecodeSegmentIndex(AsBytes(valid.substr(0, cut)), 4, file_limit);
    EXPECT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
  }
  // A count promising more entries than the bytes hold must not allocate.
  EXPECT_EQ(DecodeSegmentIndex(AsBytes(valid), 1'000'000, file_limit)
                .status()
                .code(),
            StatusCode::kDataLoss);
}

TEST(CheckpointFuzzTest, MutatedDeltaHeadersNeverCrashAndNeverOverAllocate) {
  const IndexRef base{kDataRegionOffset + 400, 96, 0xfeedfaceu, 4};
  const uint64_t base_limit = kDataRegionOffset + 496;
  const std::string valid = EncodeDeltaIndexHeader(base);
  ASSERT_EQ(valid.size(), kDeltaIndexHeaderBytes);
  const IndexRef decoded =
      DecodeDeltaIndexHeader(AsBytes(valid), base_limit).ValueOrDie();
  EXPECT_EQ(decoded.offset, base.offset);
  EXPECT_EQ(decoded.size, base.size);
  EXPECT_EQ(decoded.crc32, base.crc32);
  EXPECT_EQ(decoded.count, base.count);

  Rng rng(20261017);
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = valid;
    const int flips = 1 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    for (int f = 0; f < flips; ++f) {
      const size_t pos =
          static_cast<size_t>(rng.UniformInt(uint64_t{mutated.size()}));
      mutated[pos] = static_cast<char>(rng.UniformInt(uint64_t{256}));
    }
    const auto result = DecodeDeltaIndexHeader(AsBytes(mutated), base_limit);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
      continue;
    }
    // Whatever decodes names a base inside the data region that can hold
    // its count, so decoding that base never over-allocates.
    const IndexRef& named = result.ValueOrDie();
    EXPECT_GE(named.offset, kDataRegionOffset);
    EXPECT_LE(named.offset + named.size, base_limit);
    EXPECT_LE(uint64_t{named.count} * kMinIndexEntryBytes, named.size);
  }
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    EXPECT_EQ(DecodeDeltaIndexHeader(AsBytes(valid.substr(0, cut)), base_limit)
                  .status()
                  .code(),
              StatusCode::kDataLoss);
  }
  // A base past the delta block, or promising more entries than its bytes
  // hold, is rejected.
  EXPECT_EQ(DecodeDeltaIndexHeader(AsBytes(valid), base_limit - 1)
                .status()
                .code(),
            StatusCode::kDataLoss);
  const IndexRef overfull{kDataRegionOffset, 96, 0, 1'000'000};
  EXPECT_EQ(DecodeDeltaIndexHeader(AsBytes(EncodeDeltaIndexHeader(overfull)),
                                   base_limit)
                .status()
                .code(),
            StatusCode::kDataLoss);

  // A version-2 slot must leave room for the delta header.
  SuperblockSlot slot;
  slot.version = kCheckpointDeltaVersion;
  slot.vehicle_count = 1;
  slot.generation = 2;
  slot.index_offset = 500;
  slot.index_size = kDeltaIndexHeaderBytes + kMinIndexEntryBytes;
  slot.file_used = 500 + slot.index_size;
  EXPECT_EQ(DecodeSuperblockSlot(AsBytes(EncodeSuperblockSlot(slot)))
                .ValueOrDie()
                .version,
            kCheckpointDeltaVersion);
  slot.index_size -= 1;
  EXPECT_EQ(DecodeSuperblockSlot(AsBytes(EncodeSuperblockSlot(slot)))
                .status()
                .code(),
            StatusCode::kDataLoss);
}

/// The bytewise reflected CRC-32 loop, the reference Crc32 must match.
uint32_t BytewiseCrc32(std::span<const uint8_t> data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (uint8_t byte : data) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(CheckpointFuzzTest, Crc32MatchesCheckValueAndBytewiseReference) {
  EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string()), 0u);

  Rng rng(20261018);
  std::vector<uint8_t> buffer(4096 + 8);
  for (uint8_t& byte : buffer) {
    byte = static_cast<uint8_t>(rng.UniformInt(uint64_t{256}));
  }
  std::vector<size_t> lengths;
  for (size_t length = 0; length <= 64; ++length) lengths.push_back(length);
  for (int i = 0; i < 200; ++i) {
    lengths.push_back(static_cast<size_t>(rng.UniformInt(uint64_t{4097})));
  }
  lengths.push_back(4096);
  for (size_t length : lengths) {
    for (size_t align = 0; align < 8; ++align) {
      const std::span<const uint8_t> data(buffer.data() + align, length);
      ASSERT_EQ(Crc32(data), BytewiseCrc32(data))
          << "length " << length << " alignment " << align;
    }
  }
}

}  // namespace
}  // namespace storage
}  // namespace nextmaint
