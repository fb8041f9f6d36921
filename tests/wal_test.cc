#include "fdb/storage/wal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fdb/core/build.h"
#include "fdb/core/update.h"
#include "fdb/engine/csv.h"
#include "fdb/engine/database.h"
#include "fdb/storage/io_env.h"
#include "fdb/storage/snapshot.h"
#include "test_util.h"

namespace fdb {
namespace {

using testing::Row;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FlattenCsv(const Factorisation& f, const AttributeRegistry& reg) {
  std::ostringstream out;
  WriteCsv(f.Flatten(), reg, out);
  return out.str();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

int64_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in.good() ? static_cast<int64_t>(in.tellg()) : -1;
}

/// A database with one updatable two-attribute view "V" over `rows`
/// tuples (x/10, x), plus a WAL bound at `path`.
Database MakeWalDb(const std::string& path, int64_t rows,
                   const std::string& prefix) {
  Database db;
  AttrId a = db.Attr(prefix + "_a"), b = db.Attr(prefix + "_b");
  Relation r{RelSchema({a, b})};
  for (int64_t x = 0; x < rows; ++x) r.Add({Value(x / 10), Value(x)});
  db.AddView("V", FactoriseRelation(r, {a, b}));
  db.EnableWal(path);
  return db;
}

class WalGuard {
 public:
  ~WalGuard() { storage::IoEnv::Instance().ClearFailpoints(); }
};

TEST(WalTest, AutocommitIsDurable) {
  std::string path = TempPath("wal_auto.fdbs");
  Database db = MakeWalDb(path, 50, "wa");
  db.Insert("V", Row({100, 1000}));
  db.Delete("V", Row({0, 0}));

  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({100, 1000})));
  EXPECT_FALSE(ContainsTuple(*re.view("V"), Row({0, 0})));
  EXPECT_EQ(FlattenCsv(*re.view("V"), re.registry()),
            FlattenCsv(*db.view("V"), db.registry()));
}

TEST(WalTest, CommitGroupIsDurableAndAtomic) {
  std::string path = TempPath("wal_commit.fdbs");
  Database db = MakeWalDb(path, 50, "wc");
  WriteBatch batch;
  for (int64_t i = 0; i < 20; ++i) batch.Insert("V", Row({200, 2000 + i}));
  batch.Delete("V", Row({1, 11}));
  EXPECT_GT(db.Commit(batch), 0u);

  Database re = Database::Open(path);
  EXPECT_EQ(re.view("V")->CountTuples(), 50 - 1 + 20);
  EXPECT_EQ(FlattenCsv(*re.view("V"), re.registry()),
            FlattenCsv(*db.view("V"), db.registry()));
}

TEST(WalTest, DroppedBatchLeavesNothing) {
  std::string path = TempPath("wal_rollback.fdbs");
  Database db = MakeWalDb(path, 50, "wr");
  {
    WriteBatch batch;
    batch.Insert("V", Row({300, 3000}));
  }
  EXPECT_FALSE(ContainsTuple(*db.view("V"), Row({300, 3000})));
  Database re = Database::Open(path);
  EXPECT_EQ(re.view("V")->CountTuples(), 50);
}

TEST(WalTest, UncommittedGroupIsNotReplayed) {
  std::string path = TempPath("wal_uncommitted.fdbs");
  Database db = MakeWalDb(path, 50, "wu");
  db.Insert("V", Row({9, 90}));
  WriteBatch batch;
  batch.Insert("V", Row({400, 4000}));
  // No Commit: the process "dies" with the batch held in memory only.
  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({9, 90})));
  EXPECT_FALSE(ContainsTuple(*re.view("V"), Row({400, 4000})));
}

TEST(WalTest, TornTailIsTruncatedAtRecovery) {
  std::string path = TempPath("wal_torn.fdbs");
  {
    Database db = MakeWalDb(path, 50, "wt");
    db.Insert("V", Row({500, 5000}));
    db.Insert("V", Row({501, 5001}));
  }
  // A torn frame: garbage where the next commit would have gone.
  std::string wal = ReadFile(storage::WalPath(path));
  WriteFile(storage::WalPath(path), wal + std::string(13, '\x7f'));

  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({500, 5000})));
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({501, 5001})));
  EXPECT_EQ(re.view("V")->CountTuples(), 52);
}

TEST(WalTest, CorruptFrameDropsItAndTheSuffix) {
  std::string path = TempPath("wal_corrupt.fdbs");
  {
    Database db = MakeWalDb(path, 50, "wx");
    db.Insert("V", Row({600, 6000}));
    db.Insert("V", Row({601, 6001}));
    db.Insert("V", Row({602, 6002}));
  }
  std::string wal = ReadFile(storage::WalPath(path));
  // Flip one bit in the second frame's payload region: recovery must
  // keep group 1 and drop groups 2 and 3 (prefix consistency).
  size_t frame1_end = sizeof(storage::WalHeader) + (wal.size() -
                      sizeof(storage::WalHeader)) / 3;
  wal[frame1_end + 30] ^= 0x01;
  WriteFile(storage::WalPath(path), wal);

  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({600, 6000})));
  EXPECT_FALSE(ContainsTuple(*re.view("V"), Row({602, 6002})));
}

TEST(WalTest, CheckpointFoldsAndResetsTheLog) {
  std::string path = TempPath("wal_fold.fdbs");
  Database db = MakeWalDb(path, 50, "wf");
  db.Insert("V", Row({700, 7000}));
  EXPECT_GT(FileSize(storage::WalPath(path)),
            static_cast<int64_t>(sizeof(storage::WalHeader)));

  storage::CheckpointInfo info = db.Checkpoint(path);
  EXPECT_EQ(info.kind, storage::CheckpointInfo::kDelta);
  // Folded: the log is back to a bare header...
  EXPECT_EQ(FileSize(storage::WalPath(path)),
            static_cast<int64_t>(sizeof(storage::WalHeader)));
  // ...and replay comes from the chain alone.
  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({700, 7000})));
  EXPECT_EQ(re.view("V")->CountTuples(), 51);

  // Post-fold commits land in the fresh log and replay on top.
  db.Insert("V", Row({701, 7001}));
  Database re2 = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re2.view("V"), Row({701, 7001})));
  EXPECT_EQ(re2.view("V")->CountTuples(), 52);
}

TEST(WalTest, SaveFoldsAndResetsTheLog) {
  std::string path = TempPath("wal_save_fold.fdbs");
  Database db = MakeWalDb(path, 50, "ws");
  db.Insert("V", Row({800, 8000}));
  db.Save(path);
  EXPECT_EQ(FileSize(storage::WalPath(path)),
            static_cast<int64_t>(sizeof(storage::WalHeader)));
  db.Insert("V", Row({801, 8001}));
  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({800, 8000})));
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({801, 8001})));
}

TEST(WalTest, StaleLogIsIgnoredWhole) {
  std::string path = TempPath("wal_stale.fdbs");
  Database db = MakeWalDb(path, 50, "wg");
  db.Insert("V", Row({900, 9000}));
  std::string old_log = ReadFile(storage::WalPath(path));
  ASSERT_EQ(db.Checkpoint(path).kind, storage::CheckpointInfo::kDelta);
  // A crashed fold can leave the pre-fold log behind; its stamp predates
  // the chain, so replay must skip it entirely — the delta already holds
  // group 1, and replaying it again would be wrong for deletes.
  WriteFile(storage::WalPath(path), old_log);

  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({900, 9000})));
  EXPECT_EQ(re.view("V")->CountTuples(), 51);
}

TEST(WalTest, StringTuplesRoundTrip) {
  std::string path = TempPath("wal_strings.fdbs");
  Database db;
  AttrId a = db.Attr("wstr_a"), b = db.Attr("wstr_b");
  Relation r{RelSchema({a, b})};
  r.Add({Value("alpha"), Value(int64_t{1})});
  r.Add({Value("beta"), Value(int64_t{2})});
  db.AddView("V", FactoriseRelation(r, {a, b}));
  db.EnableWal(path);

  WriteBatch batch;
  batch.Insert("V", {Value("gamma"), Value(int64_t{3})});
  batch.Insert("V", {Value("delta with spaces \x01\x02"), Value(int64_t{4})});
  batch.Delete("V", {Value("alpha"), Value(int64_t{1})});
  db.Commit(batch);

  Database re = Database::Open(path);
  EXPECT_TRUE(
      ContainsTuple(*re.view("V"), {Value("gamma"), Value(int64_t{3})}));
  EXPECT_TRUE(ContainsTuple(
      *re.view("V"), {Value("delta with spaces \x01\x02"), Value(int64_t{4})}));
  EXPECT_FALSE(
      ContainsTuple(*re.view("V"), {Value("alpha"), Value(int64_t{1})}));
  EXPECT_EQ(re.view("V")->CountTuples(), 3);
}

TEST(WalTest, CommitFsyncFailureLeavesBatchRetryable) {
  WalGuard guard;
  std::string path = TempPath("wal_fsync_fail.fdbs");
  Database db = MakeWalDb(path, 50, "wfs");
  WriteBatch batch;
  batch.Insert("V", Row({123, 1234}));
  storage::IoEnv::Instance().SetFailpoints("wal_fsync:1");
  EXPECT_THROW(db.Commit(batch), std::invalid_argument);
  // The group was not acknowledged and must not have been applied.
  EXPECT_FALSE(ContainsTuple(*db.view("V"), Row({123, 1234})));
  EXPECT_EQ(batch.size(), 1u);

  storage::IoEnv::Instance().ClearFailpoints();
  EXPECT_GT(db.Commit(batch), 0u);  // retry: torn tail truncated, appended
  EXPECT_TRUE(ContainsTuple(*db.view("V"), Row({123, 1234})));
  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({123, 1234})));
  EXPECT_EQ(re.view("V")->CountTuples(), 51);
}

TEST(WalTest, OneFsyncPerCommitGroup) {
  std::string path = TempPath("wal_one_fsync.fdbs");
  Database db = MakeWalDb(path, 50, "wof");
  storage::IoEnv& io = storage::IoEnv::Instance();
  io.ResetCounts();
  WriteBatch batch;
  for (int64_t i = 0; i < 100; ++i) batch.Insert("V", Row({77, 10000 + i}));
  db.Commit(batch);
  EXPECT_EQ(io.Count("wal_fsync"), 1u);
  EXPECT_EQ(io.Count("wal_write"), 1u);
}

TEST(WalTest, WalStatusReportsCommittedGroups) {
  std::string path = TempPath("wal_status.fdbs");
  Database db = MakeWalDb(path, 50, "wst");
  storage::WalStatus s0 = db.WalStatus();
  EXPECT_TRUE(s0.enabled);
  EXPECT_EQ(s0.committed_groups, 0u);

  WriteBatch batch;
  batch.Insert("V", Row({42, 420}));
  batch.Insert("V", Row({42, 421}));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_GT(storage::Wal::PayloadBytes(batch.ops()), 0u);
  EXPECT_EQ(db.WalStatus().committed_groups, 0u);  // nothing logged yet

  db.Commit(batch);
  storage::WalStatus s1 = db.WalStatus();
  EXPECT_EQ(s1.committed_groups, 1u);
  EXPECT_GT(s1.wal_bytes, static_cast<uint64_t>(sizeof(storage::WalHeader)));
}

TEST(WalTest, BatchWithOneBadOpIsRejectedWhole) {
  std::string path = TempPath("wal_validate.fdbs");
  Database db = MakeWalDb(path, 50, "wv");
  EXPECT_THROW(db.Insert("nope", Row({1, 2})), std::invalid_argument);
  EXPECT_THROW(db.Insert("V", Row({1, 2, 3})), std::invalid_argument);
  for (const Tuple& bad : {Row({1}), Row({1, 2, 3})}) {
    WriteBatch batch;
    batch.Insert("V", Row({1000, 10000}));
    batch.Insert("V", bad);
    EXPECT_THROW(db.Commit(batch), std::invalid_argument);
    EXPECT_EQ(batch.size(), 2u);
  }
  WriteBatch unknown;
  unknown.Insert("V", Row({1000, 10000}));
  unknown.Delete("nope", Row({1, 2}));
  EXPECT_THROW(db.Commit(unknown), std::invalid_argument);
  // Nothing of the rejected batches was applied or logged.
  EXPECT_FALSE(ContainsTuple(*db.view("V"), Row({1000, 10000})));
  EXPECT_EQ(db.WalStatus().committed_groups, 0u);

  WriteBatch good;
  good.Insert("V", Row({1000, 10000}));
  db.Commit(good);
  Database re = Database::Open(path);
  EXPECT_EQ(re.view("V")->CountTuples(), 51);
}

TEST(WalTest, DisableWalFoldsAndRemovesTheLog) {
  std::string path = TempPath("wal_disable.fdbs");
  Database db = MakeWalDb(path, 50, "wd");
  db.Insert("V", Row({11, 111}));
  db.DisableWal();
  EXPECT_FALSE(db.wal_enabled());
  EXPECT_EQ(FileSize(storage::WalPath(path)), -1);  // file removed
  Database re = Database::Open(path);
  EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({11, 111})));
}

TEST(WalTest, BatchesWorkWithoutAWal) {
  // Batching is useful purely in memory too (one rebuild per union per
  // batch); there is just no durability.
  Database db;
  AttrId a = db.Attr("nw_a"), b = db.Attr("nw_b");
  Relation r{RelSchema({a, b})};
  r.Add(Row({1, 2}));
  db.AddView("V", FactoriseRelation(r, {a, b}));
  WriteBatch batch;
  batch.Insert("V", Row({3, 4}));
  batch.Insert("V", Row({5, 6}));
  EXPECT_EQ(db.Commit(batch), 0u);
  EXPECT_EQ(db.view("V")->CountTuples(), 3);
  EXPECT_EQ(db.Commit(WriteBatch()), 0u);  // empty batch: a no-op
}

TEST(WalTest, ConcurrentCommitsStayAtomic) {
  // One thread commits K-op batches while two threads autocommit single
  // inserts, with no lock above Database: no reader may see part of a
  // batch, every log frame holds one whole batch or one autocommit, and
  // recovery brings back every acknowledged op.
  constexpr int64_t kBatches = 30, kOps = 8, kSingles = 60;
  std::string path = TempPath("wal_concurrent.fdbs");
  Database db = MakeWalDb(path, 50, "wcc");
  std::atomic<bool> done{false};
  std::atomic<int64_t> torn{0};

  // Batch i inserts (1000 + i, 0..K-1); single inserts use keys >= 5000.
  std::thread reader([&] {
    while (!done.load()) {
      std::map<int64_t, int64_t> per_key;
      Relation flat = db.ViewSnapshot("V")->Flatten();
      for (const Tuple& t : flat.rows()) {
        int64_t key = t[0].as_int();
        if (key >= 1000 && key < 1000 + kBatches) ++per_key[key];
      }
      for (const auto& [key, n] : per_key) {
        if (n != kOps) torn.fetch_add(1);
      }
    }
  });
  std::thread batcher([&] {
    for (int64_t i = 0; i < kBatches; ++i) {
      WriteBatch batch;
      for (int64_t j = 0; j < kOps; ++j) batch.Insert("V", Row({1000 + i, j}));
      db.Commit(batch);
    }
  });
  std::vector<std::thread> singles;
  for (int64_t w = 0; w < 2; ++w) {
    singles.emplace_back([&db, w] {
      for (int64_t m = 0; m < kSingles; ++m) {
        db.Insert("V", Row({5000 + w, m}));
      }
    });
  }
  batcher.join();
  for (std::thread& t : singles) t.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(torn.load(), 0);

  storage::WalHeader header;
  std::string wal = ReadFile(storage::WalPath(path));
  ASSERT_GE(wal.size(), sizeof(header));
  std::memcpy(&header, wal.data(), sizeof(header));
  std::optional<storage::WalRecovery> rec =
      storage::ReadWal(path, header.epoch, header.chain_pos);
  ASSERT_TRUE(rec.has_value());
  EXPECT_FALSE(rec->truncated_tail);
  int64_t batch_frames = 0, single_frames = 0;
  for (const std::vector<storage::WalOp>& group : rec->groups) {
    if (group.size() == static_cast<size_t>(kOps)) {
      ++batch_frames;
    } else {
      EXPECT_EQ(group.size(), 1u);
      ++single_frames;
    }
  }
  EXPECT_EQ(batch_frames, kBatches);
  EXPECT_EQ(single_frames, 2 * kSingles);

  Database re = Database::Open(path);
  for (int64_t i = 0; i < kBatches; ++i) {
    for (int64_t j = 0; j < kOps; ++j) {
      EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({1000 + i, j})));
    }
  }
  for (int64_t w = 0; w < 2; ++w) {
    for (int64_t m = 0; m < kSingles; ++m) {
      EXPECT_TRUE(ContainsTuple(*re.view("V"), Row({5000 + w, m})));
    }
  }
  EXPECT_EQ(re.view("V")->CountTuples(), 50 + kBatches * kOps + 2 * kSingles);
}

TEST(WalTest, CorruptPayloadInValidFrameNamesPathAndOffset) {
  std::string path = TempPath("wal_diag.fdbs");
  {
    Database db = MakeWalDb(path, 10, "wdx");
    db.Insert("V", Row({1, 2}));
  }
  // Forge a CRC-valid frame whose payload is garbage: recovery must
  // refuse loudly (this is not a torn tail) and say where.
  std::string wal = ReadFile(storage::WalPath(path));
  storage::WalFrameHeader frame{};
  std::string payload(3, '\xff');  // kind 255: invalid
  frame.size = static_cast<uint32_t>(payload.size());
  frame.seq = 2;
  frame.count = 1;
  std::string buf(reinterpret_cast<const char*>(&frame), sizeof(frame));
  buf += payload;
  uint32_t crc = storage::Crc32(buf.data() + sizeof(uint32_t),
                                buf.size() - sizeof(uint32_t));
  std::memcpy(buf.data(), &crc, sizeof(crc));
  WriteFile(storage::WalPath(path), wal + buf);

  try {
    Database::Open(path);
    FAIL() << "corrupt payload in a CRC-valid frame must throw";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find(storage::WalPath(path)), std::string::npos) << msg;
    EXPECT_NE(msg.find("at byte"), std::string::npos) << msg;
  }
}

TEST(WalTest, SnapshotParseErrorsNamePathAndOffset) {
  std::string path = TempPath("wal_diag_snap.fdbs");
  Database db = MakeWalDb(path, 10, "wds");
  db.DisableWal();
  std::string bytes = ReadFile(path);
  WriteFile(path, bytes.substr(0, bytes.size() / 2));  // truncate
  try {
    Database::Open(path);
    FAIL() << "truncated snapshot must throw";
  } catch (const std::invalid_argument& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace fdb
