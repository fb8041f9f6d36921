#ifndef FDB_STORAGE_WAL_H_
#define FDB_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fdb/relational/relation.h"

namespace fdb {
namespace storage {

/// Write-ahead log for a snapshot path: `<path>.wal` sits next to the
/// base file and its delta chain and makes committed view mutations
/// durable between checkpoints. Layout:
///
///   WalHeader                       magic, version, endianness probe,
///                                   the base epoch this log applies on
///                                   top of, and the chain position
///                                   (delta count) when it was started
///   frame*                          one frame per committed group
///
/// Each frame is CRC32-guarded and carries a dense 1-based commit
/// sequence number:
///
///   u32 crc        CRC32 (poly 0xEDB88320) of every frame byte after it
///   u32 size       payload bytes
///   u64 seq        commit sequence, previous frame's + 1
///   u32 count      ops in the group
///   u32 reserved
///   payload        `count` ops: u8 kind (0 insert / 1 delete),
///                  str32 view name, u32 arity, arity value cells in the
///                  snapshot relation encoding (tag byte + payload;
///                  strings inline — a log is self-contained)
///
/// Commit appends one frame with a single write and a single fsync
/// (group commit); recovery replays frames in order and truncates at
/// the first torn or corrupt frame, so a crash mid-commit loses at most
/// the in-flight group and never a previously acknowledged one
/// (prefix-consistent recovery). A log whose (epoch, chain position)
/// stamp does not match the replayed base+delta chain is ignored whole:
/// it predates a fold that already captured everything in it.
inline constexpr char kWalMagic[8] = {'F', 'D', 'B', 'W', 'A', 'L', '1', 0};
inline constexpr uint32_t kWalVersion = 1;

struct WalHeader {
  char magic[8];
  uint32_t version;
  uint32_t endian;
  uint64_t epoch;      ///< base epoch the log applies on top of
  uint64_t chain_pos;  ///< deltas present when the log was started/reset
};
static_assert(sizeof(WalHeader) == 32);

struct WalFrameHeader {
  uint32_t crc;   ///< over size..payload end
  uint32_t size;  ///< payload bytes
  uint64_t seq;   ///< 1-based, dense
  uint32_t count; ///< ops in the group
  uint32_t reserved;
};
static_assert(sizeof(WalFrameHeader) == 24);

/// One logical mutation: insert or delete of `tuple` in view `view`.
struct WalOp {
  enum Kind : uint8_t { kInsert = 0, kDelete = 1 };
  Kind kind = kInsert;
  std::string view;
  Tuple tuple;
};

/// CRC32 (IEEE, reflected, poly 0xEDB88320) over `n` bytes, seeded by
/// `crc` for incremental use (pass 0 to start).
uint32_t Crc32(const void* data, size_t n, uint32_t crc = 0);

/// The log file of the snapshot at `path`: `<path>.wal`.
std::string WalPath(const std::string& path);

/// An open, writable log. All I/O goes through IoEnv (sites "wal_open",
/// "wal_write", "wal_fsync", "wal_truncate", "wal_close", "dir_fsync").
/// Not thread-safe; the owning Database serialises commits.
class Wal {
 public:
  /// Creates (or resets) `<snapshot_path>.wal`, stamps it with
  /// (epoch, chain_pos) and makes the header durable before returning —
  /// so a later torn header always means "no committed group was lost".
  /// Throws std::invalid_argument on I/O failure.
  static std::unique_ptr<Wal> Create(const std::string& snapshot_path,
                                     uint64_t epoch, uint64_t chain_pos);

  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Appends `ops` as one commit group: one frame, one write, one fsync.
  /// Returns the group's sequence number. On I/O failure throws
  /// std::invalid_argument and leaves the log poised to retry: the torn
  /// tail (if any) is truncated away before the next append. After a
  /// failure the group is NOT durable (recovery drops its torn frame).
  uint64_t Append(const std::vector<WalOp>& ops);

  /// Truncates the log back to a bare header stamped with the new
  /// (epoch, chain_pos) — called after a checkpoint folded every logged
  /// group into the chain. Throws std::invalid_argument on I/O failure;
  /// the log is then `broken()` and must be re-created (durability is
  /// unaffected: the chain already holds everything).
  void Reset(uint64_t epoch, uint64_t chain_pos);

  /// Serialised size of `ops` as a frame payload (status reporting).
  static uint64_t PayloadBytes(const std::vector<WalOp>& ops);

  const std::string& path() const { return path_; }
  uint64_t last_seq() const { return last_seq_; }
  uint64_t bytes() const { return durable_bytes_; }
  bool broken() const { return broken_; }

 private:
  Wal() = default;

  std::string path_;
  int fd_ = -1;
  uint64_t durable_bytes_ = 0;  ///< valid prefix length on disk
  uint64_t last_seq_ = 0;
  bool tail_dirty_ = false;  ///< a failed append may have left torn bytes
  bool broken_ = false;      ///< Reset failed; log must be re-created
};

/// A point-in-time report of a Database's WAL state
/// (Database::WalStatus; surfaced by sql_shell's \wal-status).
struct WalStatus {
  bool enabled = false;  ///< a log is bound (EnableWal)
  bool broken = false;   ///< the log failed a reset; re-enable to recover
  std::string path;      ///< the log file, when enabled
  uint64_t committed_groups = 0;  ///< frames durable since the last fold
  uint64_t wal_bytes = 0;         ///< durable log size on disk
};

/// What recovery found in a log.
struct WalRecovery {
  std::vector<std::vector<WalOp>> groups;  ///< committed groups, in order
  uint64_t valid_bytes = 0;   ///< clean prefix length
  bool truncated_tail = false;  ///< torn/corrupt bytes were ignored
};

/// Reads `<snapshot_path>.wal` and validates it against the replayed
/// chain. Returns nullopt when there is no log, the header is torn, or
/// the (epoch, chain_pos) stamp does not match — in every such case the
/// chain already contains everything the log ever held. Torn or corrupt
/// trailing frames are dropped (prefix-consistent). Throws
/// std::invalid_argument (with path + byte offset) only on damage a CRC
/// cannot explain: a CRC-valid frame whose payload does not decode.
std::optional<WalRecovery> ReadWal(const std::string& snapshot_path,
                                   uint64_t epoch, uint64_t chain_pos);

}  // namespace storage
}  // namespace fdb

#endif  // FDB_STORAGE_WAL_H_
