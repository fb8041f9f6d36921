#ifndef FDB_SERVE_SESSION_H_
#define FDB_SERVE_SESSION_H_

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fdb/engine/database.h"
#include "fdb/exec/cancel.h"
#include "fdb/serve/admission.h"
#include "fdb/serve/session_registry.h"
#include "fdb/serve/wire.h"

namespace fdb {
namespace serve {

/// Shared server state handed to every session.
struct ServeContext {
  Database* db = nullptr;
  AdmissionController* admission = nullptr;
  std::atomic<bool>* draining = nullptr;
};

/// One client connection: reads statements off the wire, runs them
/// through admission + the engine with this session's cancellation token
/// armed, and streams typed result frames back. Owns the session's
/// transaction: BEGIN starts a session-local WriteBatch; COMMIT hands it
/// to Database::Commit (one WAL commit group, one fsync, atomic against
/// every other session's writes); ROLLBACK drops it.
///
/// Reads pin view snapshots for exactly one statement: the engine takes
/// `ViewSnapshot`s when a query starts and drops them when it finishes,
/// so a long SELECT sees one consistent epoch while writers keep
/// publishing new ones.
class Session {
 public:
  Session(const ServeContext& ctx, int fd, const std::string& peer);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// The connection's statement loop; returns when the peer disconnects,
  /// a protocol error desyncs the stream, or drain completes. Run on the
  /// session's own thread.
  void Run();

  /// Graceful drain: stop reading new statements (the response side of
  /// the socket stays open so the in-flight statement can finish).
  void BeginDrain();
  /// Hard stop: trips the cancellation token and shuts the socket down
  /// both ways (drain deadline passed).
  void Kill();

  const std::shared_ptr<SessionStats>& stats() const { return stats_; }

  // --- statement layer, socket-free for tests ---------------------------

  /// Executes one statement and appends response frames to `out`.
  /// Exposed so limit/transaction tests can drive a session without a
  /// socket pair.
  void HandleStatement(const std::string& text, std::vector<uint8_t>* out);

 private:
  void RunQuery(const std::string& text, std::vector<uint8_t>* out);
  void HandleWrite(bool is_insert, const std::string& view, Tuple tuple,
                   std::vector<uint8_t>* out);
  void HandleBegin(std::vector<uint8_t>* out);
  void HandleCommit(std::vector<uint8_t>* out);
  void HandleRollback(std::vector<uint8_t>* out);
  // Leaves the transaction: drops the batch and resets the session's
  // fdb.sessions transaction columns.
  void EndTxn();
  void AppendError(std::vector<uint8_t>* out, uint8_t code,
                   const std::string& message);
  void AppendDone(std::vector<uint8_t>* out, const DoneStats& stats);
  bool WriteAll(const uint8_t* data, size_t n);

  ServeContext ctx_;
  int fd_;
  std::shared_ptr<SessionStats> stats_;
  exec::CancelToken token_;
  std::atomic<bool> draining_{false};
  bool in_txn_ = false;
  WriteBatch batch_;
};

/// Parses "INSERT INTO v VALUES (1, 2.5, 'x')" / "DELETE FROM v VALUES
/// (...)" into view + tuple. Returns false if `text` is not a write
/// statement at all; throws std::invalid_argument on a malformed one.
/// Literals: integers, doubles, single-quoted strings ('' escapes a
/// quote), NULL.
bool ParseWriteStatement(const std::string& text, bool* is_insert,
                         std::string* view, Tuple* tuple);

/// Uppercased first keyword of a statement ("BEGIN", "SELECT", ...).
std::string FirstKeyword(const std::string& text);

}  // namespace serve
}  // namespace fdb

#endif  // FDB_SERVE_SESSION_H_
