// The served workload (serve_mix): the shipped fdb_server runs as a child
// process with its defaults (metrics on, admission 4 executing + 16
// queued) over a snapshot this benchmark writes, so its WAL is bound.
// Several closed-loop connections round-robin the statement classes.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "fdb/engine/fdb_engine.h"
#include "fdb/exec/task_pool.h"
#include "fdb/serve/client.h"
#include "fdb/serve/wire.h"
#include "pipeline.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace fdb;
namespace fs = std::filesystem;

constexpr int kMaxRetries = 5;
constexpr int64_t kStartTimeoutNs = 60'000'000'000;

/// One fdb_server child process. The child gets SIGKILL if this process
/// dies first, and the destructor kills and reaps it.
class ServerProcess {
 public:
  ServerProcess(std::vector<std::string> args, std::string log_path)
      : args_(std::move(args)), log_path_(std::move(log_path)) {}
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Spawns the server and waits until it prints "listening"; returns the
  /// seconds that took.
  double Start() {
    std::vector<char*> argv;
    for (std::string& a : args_) argv.push_back(a.data());
    argv.push_back(nullptr);
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    pid_t parent = ::getpid();
    int64_t t0 = NowNs();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(126);
      ::dup2(fds[1], 1);
      int log = ::open(log_path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) ::dup2(log, 2);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    std::string buf;
    while (true) {
      size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        size_t at = line.find("listening on ");
        if (at != std::string::npos) {
          port_ = std::stoi(line.substr(line.rfind(':') + 1));
          return static_cast<double>(NowNs() - t0) / 1e9;
        }
        continue;
      }
      int64_t left_ms = (t0 + kStartTimeoutNs - NowNs()) / 1'000'000;
      pollfd p{out_fd_, POLLIN, 0};
      if (left_ms <= 0 || ::poll(&p, 1, static_cast<int>(left_ms)) <= 0) {
        throw std::runtime_error("fdb_server did not start; see " + log_path_);
      }
      char chunk[256];
      ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        throw std::runtime_error("fdb_server exited early; see " + log_path_);
      }
      buf.append(chunk, static_cast<size_t>(n));
    }
  }

  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

  int pid() const { return pid_; }
  int port() const { return port_; }

 private:
  std::vector<std::string> args_;
  std::string log_path_;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

/// A wire client built on the public codec, for the traced pass: unlike
/// serve::Client it notes when the first Row frame arrives.
class RawClient {
 public:
  struct Reply {
    bool ok = false;
    bool retry = false;
    uint64_t retry_ms = 0;
    std::string error;
    std::vector<std::vector<Value>> rows;
    serve::DoneStats done;
    int64_t first_row_ns = -1;
  };

  explicit RawClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd_);
      throw std::runtime_error("connect failed");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Send(serve::FrameType::kHello, serve::EncodeHello());
    serve::Frame f = Read();
    if (f.type != serve::FrameType::kHello) {
      throw std::runtime_error("handshake failed");
    }
    serve::DecodeHello(f.payload);
  }
  ~RawClient() { ::close(fd_); }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  Reply Query(const std::string& sql) {
    Send(serve::FrameType::kQuery,
         std::vector<uint8_t>(sql.begin(), sql.end()));
    Reply r;
    int arity = 0;
    while (true) {
      serve::Frame f = Read();
      switch (f.type) {
        case serve::FrameType::kSchema:
          arity = static_cast<int>(serve::DecodeSchema(f.payload).size());
          break;
        case serve::FrameType::kRow:
          if (r.first_row_ns < 0) r.first_row_ns = NowNs();
          r.rows.push_back(serve::DecodeRow(f.payload, arity));
          break;
        case serve::FrameType::kDone:
          r.done = serve::DecodeDone(f.payload);
          r.ok = true;
          return r;
        case serve::FrameType::kError:
          r.error = serve::DecodeError(f.payload).message;
          return r;
        case serve::FrameType::kRetry:
          r.retry = true;
          r.retry_ms = serve::DecodeRetry(f.payload).retry_after_ms;
          return r;
        default:
          throw std::runtime_error("unexpected frame");
      }
    }
  }

 private:
  void Send(serve::FrameType type, const std::vector<uint8_t>& payload) {
    std::vector<uint8_t> out;
    serve::AppendFrame(&out, type, payload.data(), payload.size());
    size_t off = 0;
    while (off < out.size()) {
      ssize_t w = ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) throw std::runtime_error("send failed");
      off += static_cast<size_t>(w);
    }
  }
  serve::Frame Read() {
    serve::Frame f;
    uint8_t buf[64 * 1024];
    while (!dec_.Next(&f)) {
      ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("connection closed");
      dec_.Feed(buf, static_cast<size_t>(n));
    }
    return f;
  }

  int fd_ = -1;
  serve::FrameDecoder dec_;
};

/// What one connection saw.
struct ConnStats {
  Samples reads, writes;
  int64_t statements = 0, failed = 0, failed_writes = 0;
  double insert_lateness_ns = 0;  ///< summed over inserts: sent - due
  std::vector<Tuple> acked;
  // Traced pass only: served-read counters from the Done frames.
  int64_t traced_reads = 0, first_rows = 0;
  double first_row_ns = 0, mem_charged = 0;
};

/// Drives the closed-loop connections of one phase.
class Load {
 public:
  Load(const RunContext& ctx, const std::vector<Reference>& refs, int port)
      : ctx_(ctx), refs_(refs), port_(port), sched_(Schedule(ctx.spec)) {}

  /// Runs spec.clients connections for `seconds` (with `enforce_min`,
  /// until kMinReadsPerSegment reads and all `inserts` are done, capped at
  /// three times the duration). The insert slots of the round robin fire at a fixed rate,
  /// `inserts` spread evenly over the phase (a slot whose insert is not
  /// due yet is skipped): the view the inserts grow then has the same size
  /// at the same point of every run, however fast the reads are. Traced
  /// connections record spans into `tracers`.
  std::vector<ConnStats> Run(double seconds, int inserts, bool enforce_min,
                             std::vector<Tracer>* tracers, double* wall_s) {
    int n = ctx_.spec.clients;
    std::vector<ConnStats> stats(static_cast<size_t>(n));
    reads_done_ = 0;
    writes_done_ = 0;
    start_ = NowNs();
    deadline_ = start_ + static_cast<int64_t>(seconds * 1e9);
    cap_ = start_ + static_cast<int64_t>(3 * seconds * 1e9);
    enforce_min_ = enforce_min;
    inserts_per_conn_ = std::max(1, inserts / n);
    inserts_ = static_cast<size_t>(inserts_per_conn_ * n);
    insert_gap_ns_ = static_cast<int64_t>(seconds * 1e9 / inserts_per_conn_);
    std::vector<std::thread> threads;
    for (int i = 0; i < n; ++i) {
      Tracer* tr = tracers != nullptr ? &(*tracers)[static_cast<size_t>(i)]
                                      : nullptr;
      threads.emplace_back([this, i, tr, &stats] {
        Connection(i, tr, &stats[static_cast<size_t>(i)]);
      });
    }
    for (std::thread& t : threads) t.join();
    *wall_s = static_cast<double>(NowNs() - start_) / 1e9;
    return stats;
  }

 private:
  bool Done() const {
    int64_t now = NowNs();
    size_t min = static_cast<size_t>(kMinReadsPerSegment);
    bool enough = !enforce_min_ || (reads_done_.load() >= min &&
                                    writes_done_.load() >= inserts_);
    return (now >= deadline_ && enough) || now >= cap_;
  }

  /// When this connection's i-th insert of the phase is due.
  int64_t InsertDue(int64_t i) const {
    return start_ + insert_gap_ns_ / 2 + i * insert_gap_ns_;
  }

  void Connection(int idx, Tracer* tr, ConnStats* st) {
    try {
      std::unique_ptr<serve::Client> client;
      std::unique_ptr<RawClient> raw;
      if (tr != nullptr) {
        raw = std::make_unique<RawClient>(port_);
      } else {
        client = std::make_unique<serve::Client>();
        client->Connect("127.0.0.1", port_);
      }
      size_t offset = sched_.size() * static_cast<size_t>(idx) /
                      static_cast<size_t>(ctx_.spec.clients);
      for (size_t i = offset; !Done(); ++i) {
        int c = sched_[i % sched_.size()];
        const StmtClass& sc = ctx_.spec.classes[static_cast<size_t>(c)];
        Tuple row;
        std::string sql = sc.sql;
        int64_t due = 0;
        if (sc.write) {
          int64_t mine = static_cast<int64_t>(st->writes.size()) + st->failed_writes;
          if (mine >= inserts_per_conn_) continue;
          due = InsertDue(mine);
          if (NowNs() < due) continue;
          row = WriteRow(next_write_.fetch_add(1), ctx_.seed);
          sql = InsertSql(sc, row);
        }
        ++st->statements;
        int64_t t0 = NowNs();
        bool ok = false, retry = false;
        std::vector<std::vector<Value>> rows;
        if (tr != nullptr) {
          tr->SetStatement(static_cast<int64_t>(idx) << 40 | st->statements, c);
          int root = tr->Begin("statement");
          RawClient::Reply r;
          for (int a = 0; a <= kMaxRetries; ++a) {
            r = raw->Query(sql);
            if (!r.retry) break;
            std::this_thread::sleep_for(std::chrono::milliseconds(r.retry_ms));
          }
          // The server reports its own time and the admission wait; the
          // rest of the client-observed latency is the wire.
          int64_t qw = static_cast<int64_t>(r.done.queue_wait_ns);
          int64_t srv = static_cast<int64_t>(r.done.elapsed_ns);
          if (r.ok && !sc.write) {
            tr->AddComplete("queue_wait", t0, t0 + qw);
            tr->AddComplete("server", t0 + qw, t0 + qw + srv);
            st->traced_reads += 1;
            st->mem_charged += static_cast<double>(r.done.mem_charged);
            if (r.first_row_ns >= 0) {
              st->first_rows += 1;
              st->first_row_ns += static_cast<double>(r.first_row_ns - t0);
            }
          }
          tr->End(root);
          ok = r.ok;
          retry = r.retry;
          rows = std::move(r.rows);
        } else {
          serve::Client::Result r;
          for (int a = 0; a <= kMaxRetries; ++a) {
            r = client->Query(sql);
            if (!r.retry) break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(r.retry_info.retry_after_ms));
          }
          ok = r.ok;
          retry = r.retry;
          rows = std::move(r.rows);
        }
        double ms = static_cast<double>(NowNs() - t0) / 1e6;
        if (ok && !sc.write) {
          const Reference& ref = refs_[static_cast<size_t>(c)];
          ok = DigestRows(rows, ref.order_cols) == ref.digest;
        }
        if (!ok) {
          ++st->failed;
          if (sc.write) ++st->failed_writes;
          if (st->failed <= 3) {
            std::printf("FAILED %s: %s\n", sc.name.c_str(),
                        retry ? "refused after retries" : "error or wrong result");
          }
          continue;
        }
        if (sc.write) {
          st->insert_lateness_ns += static_cast<double>(t0 - due);
          st->writes.Add(ms, c);
          st->acked.push_back(std::move(row));
          ++writes_done_;
        } else {
          st->reads.Add(ms, c);
          ++reads_done_;
        }
      }
    } catch (const std::exception& e) {
      ++st->failed;
      std::printf("FAILED connection %d: %s\n", idx, e.what());
    }
  }

  const RunContext& ctx_;
  const std::vector<Reference>& refs_;
  int port_;
  std::vector<int> sched_;
  int64_t start_ = 0, deadline_ = 0, cap_ = 0;
  int64_t inserts_per_conn_ = 1, insert_gap_ns_ = 1;
  size_t inserts_ = 0;
  bool enforce_min_ = false;
  std::atomic<size_t> reads_done_{0}, writes_done_{0};
  std::atomic<int64_t> next_write_{0};
};

struct Merged {
  Samples reads, writes;
  int64_t statements = 0, failed = 0;
  double wall_s = 0;
  double qps() const {
    return static_cast<double>(reads.size() + writes.size()) / wall_s;
  }
};

Merged Merge(const std::vector<ConnStats>& stats, double wall_s) {
  Merged m;
  m.wall_s = wall_s;
  for (const ConnStats& s : stats) {
    m.reads.Append(s.reads);
    m.writes.Append(s.writes);
    m.statements += s.statements;
    m.failed += s.failed;
  }
  return m;
}

int64_t FileSize(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size) : 0;
}

/// One server lifetime: a fresh copy of the pristine snapshot, a started
/// fdb_server, a warm-up, one timed load phase, then the durability check.
class ServedPhase {
 public:
  ServedPhase(const RunContext& ctx, const std::vector<Reference>& refs,
              const std::string& pristine)
      : ctx_(ctx), refs_(refs), pristine_(pristine),
        db_path_(ctx.work_dir + "/serve.fdbs"),
        args_({PERFBENCH_SERVER_BIN, "--demo", std::to_string(ctx.spec.scale),
               "--db", db_path_, "--port", "0"}) {}

  /// Starts fdb_server on a fresh copy of the snapshot (each start then
  /// does the same work: open, bind the WAL, which checkpoints first, and
  /// listen); returns the seconds until it listened.
  double Start() {
    server_.reset();
    for (const fs::directory_entry& e : fs::directory_iterator(ctx_.work_dir)) {
      if (e.path().filename().string().rfind("serve.fdbs", 0) == 0) {
        fs::remove(e.path());
      }
    }
    fs::copy_file(pristine_, db_path_);
    server_ = std::make_unique<ServerProcess>(args_, log_path());
    return server_->Start();
  }

  struct Result {
    std::vector<ConnStats> stats;
    Merged merged;
    double rss_mb = 0, cpu_s = 0;
    int64_t wal_bytes = 0, missing = 0;
  };

  /// Starts a server, warms it up (every read class once, so lazily
  /// materialised views are in memory before the high-water mark is
  /// reset), runs the load, then kills the server without warning,
  /// restarts it on the same snapshot and WAL and counts the acknowledged
  /// inserts it lost. (SIGKILL keeps the OS page cache, so this checks
  /// what reached the WAL file, not what reached the disk.)
  Result Run(double seconds, int inserts, bool enforce_min,
             std::vector<Tracer>* tracers, RunOutput* out) {
    Start();
    int pid = server_->pid();
    {
      serve::Client warm;
      warm.Connect("127.0.0.1", server_->port());
      for (size_t c = 0; c < ctx_.spec.classes.size(); ++c) {
        if (ctx_.spec.classes[c].write) continue;
        serve::Client::Result r = warm.Query(ctx_.spec.classes[c].sql);
        ++out->attempted;
        if (!r.ok ||
            !(DigestRows(r.rows, refs_[c].order_cols) == refs_[c].digest)) {
          ++out->failed;
          std::printf("FAILED warm-up %s\n", ctx_.spec.classes[c].name.c_str());
        }
      }
    }
    Result res;
    std::string wal_path = db_path_ + ".wal";
    int64_t wal0 = FileSize(wal_path);
    ResetPeakRss(pid);
    double cpu0 = CpuSeconds(pid);
    double wall = 0;
    Load load(ctx_, refs_, server_->port());
    res.stats = load.Run(seconds, inserts, enforce_min, tracers, &wall);
    res.merged = Merge(res.stats, wall);
    res.rss_mb = PeakRssMb(pid);
    res.cpu_s = CpuSeconds(pid) - cpu0;
    res.wal_bytes = FileSize(wal_path) - wal0;
    out->attempted += res.merged.statements;
    out->failed += res.merged.failed;

    std::vector<Tuple> acked;
    for (const ConnStats& st : res.stats) {
      acked.insert(acked.end(), st.acked.begin(), st.acked.end());
    }
    server_->Kill();
    ServerProcess restarted(args_, log_path());
    double restart_s = restarted.Start();
    res.missing = static_cast<int64_t>(acked.size());  // unless read back
    serve::Client c;
    c.Connect("127.0.0.1", restarted.port());
    std::set<std::string> views;
    for (const StmtClass& sc : ctx_.spec.classes) {
      if (sc.write) views.insert(sc.sql);
    }
    std::vector<std::vector<Value>> rows;
    bool read_back = true;
    for (const std::string& v : views) {
      serve::Client::Result r = c.Query("SELECT k, v FROM " + v);
      read_back &= r.ok;
      rows.insert(rows.end(), r.rows.begin(), r.rows.end());
    }
    if (read_back) res.missing = MissingRows(rows, acked);
    out->failed += res.missing;
    std::printf("durability: restart %.3f s; %lld of %zu acknowledged "
                "inserts missing after SIGKILL\n",
                restart_s, static_cast<long long>(res.missing), acked.size());
    return res;
  }

 private:
  std::string log_path() const { return ctx_.work_dir + "/fdb_server.log"; }

  const RunContext& ctx_;
  const std::vector<Reference>& refs_;
  std::string pristine_, db_path_;
  std::vector<std::string> args_;
  std::unique_ptr<ServerProcess> server_;
};

}  // namespace

RunOutput RunServed(const RunContext& ctx) {
  const WorkloadSpec& spec = ctx.spec;
  RunOutput out;
  fs::create_directories(ctx.work_dir);

  // The in-process reference: the server's demo database at the same
  // scale, built from this run's seed and saved as the server's snapshot.
  Tracer setup_tr;
  Database ref = BuildDatabase(spec, ctx.seed, ctx.trace ? &setup_tr : nullptr);
  std::vector<Reference> refs = RunOracle(&ref, spec, &out.failed);
  out.attempted += static_cast<int64_t>(ReadClasses(spec).size());
  std::string pristine = ctx.work_dir + "/pristine.fdbs";
  ref.Save(pristine);

  ServedPhase phase(ctx, refs, pristine);
  std::vector<double> setup_s;
  for (int i = 0; i < spec.setup_reps; ++i) setup_s.push_back(phase.Start());

  if (!ctx.trace) {
    // Each segment runs on its own fresh server: a server's writes get
    // slower and its memory grows with the writes it has taken, so fresh
    // servers make the segments alike and their median meaningful.
    std::vector<Segment> segments;
    std::vector<Samples> writes;
    double lateness_ns = 0;
    for (int i = 0; i < kSegments; ++i) {
      ServedPhase::Result r = phase.Run(ctx.seconds / kSegments,
                                        kInsertsPerRun / kSegments, true,
                                        nullptr, &out);
      segments.push_back({r.merged.qps(), r.merged.reads, r.rss_mb});
      writes.push_back(r.merged.writes);
      for (const ConnStats& st : r.stats) lateness_ns += st.insert_lateness_ns;
    }
    AddEndToEnd(spec, setup_s, segments, writes, &out);
    // How late the paced inserts were sent, on average.
    out.record.push_back({"insert_lateness_ms",
                          JsonNumber(lateness_ns / 1e6 / kInsertsPerRun)});
    fs::remove_all(ctx.work_dir);
    return out;
  }

  // Traced run: one server untraced (the baseline of the tracing overhead
  // and of CPU use), one through RawClient with spans.
  ServedPhase::Result base =
      phase.Run(ctx.seconds / 2, kInsertsPerRun / 2, false, nullptr, &out);
  std::vector<Tracer> tracers;
  for (int i = 0; i < spec.clients; ++i) tracers.emplace_back(i + 1);
  ServedPhase::Result traced =
      phase.Run(ctx.seconds / 2, kInsertsPerRun / 2, false, &tracers, &out);
  Tracer spans;  // the traced connections' spans, then the replicas'
  for (Tracer& t : tracers) spans.Absorb(std::move(t));
  const std::vector<ConnStats>& traced_stats = traced.stats;
  int64_t inserts = static_cast<int64_t>(traced.merged.writes.size());
  int64_t wal_growth = traced.wal_bytes;

  std::vector<int> reads = ReadClasses(spec);
  PrintLedger(spans.spans(), "statement", spec, AllClasses(spec));

  // In-process replicas of the served reads at the same scale and seed
  // attribute the server's time to the engine's layers.
  Tracer replica_tr(0);
  CoreCounter counter(spec.classes.size());
  int64_t replica_stmt = 0;
  int64_t replica_deadline = NowNs() + 1'000'000'000;
  for (int round = 0; round < 3 || NowNs() < replica_deadline; ++round) {
    for (int c : reads) {
      const StmtClass& sc = spec.classes[static_cast<size_t>(c)];
      for (int w = 0; w < sc.weight; ++w) {
        replica_tr.SetStatement(replica_stmt++, c);
        PipelineInfo info;
        Relation res;
        {
          SpanScope root(&replica_tr, "replica");
          res = TracedExecuteSql(&ref, sc.sql, &replica_tr, &info,
                                 counter.First(c));
        }
        ++out.attempted;
        const Reference& r = refs[static_cast<size_t>(c)];
        if (!(DigestOf(res, r) == r.digest)) ++out.failed;
        counter.Add(&ref, c, res, info);
      }
    }
  }
  PrintLedger(replica_tr.spans(), "replica", spec, reads);
  AddCoreLayerMetrics(replica_tr.spans(), "replica", reads, counter.counts(),
                      &out.per_layer);
  AddBuildMetric(setup_tr.spans(), 1, &out.per_layer);
  out.per_layer.push_back({"exec.cpu_util", base.cpu_s / base.merged.wall_s, "ratio",
                           "fdb_server CPU s / wall s, untraced half"});
  out.per_layer.push_back(
      {"exec.threads",
       static_cast<double>(exec::TaskPool::Default().num_threads()), "count",
       "TaskPool threads (the server inherits the same environment)"});

  std::map<std::string, LayerTime> served;
  for (int c : reads) {
    for (const auto& [k, lt] : Ledger(spans.spans(), "statement", c)) {
      served[k].self_ns += lt.self_ns;
      served[k].incl_ns += lt.incl_ns;
      served[k].count += lt.count;
    }
  }
  double n = static_cast<double>(std::max<int64_t>(served["statement"].count, 1));
  int64_t traced_reads = 0, first_rows = 0;
  double first_row_ns = 0, mem = 0;
  for (const ConnStats& s : traced_stats) {
    traced_reads += s.traced_reads;
    first_rows += s.first_rows;
    first_row_ns += s.first_row_ns;
    mem += s.mem_charged;
  }
  out.per_layer.push_back({"serve.queue_wait_us",
                           static_cast<double>(served["statement/queue_wait"].incl_ns) / 1e3 / n,
                           "us", "admission wait from Done frames, mean per read"});
  out.per_layer.push_back({"serve.server_us",
                           static_cast<double>(served["statement/server"].incl_ns) / 1e3 / n,
                           "us", "server time from Done frames, mean per read"});
  out.per_layer.push_back({"serve.wire_us",
                           static_cast<double>(served["statement"].self_ns) / 1e3 / n,
                           "us", "client latency - server - queue wait, mean per read"});
  out.per_layer.push_back({"serve.first_row_us",
                           first_row_ns / 1e3 / static_cast<double>(std::max<int64_t>(first_rows, 1)),
                           "us", "query sent -> first Row frame, mean per read"});
  AddEncodeMetrics(ref.registry(), spec, [&](const std::string& sql) {
    return FdbEngine(&ref).ExecuteSql(sql).flat;
  }, &out.per_layer);
  out.per_layer.push_back({"serve.mem_charged_kb",
                           mem / 1024.0 / static_cast<double>(std::max<int64_t>(traced_reads, 1)),
                           "KiB", "arena bytes charged, from Done frames, mean per read"});

  // Storage probes on a private copy of the snapshot: open it, then bind a
  // WAL and time autocommit inserts. A write's Done frame carries no server
  // time, so the WAL commit is measured in process.
  std::string probe = ctx.work_dir + "/probe.fdbs";
  fs::copy_file(pristine, probe);
  std::vector<double> open_ms, commit_us;
  for (int i = 0; i < 5; ++i) {
    int64_t t0 = NowNs();
    Database d = Database::Open(probe);
    open_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  for (const StmtClass& sc : spec.classes) {
    if (!sc.write) continue;
    Database d = Database::Open(probe);
    d.EnableWal(probe);
    for (int i = 0; i < 100; ++i) {
      int64_t t0 = NowNs();
      d.Insert(sc.sql, WriteRow(i, ctx.seed));
      commit_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
  }
  out.per_layer.push_back({"storage.open_ms", Median(open_ms), "ms",
                           "Database::Open of the snapshot, median of 5"});
  out.per_layer.push_back({"storage.wal_commit_us", Median(commit_us), "us",
                           "autocommit Insert with a bound WAL, in process, median of 100"});
  out.per_layer.push_back({"storage.wal_bytes_per_write",
                           static_cast<double>(wal_growth) /
                               static_cast<double>(std::max<int64_t>(inserts, 1)),
                           "bytes", "WAL file growth / acknowledged writes"});
  out.per_layer.push_back({"trace.overhead_frac",
                           base.merged.qps() / traced.merged.qps() - 1,
                           "ratio", "untraced qps / traced qps - 1"});
  spans.Absorb(std::move(replica_tr));
  WriteChromeTrace(ctx.trace_path, spans.spans(), ClassNames(spec));
  fs::remove_all(ctx.work_dir);
  return out;
}

}  // namespace perfbench
