#include "fdb/exec/task_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "fdb/exec/cancel.h"
#include "fdb/obs/log.h"
#include "fdb/obs/metrics.h"

namespace fdb {
namespace exec {
namespace {

// A single worker deque this deep marks the pool as saturated (the
// kPoolSaturation event's trigger).
constexpr size_t kSaturationDepth = 64;

// Pool-wide metrics (shared across Default() pool rebuilds — the registry
// outlives every pool instance).
obs::Counter& TasksRunCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "taskpool.tasks_run", "tasks", "tasks executed by pool workers");
  return c;
}

obs::Counter& StealsCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "taskpool.steals", "tasks", "tasks taken from another worker's deque");
  return c;
}

obs::Gauge& QueueDepthHwm() {
  static obs::Gauge& g = obs::Registry::Instance().GetGauge(
      "taskpool.queue_depth_hwm", "tasks",
      "high-water mark of a single worker deque");
  return g;
}

obs::Counter& IdleNsCounter() {
  static obs::Counter& c = obs::Registry::Instance().GetCounter(
      "taskpool.worker_idle_ns", "ns",
      "total time workers spent asleep waiting for work");
  return c;
}

int DefaultThreadCount() {
  if (const char* env = std::getenv("FDB_THREADS")) {
    int n = std::atoi(env);
    if (n >= 1) return n;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::mutex& DefaultPoolMutex() {
  static std::mutex* mu = new std::mutex();
  return *mu;
}

std::unique_ptr<TaskPool>& DefaultPoolSlot() {
  static std::unique_ptr<TaskPool>* slot = new std::unique_ptr<TaskPool>();
  return *slot;
}

// One ParallelFor invocation: chunks are claimed off `next_chunk`, so the
// partition is fixed by (n, grain) while the assignment of chunks to
// threads is dynamic. Helpers submitted to the pool may outlive the
// ParallelFor call (waking after every chunk is claimed); the shared_ptr
// keeps the job alive for them, and they touch `body` only while running
// a claimed chunk, which the caller's completion wait covers.
struct ForJob {
  const std::function<void(int, int64_t, int64_t)>* body = nullptr;
  CancelToken* token = nullptr;  // caller's token, re-installed per chunk
  int64_t n = 0;
  int64_t grain = 1;
  int64_t num_chunks = 0;
  std::atomic<int64_t> next_chunk{0};
  std::atomic<int64_t> done_chunks{0};
  std::atomic<int> next_part{0};
  std::mutex mu;
  std::condition_variable cv;
  bool all_done = false;
  std::exception_ptr error;

  void RunChunks() {
    int part = -1;
    for (;;) {
      int64_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      if (part < 0) part = next_part.fetch_add(1, std::memory_order_relaxed);
      int64_t lo = c * grain;
      int64_t hi = std::min(n, lo + grain);
      // A tripped token short-circuits remaining chunks: they are still
      // claimed and counted (the completion wait needs every chunk
      // accounted for) but their bodies never run. Check() also reads
      // the deadline, so limits hold however small the chunks are.
      if (token == nullptr || !token->cancelled()) {
        try {
          if (token != nullptr) token->Check();
          CancelScope scope(token);
          (*body)(part, lo, hi);
        } catch (...) {
          std::lock_guard<std::mutex> g(mu);
          if (error == nullptr) error = std::current_exception();
        }
      }
      if (done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          num_chunks) {
        std::lock_guard<std::mutex> g(mu);
        all_done = true;
        cv.notify_all();
      }
    }
  }
};

}  // namespace

TaskPool::TaskPool(int threads) {
  int workers = std::max(1, threads) - 1;
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskPool::~TaskPool() {
  {
    base::MutexLock g(&sleep_mu_);
    stop_ = true;
  }
  wake_.NotifyAll();
  for (std::thread& t : threads_) t.join();
}

TaskPool& TaskPool::Default() {
  std::lock_guard<std::mutex> g(DefaultPoolMutex());
  std::unique_ptr<TaskPool>& slot = DefaultPoolSlot();
  if (slot == nullptr) slot = std::make_unique<TaskPool>(DefaultThreadCount());
  return *slot;
}

void TaskPool::SetDefaultThreads(int threads) {
  std::lock_guard<std::mutex> g(DefaultPoolMutex());
  // Destroys the old pool first (joining its workers), then installs the
  // resized one — callers must have no parallel work in flight.
  DefaultPoolSlot() = nullptr;
  DefaultPoolSlot() = std::make_unique<TaskPool>(threads);
}

void TaskPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  unsigned w;
  {
    base::MutexLock g(&sleep_mu_);
    w = next_queue_++ % static_cast<unsigned>(workers_.size());
  }
  size_t depth;
  {
    base::MutexLock g(&workers_[w]->mu);
    workers_[w]->tasks.push_back(std::move(task));
    depth = workers_[w]->tasks.size();
    QueueDepthHwm().UpdateMax(static_cast<int64_t>(depth));
  }
  // Saturation event: a worker queue this deep means submitters are
  // outrunning the pool (the network-service admission layer's signal).
  // Rate-limited to one event per second so a saturated burst cannot
  // flood the ring.
  if (depth >= kSaturationDepth && obs::LogEnabled()) {
    static std::atomic<int64_t> last_emit_ns{0};
    int64_t now = obs::NowNs();
    int64_t last = last_emit_ns.load(std::memory_order_relaxed);
    if (now - last >= 1'000'000'000 &&
        last_emit_ns.compare_exchange_strong(last, now,
                                             std::memory_order_relaxed)) {
      obs::EventLog::Instance().Emit(
          obs::EventType::kPoolSaturation,
          {obs::F("queue_depth", depth),
           obs::F("workers", workers_.size())});
    }
  }
  {
    // Publish under the sleep lock: a worker between a failed sweep and
    // its wait re-evaluates pending_ there, so the wakeup cannot be lost.
    base::MutexLock g(&sleep_mu_);
    ++pending_;
  }
  wake_.NotifyOne();
}

bool TaskPool::RunOneTask(int self) {
  int w = static_cast<int>(workers_.size());
  std::function<void()> task;
  bool stolen = false;
  // Own deque from the back (LIFO: newest fork, hottest cache), then
  // sweep the other deques from the front (FIFO steal: oldest, largest
  // remaining work first).
  for (int i = 0; i < w && task == nullptr; ++i) {
    Worker& v = *workers_[(self + i) % w];
    base::MutexLock g(&v.mu);
    if (v.tasks.empty()) continue;
    if (i == 0) {
      task = std::move(v.tasks.back());
      v.tasks.pop_back();
    } else {
      task = std::move(v.tasks.front());
      v.tasks.pop_front();
      stolen = true;
    }
  }
  if (task == nullptr) return false;
  TasksRunCounter().Inc();
  if (stolen) StealsCounter().Inc();
  {
    base::MutexLock g(&sleep_mu_);
    --pending_;
  }
  task();
  return true;
}

void TaskPool::WorkerLoop(int self) {
  for (;;) {
    if (RunOneTask(self)) continue;
    int64_t idle_t0 = obs::MetricsEnabled() ? obs::NowNs() : -1;
    {
      base::MutexLock lk(&sleep_mu_);
      // pending_ > 0 covers the race where a task landed after our failed
      // sweep: the predicate is re-evaluated under the lock Submit
      // publishes under, so sleeps never miss work and idle workers wake
      // only on notify (no polling).
      while (!stop_ && pending_ <= 0) wake_.Wait(sleep_mu_);
      if (stop_) return;
    }
    if (idle_t0 >= 0) {
      IdleNsCounter().Inc(static_cast<uint64_t>(obs::NowNs() - idle_t0));
    }
  }
}

void TaskPool::ParallelFor(
    int64_t n, int64_t grain,
    const std::function<void(int part, int64_t lo, int64_t hi)>& body) {
  if (n <= 0) return;
  grain = std::max<int64_t>(1, grain);
  auto job = std::make_shared<ForJob>();
  job->body = &body;
  job->token = CurrentCancelToken();
  job->n = n;
  job->grain = grain;
  job->num_chunks = (n + grain - 1) / grain;
  int helpers = std::min<int64_t>(static_cast<int64_t>(workers_.size()),
                                  job->num_chunks - 1);
  for (int i = 0; i < helpers; ++i) {
    Submit([job] { job->RunChunks(); });
  }
  job->RunChunks();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(job->mu);
    job->cv.wait(lk, [&] { return job->all_done; });
    // Taken out of the job so the exception is released on this thread,
    // not by whichever helper drops the last job reference.
    error = std::move(job->error);
  }
  if (error != nullptr) std::rethrow_exception(error);
}

int64_t TaskPool::ApproxPendingTasks() const {
  base::MutexLock g(&sleep_mu_);
  return pending_;
}

int ParallelForOrSerial(
    int64_t n, int64_t grain, int64_t min_n,
    const std::function<void(int, int64_t, int64_t)>& body) {
  TaskPool& pool = TaskPool::Default();
  int threads = pool.num_threads();
  if (threads > 1 && n >= min_n) {
    pool.ParallelFor(n, grain, body);
    return threads;
  }
  grain = std::max<int64_t>(1, grain);
  // Same chunk boundaries as the parallel path, executed in order on the
  // caller: chunk-ordered reductions give identical results either way.
  for (int64_t lo = 0; lo < n; lo += grain) {
    body(0, lo, std::min(n, lo + grain));
  }
  return 1;
}

}  // namespace exec
}  // namespace fdb
