#include "common/parallel.h"

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/telemetry.h"
#include "common/trace_events.h"

namespace stemroot {

namespace {

/// Explicit override from SetNumThreads (0 = auto).
std::atomic<int> g_num_threads{0};

/// > 0 while the calling thread is executing ParallelFor chunks.
thread_local int tls_region_depth = 0;
/// Set for the lifetime of pool worker threads.
thread_local bool tls_pool_worker = false;

int ThreadsFromEnv() {
  const char* value = std::getenv("STEMROOT_THREADS");
  if (value == nullptr || *value == '\0') return 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == nullptr || *end != '\0' || parsed <= 0 || parsed > 4096)
    return 0;  // unparseable / out of range: fall through to hardware
  return static_cast<int>(parsed);
}

}  // namespace

void SetNumThreads(int n) {
  if (n < 0)
    throw std::invalid_argument("SetNumThreads: n must be >= 0 (0 = auto)");
  g_num_threads.store(n, std::memory_order_relaxed);
}

int NumThreads() {
  const int explicit_n = g_num_threads.load(std::memory_order_relaxed);
  if (explicit_n > 0) return explicit_n;
  const int env_n = ThreadsFromEnv();
  if (env_n > 0) return env_n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

bool InParallelRegion() { return tls_pool_worker || tls_region_depth > 0; }

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(static_cast<size_t>(NumThreads() - 1));
  return pool;
}

ThreadPool::ThreadPool(size_t num_workers) { Start(num_workers); }

ThreadPool::~ThreadPool() { StopAndJoin(); }

void ThreadPool::Start(size_t num_workers) {
  queues_.clear();
  queues_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i)
    queues_.push_back(std::make_unique<WorkerQueue>());
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stopping_ = false;
  }
  threads_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i)
    threads_.emplace_back([this, i] { WorkerLoop(i); });
}

void ThreadPool::StopAndJoin() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stopping_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

void ThreadPool::Submit(std::function<void()> task) {
  // The queue push and the pending count must change together under the
  // structural lock: Resize drains by joining workers once pending_ hits
  // zero, so a push that became visible before its count (or vice versa)
  // could strand a task in a queue about to be destroyed.
  std::lock_guard<std::mutex> structural(structural_mu_);
  if (queues_.empty())
    throw std::logic_error("ThreadPool::Submit: pool has no workers");
  const size_t slot =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[slot]->mu);
    queues_[slot]->tasks.push_back(std::move(task));
  }
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    ++pending_;
  }
  wake_cv_.notify_one();
}

void ThreadPool::Resize(size_t num_workers) {
  std::lock_guard<std::mutex> structural(structural_mu_);
  if (num_workers == threads_.size()) return;
  StopAndJoin();  // drains every pending task before the old workers exit
  Start(num_workers);
}

size_t ThreadPool::NumWorkers() const {
  std::lock_guard<std::mutex> structural(structural_mu_);
  return threads_.size();
}

std::function<void()> ThreadPool::TryPop(size_t self) {
  // Own queue first, LIFO (most recently pushed: cache-warm).
  {
    std::lock_guard<std::mutex> lock(queues_[self]->mu);
    if (!queues_[self]->tasks.empty()) {
      std::function<void()> task = std::move(queues_[self]->tasks.back());
      queues_[self]->tasks.pop_back();
      return task;
    }
  }
  // Steal FIFO from siblings (oldest task: largest remaining granularity).
  for (size_t k = 1; k < queues_.size(); ++k) {
    const size_t victim = (self + k) % queues_.size();
    std::lock_guard<std::mutex> lock(queues_[victim]->mu);
    if (!queues_[victim]->tasks.empty()) {
      std::function<void()> task = std::move(queues_[victim]->tasks.front());
      queues_[victim]->tasks.pop_front();
      return task;
    }
  }
  return nullptr;
}

void ThreadPool::WorkerLoop(size_t self) {
  tls_pool_worker = true;
  while (true) {
    std::function<void()> task = TryPop(self);
    if (task) {
      {
        std::lock_guard<std::mutex> lock(wake_mu_);
        --pending_;
      }
      task();
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [this] { return stopping_ || pending_ > 0; });
    if (stopping_ && pending_ == 0) return;
  }
}

namespace {

/// Shared per-ParallelFor state. Heap-allocated (shared_ptr) so helper
/// tasks that start after the fast lanes already finished the range still
/// touch live memory; the caller nevertheless waits for every helper, so
/// `body` may be held by raw pointer.
struct ForState {
  std::atomic<size_t> next{0};
  size_t end = 0;
  size_t grain = 1;
  const std::function<void(size_t)>* body = nullptr;
  /// The caller's telemetry target, installed on every lane.
  telemetry::Target scope;

  std::atomic<bool> cancelled{false};
  std::mutex error_mu;
  std::exception_ptr error;

  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t helpers_left = 0;
};

/// Claim chunks from the shared cursor until the range (or the region, on
/// error) is exhausted. Runs on the caller thread and on every helper,
/// under the caller's telemetry scope, so the lanes' counters and spans
/// land where the caller's would.
void RunChunks(ForState& state) {
  const telemetry::Scope scope(state.scope);
  ++tls_region_depth;
  while (!state.cancelled.load(std::memory_order_acquire)) {
    const size_t start =
        state.next.fetch_add(state.grain, std::memory_order_relaxed);
    if (start >= state.end) break;
    const size_t stop = std::min(start + state.grain, state.end);
    // One begin/end pair per claimed chunk: `--trace` shows how the range
    // was carved up across lanes (schedule-dependent by nature, see the
    // determinism caveat in common/trace_events.h).
    trace_events::Scope chunk_scope("parallel.chunk");
    try {
      for (size_t i = start; i < stop; ++i) (*state.body)(i);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(state.error_mu);
        if (!state.error) state.error = std::current_exception();
      }
      state.cancelled.store(true, std::memory_order_release);
    }
  }
  --tls_region_depth;
}

/// Shared driver behind ParallelFor and ParallelLanes: the caller plus up
/// to `lanes - 1` pool helpers claim chunks of [begin, end) from one
/// atomic cursor. `exact_pool` keeps the global pool sized to exactly
/// `lanes - 1` workers (ParallelFor tracks SetNumThreads this way);
/// otherwise the pool only grows when it has too few workers for the
/// requested cap (ParallelLanes must not shrink a pool another region
/// relies on).
void RunRegion(size_t begin, size_t end, size_t grain, size_t lanes,
               const std::function<void(size_t)>& body, bool exact_pool) {
  const size_t n = end - begin;
  const size_t chunks = (n + grain - 1) / grain;
  const size_t helpers = std::min(lanes, chunks) - 1;

  auto state = std::make_shared<ForState>();
  state->next.store(begin, std::memory_order_relaxed);
  state->end = end;
  state->grain = grain;
  state->body = &body;
  state->scope = telemetry::Scope::Current();
  state->helpers_left = helpers;

  if (helpers > 0) {
    ThreadPool& pool = ThreadPool::Global();
    if (exact_pool ? pool.NumWorkers() + 1 != lanes
                   : pool.NumWorkers() < helpers)
      pool.Resize(exact_pool ? lanes - 1 : helpers);
    for (size_t h = 0; h < helpers; ++h) {
      pool.Submit([state] {
        RunChunks(*state);
        {
          std::lock_guard<std::mutex> lock(state->done_mu);
          --state->helpers_left;
        }
        state->done_cv.notify_one();
      });
    }
  }

  RunChunks(*state);

  if (helpers > 0) {
    std::unique_lock<std::mutex> lock(state->done_mu);
    state->done_cv.wait(lock, [&] { return state->helpers_left == 0; });
  }
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& body, size_t grain) {
  if (end <= begin) return;
  const size_t n = end - begin;
  const size_t threads = static_cast<size_t>(NumThreads());
  if (n == 1 || threads == 1 || InParallelRegion()) {
    for (size_t i = begin; i < end; ++i) body(i);
    return;
  }

  if (grain == 0) grain = std::max<size_t>(1, n / (threads * 8));
  RunRegion(begin, end, grain, threads, body, /*exact_pool=*/true);
}

void ParallelLanes(size_t lanes, size_t max_concurrency,
                   const std::function<void(size_t)>& body) {
  if (lanes == 0) return;
  const size_t cap = max_concurrency == 0
                         ? static_cast<size_t>(NumThreads())
                         : max_concurrency;
  if (lanes == 1 || cap == 1 || InParallelRegion()) {
    for (size_t i = 0; i < lanes; ++i) body(i);
    return;
  }
  RunRegion(0, lanes, /*grain=*/1, cap, body, /*exact_pool=*/false);
}

}  // namespace stemroot
