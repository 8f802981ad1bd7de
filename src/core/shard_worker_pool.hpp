#pragma once

/// \file shard_worker_pool.hpp
/// A small persistent worker pool for the speculative threaded shard
/// path: the sim thread fans a burst's per-shard sub-spans out as tasks,
/// workers run them against shard-local engine state, and the sim thread
/// joins before merging the journals (sharded_mafic_filter.hpp).
///
/// Shape: one batch in flight at a time. submit() publishes a task
/// function and a task count and wakes the workers; wait() has the
/// calling thread help drain the task index before blocking until every
/// task has finished. The pool is shared by all filters of an experiment
/// (bursts are serialized on the sim thread, so sharing is free), and
/// the threads persist across bursts — steady state costs two condvar
/// hops per burst, not a thread spawn per sub-span.
///
/// Memory ordering: everything a task reads (sub-spans, journals, the
/// sim clock) is written by the submitting thread before the mutex-
/// protected epoch publication, and everything it writes is read by the
/// submitter only after the mutex-protected completion wait — the
/// fan-out/join pair is the happens-before edge the whole threaded
/// datapath leans on (the TSan CI job checks it).
///
/// Destruction is safe with a batch still in flight: the destructor
/// finishes the pending batch (helping to drain it) before asking the
/// workers to stop, so in-flight sub-spans always complete.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mafic::core {

class ShardWorkerPool {
 public:
  /// Task callback: invoked once per task index in [0, n); any thread,
  /// any order, each index exactly once.
  using TaskFn = std::function<void(std::size_t)>;

  /// One entry of a heterogeneous task list (the fleet scheduler's
  /// per-tick batch: every (filter, shard) sub-span of the tick as its
  /// own task). A plain function pointer + context so building the list
  /// never allocates.
  struct Task {
    void (*run)(void* ctx, std::size_t arg) = nullptr;
    void* ctx = nullptr;
    std::size_t arg = 0;
  };

  /// Pool occupancy counters, accumulated across batches. Pure
  /// diagnostics (mutated only under the pool mutex; never read by task
  /// bodies), reported by the fleet bench tier.
  struct Occupancy {
    std::uint64_t submissions = 0;  ///< non-empty batches submitted
    std::uint64_t tasks = 0;        ///< tasks across all batches
    std::uint64_t max_tasks = 0;    ///< largest single batch
    /// Wall time summed over every thread's task executions (ns).
    std::uint64_t busy_ns = 0;
    /// Wall time summed over submit()->batch-complete windows (ns).
    std::uint64_t wall_ns = 0;

    double tasks_per_submission() const noexcept {
      return submissions == 0 ? 0.0
                              : double(tasks) / double(submissions);
    }
    /// Fraction of (`workers` + 1) x wall-clock capacity spent inside
    /// task bodies. The submitting thread helps drain, so it counts as
    /// capacity too, and the fraction never exceeds 1.0.
    double busy_fraction(std::size_t workers) const noexcept {
      return wall_ns == 0 || workers == 0
                 ? 0.0
                 : double(busy_ns) / (double(workers + 1) * double(wall_ns));
    }
  };

  /// Spawns `workers` persistent threads (at least 1).
  explicit ShardWorkerPool(std::size_t workers);

  /// Completes any in-flight batch, then stops and joins the workers.
  ~ShardWorkerPool();

  ShardWorkerPool(const ShardWorkerPool&) = delete;
  ShardWorkerPool& operator=(const ShardWorkerPool&) = delete;

  std::size_t worker_count() const noexcept { return threads_.size(); }

  /// Publishes a batch of `n` tasks and wakes the workers. At most one
  /// batch may be in flight; call wait() before the next submit().
  void submit(TaskFn fn, std::size_t n);

  /// Heterogeneous batch: task index i runs tasks[i].run(ctx, arg). The
  /// array must stay alive and unchanged until wait() returns. Same
  /// one-batch-in-flight contract as submit(TaskFn, n).
  void submit(const Task* tasks, std::size_t n);

  /// Occupancy counters snapshot (consistent; taken under the lock).
  Occupancy occupancy() const;

  /// Drains remaining task indices on the calling thread, then blocks
  /// until every task (including those running on workers) has finished.
  /// No-op when no batch is in flight.
  void wait();

 private:
  void worker_loop();
  /// Claims and runs task indices until the batch's index space is
  /// exhausted; returns the number of tasks this thread completed.
  std::size_t drain_tasks();
  /// Shared publication path of both submit overloads; call under no
  /// lock with exactly one of fn/tasks set.
  void publish(TaskFn fn, const Task* tasks, std::size_t n);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait for a new epoch
  std::condition_variable done_cv_;  ///< wait() blocks on completion

  // Batch state, all guarded by mu_ (task *bodies* run unlocked).
  TaskFn fn_;
  const Task* tasks_ = nullptr;  ///< heterogeneous batch, else nullptr
  std::size_t n_tasks_ = 0;
  std::size_t next_task_ = 0;
  std::size_t finished_ = 0;
  std::uint64_t epoch_ = 0;
  bool batch_open_ = false;
  bool stop_ = false;
  Occupancy occupancy_;
  std::uint64_t batch_start_ns_ = 0;  ///< steady-clock stamp at submit

  std::vector<std::thread> threads_;
};

}  // namespace mafic::core
