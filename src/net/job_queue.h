// Priority job queue for the serving fronts' connection core
// (net/frame_server.h).
//
// Jobs carry a signed priority (higher drains first; equal priorities
// drain FIFO by arrival) and an optional absolute deadline. The queue
// itself never drops a job: runners pop in priority order and are
// expected to call `expire` instead of `run` on jobs whose deadline
// passed before execution started — an expired job is REJECTED WITH A
// DISTINCT STATUS (kDeadlineExceeded), never silently discarded, so the
// client always learns the fate of its request. Deadlines are checked at
// execution start only; a job that starts in time runs to completion.
//
// The queue is bounded (max_queued); Push fails on a full queue or after
// Shutdown, and the caller answers kQueueFull / kShuttingDown. Shutdown
// leaves already-queued jobs in place — Pop keeps returning them until
// the queue drains (the server's runners drain it before joining, so
// every admitted job is answered). This is the one queue a wire job
// waits in: a runner runs a SessionManager job on its own thread.

#ifndef BLINKML_NET_JOB_QUEUE_H_
#define BLINKML_NET_JOB_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <vector>

namespace blinkml {
namespace net {

class JobQueue {
 public:
  using SteadyTime = std::chrono::steady_clock::time_point;

  struct Job {
    std::int32_t priority = 0;
    /// Valid iff has_deadline; absolute (steady clock).
    SteadyTime deadline{};
    bool has_deadline = false;
    /// Stamped by the producer at admission; the runner derives the
    /// queue-wait span / histogram from it (observability only).
    SteadyTime enqueued{};
    /// Executes the job and writes its response.
    std::function<void()> run;
    /// Rejects the job with kDeadlineExceeded (called instead of run when
    /// the deadline passed before execution).
    std::function<void()> expire;
  };

  /// max_queued == 0 means unbounded.
  explicit JobQueue(std::size_t max_queued = 0) : max_queued_(max_queued) {}

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// False when the queue is full or shut down (the job was NOT taken).
  bool Push(Job job);

  /// Blocks for the next job in (priority desc, arrival asc) order.
  /// Returns false only after Shutdown() once the queue is empty.
  bool Pop(Job* out);

  /// True when the job's deadline passed (check before running).
  static bool Expired(const Job& job) {
    return job.has_deadline && std::chrono::steady_clock::now() > job.deadline;
  }

  /// Rejects new pushes and wakes every blocked Pop; queued jobs still
  /// drain.
  void Shutdown();

  std::size_t size() const;

 private:
  // A hand-rolled heap instead of std::priority_queue: top() returns a
  // const reference, which cannot move the popped Job's closures out.
  struct Entry {
    std::int32_t priority;
    std::uint64_t seq;
    Job job;
  };
  struct EntryLess {
    bool operator()(const Entry& a, const Entry& b) const {
      // Max-heap on priority, min on seq (FIFO within a priority).
      if (a.priority != b.priority) return a.priority < b.priority;
      return a.seq > b.seq;
    }
  };

  const std::size_t max_queued_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Entry> heap_;
  std::uint64_t next_seq_ = 0;
  bool shutdown_ = false;
};

}  // namespace net
}  // namespace blinkml

#endif  // BLINKML_NET_JOB_QUEUE_H_
