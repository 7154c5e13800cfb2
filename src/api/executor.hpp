#pragma once
// Job executors: every Study runs its job DAG on one, so a host process can
// run many Studies on one shared thread pool.
//
// The Study runner only needs fire-and-forget submission — DAG ordering is
// the runner's own bookkeeping (a job is submitted only once its
// dependencies finished), and completion is observed through the submitted
// closures themselves. Tasks never block on other tasks, so any pool of
// width >= 1 makes progress and several concurrent Studies can interleave
// their jobs on the same workers without deadlock.
//
// SharedPool is the production implementation: a Study given no executor
// runs on a local one, and the serve daemon shares one across all
// concurrent requests.

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace netsmith::api {

class JobExecutor {
 public:
  virtual ~JobExecutor() = default;

  // Enqueues `task` to run on some worker thread, at some later point.
  // Must not run the task inline (the caller may hold locks) and must not
  // drop it: every submitted task is eventually executed.
  virtual void submit(std::function<void()> task) = 0;
  // Worker count, for pool-width provenance; 0 = unknown.
  virtual int width() const { return 0; }
};

// Fixed-width worker pool. submit() enqueues and never runs inline; the
// destructor drains every queued task, then joins. Width governs study
// parallelism for every study sharing it.
class SharedPool final : public JobExecutor {
 public:
  // width <= 0 picks hardware concurrency (min 1).
  explicit SharedPool(int width = 0);
  ~SharedPool() override;
  SharedPool(const SharedPool&) = delete;
  SharedPool& operator=(const SharedPool&) = delete;

  void submit(std::function<void()> task) override;
  int width() const override { return static_cast<int>(workers_.size()); }

 private:
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace netsmith::api
