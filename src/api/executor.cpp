#include "api/executor.hpp"

#include <algorithm>

namespace netsmith::api {

SharedPool::SharedPool(int width) {
  if (width <= 0)
    width = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  workers_.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    workers_.emplace_back([this] {
      for (;;) {
        std::function<void()> task;
        {
          std::unique_lock<std::mutex> lk(mu_);
          cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
          if (queue_.empty()) return;  // stop requested and fully drained
          task = std::move(queue_.front());
          queue_.pop_front();
        }
        task();
      }
    });
  }
}

SharedPool::~SharedPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void SharedPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

}  // namespace netsmith::api
