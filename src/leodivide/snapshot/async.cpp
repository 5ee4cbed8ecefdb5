#include "leodivide/snapshot/async.hpp"

#include "leodivide/obs/trace.hpp"

namespace leodivide::snapshot {

AsyncIo::AsyncIo() : io_thread_([this] { io_loop(); }) {}

AsyncIo::~AsyncIo() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  io_thread_.join();
}

void AsyncIo::enqueue_store(const StageCache& cache, std::string stage,
                            const Fingerprint& fp, std::string blob) {
  {
    std::lock_guard<std::mutex> lk(m_);
    queue_.push_back(Job{&cache, std::move(stage), fp, std::move(blob)});
  }
  work_cv_.notify_one();
}

void AsyncIo::drain() {
  std::unique_lock<std::mutex> lk(m_);
  idle_cv_.wait(lk, [this] { return queue_.empty() && !busy_; });
}

void AsyncIo::io_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lk(m_);
      work_cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      job = std::move(queue_.front());
      queue_.pop_front();
      busy_ = true;
    }
    {
      const obs::Span span("snapshot.async.store");
      job.cache->store(job.stage, job.fp, job.blob);
    }
    {
      std::lock_guard<std::mutex> lk(m_);
      busy_ = false;
      if (queue_.empty()) idle_cv_.notify_all();
    }
  }
}

}  // namespace leodivide::snapshot
