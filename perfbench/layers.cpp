#include "layers.h"

#include <chrono>
#include <cstring>
#include <latch>
#include <thread>

#include "core/receiver.h"
#include "msgpack/batch_codec.h"
#include "obs/trace.h"
#include "tfrecord/shard_index.h"

namespace perfbench {

using emlio::Payload;
using emlio::obs::now_ns;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Accepts every message with no wire behind it (the daemon side alone). It
/// keeps what it is sent until take(), so the receiver side can replay it,
/// and drops everything after.
class DiscardSink final : public emlio::net::MessageSink {
 public:
  bool send(Payload message) override {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    if (keep_) kept_.push_back(std::move(message));
    return true;
  }
  void close() override {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  /// Stop keeping; returns what was kept.
  std::vector<Payload> take() {
    std::lock_guard<std::mutex> lock(mu_);
    keep_ = false;
    return std::move(kept_);
  }

 private:
  std::mutex mu_;
  bool keep_ = true;
  bool closed_ = false;
  std::vector<Payload> kept_;
};

/// Hands out a fixed list of pre-encoded messages once, then ends the stream
/// (the receiver side with no wire and no daemon).
class ReplaySource final : public emlio::net::MessageSource {
 public:
  explicit ReplaySource(std::shared_ptr<const std::vector<Payload>> messages)
      : messages_(std::move(messages)) {}
  std::optional<Payload> recv() override {
    if (closed_.load(std::memory_order_acquire) || next_ >= messages_->size()) {
      return std::nullopt;
    }
    return (*messages_)[next_++];
  }
  void close() override { closed_.store(true, std::memory_order_release); }

 private:
  std::shared_ptr<const std::vector<Payload>> messages_;
  std::size_t next_ = 0;  // recv() runs on one ingest thread only
  std::atomic<bool> closed_{false};
};

emlio::core::Planner make_planner(const Workload& w,
                                  const std::vector<emlio::tfrecord::ShardIndex>& indexes,
                                  std::uint64_t seed) {
  emlio::core::PlannerConfig pc;
  pc.batch_size = w.batch_size;
  pc.seed = seed;
  return emlio::core::Planner(indexes, pc);
}

/// Repeat `pass` (which returns the payload bytes it covered) until at least
/// `budget_s` has passed; returns GB/s.
template <typename Pass>
double gb_per_s(double budget_s, Pass&& pass) {
  double bytes = 0;
  auto t0 = Clock::now();
  do {
    bytes += static_cast<double>(pass());
  } while (seconds_since(t0) < budget_s);
  return bytes / seconds_since(t0) / 1e9;
}

}  // namespace

bool TimedSink::send(Payload message) {
  auto t0 = now_ns();
  bool ok = inner_->send(std::move(message));
  hist_->record(now_ns() - t0);
  return ok;
}

std::optional<Payload> TimedSource::recv() {
  auto t0 = now_ns();
  auto message = inner_->recv();
  hist_->record(now_ns() - t0);
  return message;
}

bool EpochGate::begin(std::uint32_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch > limit_) return false;
  if (static_cast<std::int64_t>(epoch) > highest_) highest_ = epoch;
  return true;
}

void EpochGate::stop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (limit_ != std::numeric_limits<std::uint32_t>::max()) return;
  limit_ = highest_ < 0 ? 0 : static_cast<std::uint32_t>(highest_);
}

std::uint64_t EpochGate::epochs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::uint64_t>(limit_) + 1;
}

void serve_epochs(emlio::core::Daemon& daemon, const emlio::core::Planner& planner,
                  EpochGate& gate, std::uint32_t first) {
  for (std::uint32_t e = first; gate.begin(e); ++e) {
    if (!daemon.serve_epoch(planner.plan_epoch(e, 1))) {
      gate.stop();
      return;
    }
  }
}

Isolation isolate(const Workload& w, const std::string& dir, std::uint64_t seed,
                  double budget_s, std::vector<std::string>& errors) {
  Isolation out;
  auto indexes = emlio::tfrecord::load_all_indexes(dir);
  auto planner = make_planner(w, indexes, seed);

  // Daemons alone: cold epoch 0 is captured for the replay below and is not
  // timed; the warm epochs after it are.
  std::vector<std::shared_ptr<DiscardSink>> sinks;
  std::vector<std::unique_ptr<emlio::core::Daemon>> daemons;
  for (std::size_t d = 0; d < w.num_daemons; ++d) {
    sinks.push_back(std::make_shared<DiscardSink>());
    daemons.push_back(std::make_unique<emlio::core::Daemon>(
        daemon_config(w, d, false), daemon_readers(w, indexes, d),
        std::map<std::uint32_t, std::shared_ptr<emlio::net::MessageSink>>{{0u, sinks[d]}}));
  }
  EpochGate gate;
  std::latch warm(static_cast<std::ptrdiff_t>(w.num_daemons));
  std::latch go(1);
  std::vector<std::thread> threads;
  for (std::size_t d = 0; d < w.num_daemons; ++d) {
    threads.emplace_back([&, d] {
      if (gate.begin(0) && !daemons[d]->serve_epoch(planner.plan_epoch(0, 1))) gate.stop();
      warm.count_down();
      go.wait();
      serve_epochs(*daemons[d], planner, gate, /*first=*/1);
    });
  }
  warm.wait();
  std::vector<std::shared_ptr<const std::vector<Payload>>> captured;
  std::uint64_t warm_samples = 0;
  for (std::size_t d = 0; d < w.num_daemons; ++d) {
    captured.push_back(std::make_shared<const std::vector<Payload>>(sinks[d]->take()));
    warm_samples += daemons[d]->stats().samples_sent;
  }
  auto t0 = Clock::now();
  go.count_down();
  std::this_thread::sleep_for(std::chrono::duration<double>(budget_s));
  gate.stop();
  for (auto& t : threads) t.join();
  double daemon_s = seconds_since(t0);
  std::uint64_t samples = 0;
  for (std::size_t d = 0; d < w.num_daemons; ++d) {
    if (!daemons[d]->ok()) errors.push_back("isolated daemon: " + daemons[d]->last_error());
    samples += daemons[d]->stats().samples_sent;
  }
  out.daemon_samples_per_s = static_cast<double>(samples - warm_samples) / daemon_s;
  daemons.clear();

  // Receiver alone: a fresh receiver per pass replays the captured epoch
  // (the epoch sequencer would drop a second copy of the same epoch).
  const std::uint64_t expected = planner.dataset_size();
  std::uint64_t replayed = 0;
  std::size_t passes = 0;
  t0 = Clock::now();
  do {
    std::vector<std::unique_ptr<emlio::net::MessageSource>> sources;
    for (const auto& c : captured) sources.push_back(std::make_unique<ReplaySource>(c));
    emlio::core::Receiver receiver(receiver_config(w, false), std::move(sources));
    std::uint64_t samples_this_pass = 0;
    std::size_t markers = 0;
    while (auto b = receiver.next()) {
      if (b->last) {
        ++markers;
      } else {
        samples_this_pass += b->samples.size();
      }
    }
    if (samples_this_pass != expected || markers != 1) {
      errors.push_back("replayed epoch delivered " + std::to_string(samples_this_pass) + " of " +
                       std::to_string(expected) + " samples and " + std::to_string(markers) +
                       " markers");
    }
    replayed += samples_this_pass;
    ++passes;
  } while (passes < 3 || seconds_since(t0) < budget_s);
  out.receiver_samples_per_s = static_cast<double>(replayed) / seconds_since(t0);
  return out;
}

Roofline probe(const Workload& w, const std::string& dir, std::uint64_t seed, double budget_s) {
  auto indexes = emlio::tfrecord::load_all_indexes(dir);
  auto planner = make_planner(w, indexes, seed);
  std::map<std::uint32_t, emlio::tfrecord::ShardReader> readers;
  for (const auto& index : indexes) readers.emplace(index.shard_id, index);

  std::vector<emlio::core::BatchAssignment> assignments;
  for (const auto& node : planner.plan_epoch(0, 1).nodes) {
    for (const auto& worker : node.workers) {
      assignments.insert(assignments.end(), worker.batches.begin(), worker.batches.end());
    }
  }
  // The epoch's batches as the daemon builds them: borrowed mmap views.
  std::vector<emlio::msgpack::WireBatch> batches;
  std::size_t largest = 0;
  for (const auto& a : assignments) {
    emlio::msgpack::WireBatch b;
    b.epoch = a.epoch;
    b.batch_id = a.batch_id;
    b.shard_id = a.shard_id;
    const auto& reader = readers.at(a.shard_id);
    auto views = reader.slice(a.first_record, a.count);
    for (std::size_t i = 0; i < views.size(); ++i) {
      const auto& entry = reader.index().records[a.first_record + i];
      b.samples.push_back({entry.sample_index, entry.label, views[i]});
    }
    largest = std::max(largest, b.payload_bytes());
    batches.push_back(std::move(b));
  }

  Roofline r;
  const double each = budget_s / 4;
  std::vector<std::uint8_t> dst(largest);
  volatile std::uint8_t sink = 0;
  r.memcpy_gb_per_s = gb_per_s(each, [&] {
    std::size_t bytes = 0;
    for (const auto& b : batches) {
      std::size_t off = 0;
      for (const auto& s : b.samples) {
        std::memcpy(dst.data() + off, s.bytes.data(), s.bytes.size());
        off += s.bytes.size();
      }
      sink = dst[off / 2];
      bytes += off;
    }
    return bytes;
  });
  r.slice_gb_per_s = gb_per_s(each, [&] {
    std::size_t bytes = 0;
    for (const auto& a : assignments) {
      for (const auto& v : readers.at(a.shard_id).slice(a.first_record, a.count)) {
        bytes += v.size();
      }
    }
    return bytes;
  });
  auto pool = emlio::BufferPool::create();
  r.encode_gb_per_s = gb_per_s(each, [&] {
    std::size_t bytes = 0;
    for (const auto& b : batches) {
      auto p = emlio::msgpack::BatchCodec::encode(b, *pool);
      sink = p.data()[p.size() / 2];
      bytes += b.payload_bytes();
    }
    return bytes;
  });
  std::vector<Payload> encoded;
  for (const auto& b : batches) encoded.push_back(emlio::msgpack::BatchCodec::encode(b, *pool));
  r.decode_gb_per_s = gb_per_s(each, [&] {
    std::size_t bytes = 0;
    for (const auto& p : encoded) bytes += emlio::msgpack::BatchCodec::decode(p).payload_bytes();
    return bytes;
  });
  return r;
}

}  // namespace perfbench
