// Benchmark-owned pieces that measure single layers: timed transport
// endpoints, the epoch gate that stops daemons together, the layer-isolation
// phase (each engine with the other side removed) and the roofline probe.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/daemon.h"
#include "core/planner.h"
#include "net/channel.h"
#include "obs/latency_histogram.h"
#include "workload.h"

namespace perfbench {

/// Times every send() into a shared histogram: how long the daemon's sender
/// blocks on the transport (socket queue, slab pool, link HWM).
class TimedSink final : public emlio::net::MessageSink {
 public:
  TimedSink(std::shared_ptr<emlio::net::MessageSink> inner,
            std::shared_ptr<emlio::obs::LatencyHistogram> hist)
      : inner_(std::move(inner)), hist_(std::move(hist)) {}
  bool send(emlio::Payload message) override;
  void close() override { inner_->close(); }
  std::uint64_t data_syscalls() const override { return inner_->data_syscalls(); }

 private:
  std::shared_ptr<emlio::net::MessageSink> inner_;
  std::shared_ptr<emlio::obs::LatencyHistogram> hist_;
};

/// Times every recv(): how long the receiver's ingest thread waits for the
/// transport to hand over the next message.
class TimedSource final : public emlio::net::MessageSource {
 public:
  TimedSource(std::unique_ptr<emlio::net::MessageSource> inner,
              std::shared_ptr<emlio::obs::LatencyHistogram> hist)
      : inner_(std::move(inner)), hist_(std::move(hist)) {}
  std::optional<emlio::Payload> recv() override;
  void close() override { inner_->close(); }
  emlio::net::SourceEnd end_state() const override { return inner_->end_state(); }

 private:
  std::unique_ptr<emlio::net::MessageSource> inner_;
  std::shared_ptr<emlio::obs::LatencyHistogram> hist_;
};

/// Lets daemons serve epochs until told to stop, and makes every daemon stop
/// after the same epoch, so that no epoch is left with only some senders'
/// batches.
class EpochGate {
 public:
  /// May a daemon start `epoch`?
  bool begin(std::uint32_t epoch);
  /// Stop after the highest epoch any daemon has started. Later calls keep
  /// the first limit.
  void stop();
  /// Epochs every daemon serves once stopped.
  std::uint64_t epochs() const;

 private:
  mutable std::mutex mu_;
  std::uint32_t limit_ = std::numeric_limits<std::uint32_t>::max();
  std::int64_t highest_ = -1;
};

/// Serve epochs first, first+1, ... of `planner` (one compute node) until
/// the gate stops; a failed epoch stops the gate too.
void serve_epochs(emlio::core::Daemon& daemon, const emlio::core::Planner& planner,
                  EpochGate& gate, std::uint32_t first = 0);

struct Isolation {
  double daemon_samples_per_s = 0;
  double receiver_samples_per_s = 0;
};

/// Layer isolation: the workload's daemons serving into discard sinks, then
/// its receiver decoding one epoch's captured payloads replayed from memory.
/// Engine and replay failures are appended to `errors`.
Isolation isolate(const Workload& w, const std::string& dir, std::uint64_t seed,
                  double budget_s, std::vector<std::string>& errors);

struct Roofline {
  double memcpy_gb_per_s = 0;
  double slice_gb_per_s = 0;
  double encode_gb_per_s = 0;
  double decode_gb_per_s = 0;
};

/// Single-threaded ceilings over one epoch of the workload's own batches:
/// memcpy of the sample bytes, ShardReader::slice, BatchCodec::encode into a
/// BufferPool and BatchCodec::decode, each in payload GB/s.
Roofline probe(const Workload& w, const std::string& dir, std::uint64_t seed, double budget_s);

}  // namespace perfbench
