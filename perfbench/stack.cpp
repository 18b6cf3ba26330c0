#include "stack.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "core/planner.h"
#include "layers.h"
#include "net/push_pull.h"
#include "net/shm_channel.h"
#include "obs/trace.h"

namespace perfbench {

using emlio::obs::now_ns;

// ------------------------------------------------------------ delivery check

DeliveryChecker::DeliveryChecker(const std::vector<emlio::tfrecord::ShardIndex>& indexes) {
  std::size_t total = 0;
  for (const auto& index : indexes) total += index.records.size();
  locs_.resize(total);
  std::vector<bool> placed(total, false);
  for (const auto& index : indexes) {
    auto reader = static_cast<std::uint32_t>(readers_.size());
    readers_.emplace_back(index);
    for (std::size_t i = 0; i < index.records.size(); ++i) {
      const auto& r = index.records[i];
      if (r.sample_index >= total || placed[r.sample_index]) {
        throw std::runtime_error("dataset sample indexes are not 0..N-1 exactly once");
      }
      placed[r.sample_index] = true;
      locs_[r.sample_index] = {reader, index.shard_id, static_cast<std::uint32_t>(i), r.label};
    }
  }
  seen_.assign(total, 0);
  bad_.assign(total, 0);
}

void DeliveryChecker::note(const std::string& what) {
  if (errors_.size() < 8) errors_.push_back(what);
}

void DeliveryChecker::fail(const std::string& what) { note(what); }

void DeliveryChecker::batch(const emlio::msgpack::WireBatch& batch, std::uint32_t epoch,
                            bool verify_bytes) {
  for (const auto& s : batch.samples) {
    if (s.index >= locs_.size()) {
      ++stray_;
      note("sample index " + std::to_string(s.index) + " is not in the dataset");
      continue;
    }
    const Loc& loc = locs_[s.index];
    if (seen_[s.index] < 255) ++seen_[s.index];
    bool ok = batch.epoch == epoch && batch.shard_id == loc.shard_id && s.label == loc.label;
    if (ok && verify_bytes) {
      auto record = readers_[loc.reader].record(loc.record);
      ok = record.size() == s.bytes.size() &&
           std::memcmp(record.data(), s.bytes.data(), record.size()) == 0;
      bytes_verified_ += record.size();
    }
    if (!ok) bad_[s.index] = 1;
  }
}

void DeliveryChecker::end_epoch() {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < seen_.size(); ++i) failed += (seen_[i] != 1 || bad_[i] != 0);
  if (failed) note(std::to_string(failed) + " samples failed in one epoch");
  attempted_ += seen_.size();
  failed_ += failed + std::exchange(stray_, 0);
  std::fill(seen_.begin(), seen_.end(), 0);
  std::fill(bad_.begin(), bad_.end(), 0);
}

void DeliveryChecker::missing_epochs(std::uint64_t epochs) {
  if (epochs == 0) return;
  note(std::to_string(epochs) + " planned epochs never completed");
  attempted_ += epochs * seen_.size();
  failed_ += epochs * seen_.size();
}

// ------------------------------------------------------------ one repetition

namespace {

struct Endpoints {
  std::vector<std::shared_ptr<emlio::net::MessageSink>> sinks;
  std::vector<std::unique_ptr<emlio::net::MessageSource>> sources;
};

Endpoints make_endpoints(const Workload& w, std::uint64_t seed) {
  static std::atomic<unsigned> shm_serial{0};
  Endpoints e;
  for (std::size_t d = 0; d < w.num_daemons; ++d) {
    switch (w.transport) {
      case Transport::kTcp: {
        auto pull = std::make_unique<emlio::net::PullSocket>(0, /*queue_capacity=*/16,
                                                             /*expected_senders=*/1);
        emlio::net::PushPullOptions opts;
        opts.num_streams = 1;
        e.sinks.push_back(
            std::make_shared<emlio::net::PushSocket>("127.0.0.1", pull->port(), opts));
        e.sources.push_back(std::move(pull));
        break;
      }
      case Transport::kShm: {
        auto name = "emlio.perfbench." + std::to_string(::getpid()) + "." +
                    std::to_string(shm_serial.fetch_add(1));
        e.sinks.push_back(std::make_shared<emlio::net::ShmMessageSink>(name));
        e.sources.push_back(std::make_unique<emlio::net::ShmMessageSource>(name));
        break;
      }
      case Transport::kSim: {
        auto ch = emlio::net::make_sim_channel(link_config(w, seed, d));
        e.sinks.push_back(std::move(ch.sink));
        e.sources.push_back(std::move(ch.source));
        break;
      }
    }
  }
  return e;
}

double ms(double ns) { return ns / 1e6; }

/// Counters read at both edges of the timed window (traced repetitions).
struct Counters {
  rusage usage{};
  std::uint64_t samples_sent = 0, batches_sent = 0, records_read = 0;
  std::uint64_t enqueue_stalls = 0, sender_stalls = 0, wire_syscalls = 0;
  std::uint64_t pool_allocated = 0, pool_reused = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  std::uint64_t rx_batches = 0, rx_wire_bytes = 0, decode_ns = 0;
  std::uint64_t decode_stalls = 0, resequence_stalls = 0;
  emlio::obs::LatencyHistogram::Snapshot send, recv;
};

double cpu_seconds(const rusage& u) {
  auto s = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return s(u.ru_utime) + s(u.ru_stime);
}

Counters read_counters(const std::vector<std::unique_ptr<emlio::core::Daemon>>& daemons,
                       const emlio::core::Receiver& receiver,
                       const emlio::obs::LatencyHistogram& send,
                       const emlio::obs::LatencyHistogram& recv) {
  Counters c;
  for (const auto& d : daemons) {
    auto s = d->stats();
    c.samples_sent += s.samples_sent;
    c.batches_sent += s.batches_sent;
    c.records_read += s.store_records_read;
    c.enqueue_stalls += s.enqueue_stalls;
    c.sender_stalls += s.sender_stalls;
    c.wire_syscalls += s.wire_syscalls;
    c.pool_allocated += s.encode_pool.allocated;
    c.pool_reused += s.encode_pool.reused;
    c.cache_hits += s.cache.hits;
    c.cache_misses += s.cache.misses;
    c.cache_evictions += s.cache.evictions;
  }
  auto r = receiver.stats();
  c.rx_batches = r.batches_received;
  c.rx_wire_bytes = r.bytes_received;
  c.decode_ns = r.decode_ns;
  c.decode_stalls = r.decode_stalls;
  c.resequence_stalls = r.resequence_stalls;
  c.send = send.snapshot();
  c.recv = recv.snapshot();
  getrusage(RUSAGE_SELF, &c.usage);
  return c;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Stage quantile in ms from an engine's stats().latency (0 if absent).
double stage_ms(const std::vector<emlio::obs::StageSummary>& latency, const char* stage,
                double q) {
  for (const auto& s : latency) {
    if (s.stage == stage) return ms(q >= 0.99 ? s.p99_ns : s.p50_ns);
  }
  return 0.0;
}

/// Counter metrics over the timed window, per delivered batch or sample.
void window_metrics(const Workload& w, const Counters& a, const Counters& b,
                    std::uint64_t delivered_batches, double window_s,
                    std::map<std::string, double>& m) {
  const double nb = static_cast<double>(delivered_batches);
  m["storage.records_read_per_sample"] =
      ratio(b.records_read - a.records_read, b.samples_sent - a.samples_sent);
  const double allocated = b.pool_allocated - a.pool_allocated;
  m["daemon.encode_alloc_frac"] = ratio(allocated, allocated + (b.pool_reused - a.pool_reused));
  m["proc.minflt_per_batch"] = ratio(b.usage.ru_minflt - a.usage.ru_minflt, nb);
  m["proc.ctxsw_per_batch"] =
      ratio((b.usage.ru_nvcsw + b.usage.ru_nivcsw) - (a.usage.ru_nvcsw + a.usage.ru_nivcsw), nb);
  m["net.wire_syscalls_per_batch"] =
      ratio(b.wire_syscalls - a.wire_syscalls, b.batches_sent - a.batches_sent);
  auto send = b.send.delta(a.send);
  auto recv = b.recv.delta(a.recv);
  m["net.send_block_p50_ms"] = ms(send.quantile(0.5));
  m["net.send_block_p99_ms"] = ms(send.quantile(0.99));
  m["net.recv_wait_p50_ms"] = ms(recv.quantile(0.5));
  const double link_capacity =
      w.transport == Transport::kSim ? w.link.bandwidth_bytes_per_sec * w.num_daemons : 0.0;
  m["net.link_util_pct"] =
      100.0 * ratio((b.rx_wire_bytes - a.rx_wire_bytes) / window_s, link_capacity);
  const double hits = b.cache_hits - a.cache_hits;
  m["cache.hit_ratio"] = ratio(hits, hits + (b.cache_misses - a.cache_misses));
  m["cache.evictions_per_batch"] = ratio(b.cache_evictions - a.cache_evictions, nb);
  m["daemon.enqueue_stalls_per_batch"] = ratio(b.enqueue_stalls - a.enqueue_stalls, nb);
  m["daemon.sender_stalls_per_batch"] = ratio(b.sender_stalls - a.sender_stalls, nb);
  m["receiver.decode_us_per_batch"] =
      ratio(b.decode_ns - a.decode_ns, b.rx_batches - a.rx_batches) / 1e3;
  m["receiver.decode_stalls_per_batch"] = ratio(b.decode_stalls - a.decode_stalls, nb);
  m["receiver.resequence_stalls_per_batch"] =
      ratio(b.resequence_stalls - a.resequence_stalls, nb);
}

/// Stage quantiles and queue peaks from the engines' own stats, which cover
/// the whole repetition; with two daemons the slower one is kept.
void engine_metrics(const std::vector<emlio::core::DaemonStats>& daemon_end,
                    const emlio::core::ReceiverStats& receiver_end,
                    std::map<std::string, double>& m) {
  double queue_peak = 0;
  std::map<std::string, double> daemon_stage;
  for (const auto& s : daemon_end) {
    queue_peak = std::max(queue_peak, static_cast<double>(s.queue_peak_depth));
    for (auto [name, stage, q] : {std::tuple{"daemon.read_p50_ms", "read", 0.5},
                                  {"daemon.read_p99_ms", "read", 0.99},
                                  {"daemon.encode_p50_ms", "encode", 0.5},
                                  {"daemon.encode_p99_ms", "encode", 0.99},
                                  {"daemon.lane_wait_p50_ms", "lane_wait", 0.5},
                                  {"daemon.lane_wait_p99_ms", "lane_wait", 0.99},
                                  {"daemon.wire_p50_ms", "wire", 0.5}}) {
      daemon_stage[name] = std::max(daemon_stage[name], stage_ms(s.latency, stage, q));
    }
  }
  m.insert(daemon_stage.begin(), daemon_stage.end());
  m["daemon.queue_peak_depth"] = queue_peak;
  const auto& rl = receiver_end.latency;
  m["receiver.decode_p50_ms"] = stage_ms(rl, "decode", 0.5);
  m["receiver.decode_p99_ms"] = stage_ms(rl, "decode", 0.99);
  m["receiver.decode_wait_p99_ms"] = stage_ms(rl, "decode_wait", 0.99);
  m["receiver.ingest_p50_ms"] = stage_ms(rl, "ingest", 0.5);
  m["receiver.resequence_p99_ms"] = stage_ms(rl, "resequence", 0.99);
  m["receiver.deliver_p99_ms"] = stage_ms(rl, "deliver", 0.99);
  m["receiver.queue_peak_depth"] = static_cast<double>(receiver_end.queue_peak_depth);
}

}  // namespace

RepResult run_rep(const Workload& w, const std::string& dir, std::uint64_t seed, bool trace,
                  double budget_s, DeliveryChecker& checker) {
  RepResult r;
  const std::int64_t setup_start = now_ns();
  auto indexes = emlio::tfrecord::load_all_indexes(dir);
  emlio::core::PlannerConfig pc;
  pc.batch_size = w.batch_size;
  pc.seed = seed;
  emlio::core::Planner planner(indexes, pc);

  auto ends = make_endpoints(w, seed);
  auto send_hist = std::make_shared<emlio::obs::LatencyHistogram>();
  auto recv_hist = std::make_shared<emlio::obs::LatencyHistogram>();
  if (trace) {
    for (auto& s : ends.sinks) s = std::make_shared<TimedSink>(s, send_hist);
    for (auto& s : ends.sources) s = std::make_unique<TimedSource>(std::move(s), recv_hist);
  }
  emlio::core::Receiver receiver(receiver_config(w, trace), std::move(ends.sources));
  std::vector<std::unique_ptr<emlio::core::Daemon>> daemons;
  for (std::size_t d = 0; d < w.num_daemons; ++d) {
    daemons.push_back(std::make_unique<emlio::core::Daemon>(
        daemon_config(w, d, trace), daemon_readers(w, indexes, d),
        std::map<std::uint32_t, std::shared_ptr<emlio::net::MessageSink>>{{0u, ends.sinks[d]}}));
  }
  EpochGate gate;
  std::vector<std::thread> servers;
  for (std::size_t d = 0; d < w.num_daemons; ++d) {
    servers.emplace_back([&, d] {
      serve_epochs(*daemons[d], planner, gate);
      ends.sinks[d]->close();
    });
  }

  // The consumer: one thread, no preprocessing. Epoch 0 is cold and untimed;
  // the window opens at its marker and closes at the first marker after
  // budget_s. Bytes are verified outside the window only.
  std::uint32_t epoch = 0;
  std::uint64_t delivered = 0, delivered_in_window = 0;
  bool timing = false, stopped = false, first = true;
  std::int64_t window_start = 0;
  Counters at_start;
  rusage usage_start{};
  while (true) {
    const std::int64_t t0 = now_ns();
    auto batch = receiver.next();
    const std::int64_t t1 = now_ns();
    if (!batch) break;
    if (!batch->last) {
      if (first) {
        r.setup_s = (t1 - setup_start) / 1e9;
        first = false;
      }
      checker.batch(*batch, epoch, /*verify_bytes=*/!timing);
      ++delivered;
      if (timing) {
        r.waits_ms.push_back(ms(t1 - t0));
        r.samples += batch->samples.size();
        r.bytes += batch->payload_bytes();
        ++delivered_in_window;
      }
      continue;
    }
    checker.end_epoch();
    ++epoch;
    if (!timing && !stopped) {
      timing = true;
      window_start = t1;
      if (trace) at_start = read_counters(daemons, receiver, *send_hist, *recv_hist);
      getrusage(RUSAGE_SELF, &usage_start);
    } else if (timing && (t1 - window_start) / 1e9 >= budget_s) {
      timing = false;
      stopped = true;
      gate.stop();
      r.window_s = (t1 - window_start) / 1e9;
      rusage usage_end{};
      getrusage(RUSAGE_SELF, &usage_end);
      r.cpu_s = cpu_seconds(usage_end) - cpu_seconds(usage_start);
      r.batches = delivered_in_window;
      if (trace) {
        auto at_end = read_counters(daemons, receiver, *send_hist, *recv_hist);
        window_metrics(w, at_start, at_end, delivered_in_window, r.window_s, r.layers);
      }
    }
  }
  gate.stop();
  for (auto& t : servers) t.join();

  if (!stopped) checker.fail("stream ended before the timed window closed");
  if (epoch < gate.epochs()) checker.missing_epochs(gate.epochs() - epoch);
  std::vector<emlio::core::DaemonStats> daemon_end;
  for (const auto& d : daemons) {
    if (!d->ok()) checker.fail(d->last_error());
    daemon_end.push_back(d->stats());
  }
  auto rx = receiver.stats();
  if (rx.decode_errors != 0) checker.fail(std::to_string(rx.decode_errors) + " decode errors");
  if (rx.epochs_repaired != 0) checker.fail(std::to_string(rx.epochs_repaired) + " epochs repaired");
  if (rx.batches_received != delivered + rx.dropped_on_close + rx.dropped_dead_sender) {
    checker.fail("receiver conservation: received " + std::to_string(rx.batches_received) +
                 " != delivered " + std::to_string(delivered) + " + dropped " +
                 std::to_string(rx.dropped_on_close + rx.dropped_dead_sender));
  }
  if (trace && stopped) engine_metrics(daemon_end, rx, r.layers);
  return r;
}

}  // namespace perfbench
