#include "workload.h"

#include <stdexcept>

namespace perfbench {

using emlio::workload::DatasetSpec;

namespace {

DatasetSpec dataset(const char* name, std::uint64_t samples, std::uint64_t bytes, double jitter) {
  DatasetSpec spec;
  spec.name = name;
  spec.num_samples = samples;
  spec.bytes_per_sample = bytes;
  spec.size_jitter = jitter;
  return spec;
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;

  // Byte-bound: ~7 MB batches of ImageNet-like samples over loopback TCP,
  // no cache, so every epoch reads the shards and copies every byte through
  // the encoder and the socket.
  Workload tcp;
  tcp.name = "tcp_large";
  tcp.spec = dataset("imagenet_like", 1536, 110 * 1024, 0.25);
  tcp.batch_size = 64;
  tcp.transport = Transport::kTcp;
  out.push_back(tcp);

  // Per-record-bound: 4 KiB records, 1 MiB batches over shared memory with
  // its default slab size; the cache holds the whole dataset, so storage is
  // read only in the cold epoch. 64 batches per epoch put the epoch
  // turnovers (1.6 % of next() calls) above the 1 % tail, so the p99 wait is
  // the turnover wait rather than whichever scheduling hiccup lands at the
  // boundary of the tail.
  Workload shm;
  shm.name = "shm_small";
  shm.spec = dataset("text_4k", 16384, 4096, 0.0);
  shm.batch_size = 256;
  shm.transport = Transport::kShm;
  shm.cache_bytes_per_daemon = 128u << 20;
  out.push_back(shm);

  // Link-bound: two daemons, each on its own 30 ms RTT link capped at
  // 312.5 MB/s, into one two-source receiver. Each daemon's cache is about
  // half its share of the data, so clock eviction churns every epoch.
  Workload wan;
  wan.name = "wan_fanin";
  wan.spec = dataset("imagenet_like", 1536, 110 * 1024, 0.25);
  wan.batch_size = 32;
  wan.transport = Transport::kSim;
  wan.num_daemons = 2;
  wan.cache_bytes_per_daemon = 48u << 20;
  wan.link.rtt_ms = 30.0;
  wan.link.bandwidth_bytes_per_sec = 312.5e6;
  wan.link.jitter_stddev_ms = 1.0;
  out.push_back(wan);

  return out;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  static const std::vector<Workload> workloads = make_workloads();
  for (const auto& w : workloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

emlio::core::DaemonConfig daemon_config(const Workload& w, std::size_t daemon, bool trace) {
  emlio::core::DaemonConfig c;
  c.daemon_id = "daemon" + std::to_string(daemon);
  c.pool_threads = kEncodeThreads;
  c.cache_bytes = w.cache_bytes_per_daemon;
  c.trace = trace;
  return c;
}

emlio::core::ReceiverConfig receiver_config(const Workload& w, bool trace) {
  emlio::core::ReceiverConfig c;
  c.num_senders = w.num_daemons;
  c.decode_threads = kDecodeThreads;
  c.trace = trace;
  return c;
}

std::vector<emlio::tfrecord::ShardReader> daemon_readers(
    const Workload& w, const std::vector<emlio::tfrecord::ShardIndex>& indexes,
    std::size_t daemon) {
  if (indexes.size() % w.num_daemons != 0) {
    throw std::runtime_error("shards do not split evenly across daemons");
  }
  const std::size_t per = indexes.size() / w.num_daemons;
  std::vector<emlio::tfrecord::ShardReader> readers;
  for (std::size_t i = daemon * per; i < (daemon + 1) * per; ++i) readers.emplace_back(indexes[i]);
  return readers;
}

emlio::net::SimLinkConfig link_config(const Workload& w, std::uint64_t seed, std::size_t daemon) {
  auto link = w.link;
  link.seed = seed * 1000003u + daemon;
  return link;
}

}  // namespace perfbench
