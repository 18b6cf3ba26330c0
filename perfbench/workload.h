// The benchmark's workloads and the engine configuration each one runs.
//
// Every workload drives the same stack — Planner -> Daemon(s) -> transport
// -> Receiver -> one consumer thread calling Receiver::next() — and differs
// only in the dataset shape, the transport and the cache budget, chosen so
// that each one is bound by a different layer (see README.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/daemon.h"
#include "core/receiver.h"
#include "net/sim_channel.h"
#include "tfrecord/reader.h"
#include "workload/dataset_spec.h"

namespace perfbench {

enum class Transport { kTcp, kShm, kSim };

struct Workload {
  std::string name;
  emlio::workload::DatasetSpec spec;
  std::uint32_t num_shards = 8;
  std::size_t batch_size = 64;
  Transport transport = Transport::kTcp;
  /// Daemons; daemon d owns the d-th contiguous block of shards.
  std::size_t num_daemons = 1;
  /// Sample-cache budget of each daemon (0 = cache off).
  std::size_t cache_bytes_per_daemon = 0;
  /// Link model for Transport::kSim; its seed is replaced per run.
  emlio::net::SimLinkConfig link;
};

/// The named workload, or null.
const Workload* find_workload(const std::string& name);

/// Pools sized for a 4-core host: 2 encode threads per daemon and 2 decode
/// threads, so the engines and the consumer never oversubscribe the cores.
inline constexpr std::size_t kEncodeThreads = 2;
inline constexpr std::size_t kDecodeThreads = 2;

emlio::core::DaemonConfig daemon_config(const Workload& w, std::size_t daemon, bool trace);
emlio::core::ReceiverConfig receiver_config(const Workload& w, bool trace);

/// Readers for the shards daemon `daemon` owns.
std::vector<emlio::tfrecord::ShardReader> daemon_readers(
    const Workload& w, const std::vector<emlio::tfrecord::ShardIndex>& indexes,
    std::size_t daemon);

/// Link config for the link out of daemon `daemon`, jitter seeded from the run seed.
emlio::net::SimLinkConfig link_config(const Workload& w, std::uint64_t seed, std::size_t daemon);

}  // namespace perfbench
