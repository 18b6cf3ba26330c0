// Spec-derived delivery oracles. Both sides of the data plane have one
// engine; these helpers state what that engine must deliver, computed from
// the inputs alone, so tests and benches check byte identity against the
// contract instead of against a second implementation.
//
//   expected_stream(plan, indexes)     — what a daemon owning `indexes`
//       sends each destination node for one epoch (core/daemon.h).
//   expected_delivery(arrivals, n)     — what a receiver with `n` senders
//       hands next() for a payload stream arriving in this order
//       (core/receiver.h).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/planner.h"
#include "msgpack/batch_codec.h"
#include "tfrecord/reader.h"
#include "tfrecord/shard_index.h"

namespace emlio::oracle {

/// Per destination node: the plan's batches whose shard is in `indexes`, in
/// batch_id order, each carrying its records' sample index, label and bytes
/// (read through ShardReader, copied so the result owns them).
inline std::map<std::uint32_t, std::vector<msgpack::WireBatch>> expected_stream(
    const core::EpochPlan& plan, const std::vector<tfrecord::ShardIndex>& indexes) {
  std::map<std::uint32_t, tfrecord::ShardReader> readers;
  for (const auto& idx : indexes) readers.emplace(idx.shard_id, tfrecord::ShardReader(idx));
  std::map<std::uint32_t, std::map<std::uint64_t, msgpack::WireBatch>> by_id;
  for (const auto& node : plan.nodes) {
    for (const auto& worker : node.workers) {
      for (const auto& a : worker.batches) {
        auto reader = readers.find(a.shard_id);
        if (reader == readers.end()) continue;  // another daemon's shard
        msgpack::WireBatch b;
        b.epoch = a.epoch;
        b.batch_id = a.batch_id;
        b.node_id = a.node_id;
        b.shard_id = a.shard_id;
        for (std::uint32_t i = 0; i < a.count; ++i) {
          const auto& entry = reader->second.index().records[a.first_record + i];
          auto bytes = reader->second.record(a.first_record + i);
          msgpack::WireSample s;
          s.index = entry.sample_index;
          s.label = entry.label;
          s.bytes = std::vector<std::uint8_t>(bytes.begin(), bytes.end());
          b.samples.push_back(std::move(s));
        }
        by_id[node.node_id].emplace(a.batch_id, std::move(b));
      }
    }
  }
  std::map<std::uint32_t, std::vector<msgpack::WireBatch>> out;
  for (auto& [node_id, batches] : by_id) {
    for (auto& [id, b] : batches) out[node_id].push_back(std::move(b));
  }
  return out;
}

/// For each epoch in order (0, 1, ...): that epoch's data batches in arrival
/// order, then one marker — make_sentinel(0, epoch, Σ sent_count of the
/// epoch's sentinels). Stops at the first epoch that is not complete in
/// `arrivals` (fewer than `num_senders` sentinels, or fewer data batches
/// than they announce); repair of incomplete epochs is not modelled.
inline std::vector<msgpack::WireBatch> expected_delivery(
    const std::vector<msgpack::WireBatch>& arrivals, std::size_t num_senders) {
  struct Epoch {
    std::vector<msgpack::WireBatch> data;
    std::size_t sentinels = 0;
    std::uint64_t announced = 0;
  };
  std::map<std::uint32_t, Epoch> epochs;
  for (const auto& b : arrivals) {
    Epoch& e = epochs[b.epoch];
    if (b.last) {
      ++e.sentinels;
      e.announced += b.sent_count;
    } else {
      e.data.push_back(b);
    }
  }
  std::vector<msgpack::WireBatch> out;
  for (std::uint32_t epoch = 0;; ++epoch) {
    auto it = epochs.find(epoch);
    if (it == epochs.end()) break;
    const Epoch& e = it->second;
    if (e.sentinels < num_senders || e.data.size() < e.announced) break;
    out.insert(out.end(), e.data.begin(), e.data.end());
    out.push_back(msgpack::BatchCodec::make_sentinel(0, epoch, e.announced));
  }
  return out;
}

}  // namespace emlio::oracle
