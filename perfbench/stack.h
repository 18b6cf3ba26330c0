// One repetition of a workload through the full stack, and the delivery
// check every repetition runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "msgpack/batch_codec.h"
#include "tfrecord/reader.h"
#include "workload.h"

namespace perfbench {

/// Checks delivery against the dataset's shard records: every planned sample
/// exactly once per epoch, in a batch of that epoch and of its own shard,
/// with its label, and (when asked) with its bytes.
class DeliveryChecker {
 public:
  explicit DeliveryChecker(const std::vector<emlio::tfrecord::ShardIndex>& indexes);

  /// One data batch delivered while epoch `epoch` was open.
  void batch(const emlio::msgpack::WireBatch& batch, std::uint32_t epoch, bool verify_bytes);
  /// The epoch marker arrived: fold the epoch's outcome into the totals.
  void end_epoch();
  /// Epochs that were planned but whose marker never arrived: every sample
  /// of each counts as failed.
  void missing_epochs(std::uint64_t epochs);
  /// A failure outside the per-sample checks (engine error, broken
  /// conservation); makes the run incorrect.
  void fail(const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::uint64_t bytes_verified() const { return bytes_verified_; }
  bool correct() const { return failed_ == 0 && errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  struct Loc {
    std::uint32_t reader = 0;
    std::uint32_t shard_id = 0;
    std::uint32_t record = 0;
    std::int64_t label = 0;
  };
  void note(const std::string& what);

  std::vector<emlio::tfrecord::ShardReader> readers_;
  std::vector<Loc> locs_;                 ///< by dataset-global sample index
  std::vector<std::uint8_t> seen_;        ///< deliveries this epoch
  std::vector<std::uint8_t> bad_;         ///< a check failed this epoch
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t stray_ = 0;               ///< deliveries naming no planned sample
  std::uint64_t bytes_verified_ = 0;
  std::vector<std::string> errors_;
};

/// Outcome of one repetition. Timed quantities cover the timed window only:
/// from the marker of the cold first epoch to the first epoch marker after
/// the window's budget ran out.
struct RepResult {
  double setup_s = 0;   ///< shard-index load to the first data batch out of next()
  double window_s = 0;
  std::uint64_t samples = 0;
  std::uint64_t batches = 0;
  std::uint64_t bytes = 0;       ///< sample payload bytes delivered
  double cpu_s = 0;              ///< process user+sys CPU
  std::vector<double> waits_ms;  ///< one per data batch: time blocked in next()
  /// Per-layer metrics, filled by traced repetitions only.
  std::map<std::string, double> layers;

  double samples_per_s() const { return window_s > 0 ? samples / window_s : 0; }
};

/// Build the stack for `w` over the dataset in `dir`, stream epochs until
/// `budget_s` of timed window has passed, drain, tear down. With `trace`,
/// both engines trace and the transport endpoints are timed.
RepResult run_rep(const Workload& w, const std::string& dir, std::uint64_t seed, bool trace,
                  double budget_s, DeliveryChecker& checker);

}  // namespace perfbench
