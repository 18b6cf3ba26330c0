// perfbench: the EMLIO benchmark binary. run.py builds and drives it.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --data-root DIR
//
// Generates the workload's dataset from the seed under DIR, then:
//   --trace 0  runs untraced repetitions of the full stack and prints the
//              end-to-end metrics;
//   --trace 1  runs the roofline probe, the layer-isolation phase and
//              alternating untraced/traced repetitions, and prints the
//              per-layer metrics.
// Every repetition checks delivery. The last stdout line is one JSON object
// {"correct","attempted","failed","metrics"}; the exit code is 0 only when
// every check passed.
#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "json/json.h"
#include "layers.h"
#include "stack.h"
#include "tfrecord/shard_index.h"
#include "workload/materialize.h"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  std::string data_root;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else if (key == "--data-root") {
      a.data_root = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || a.data_root.empty() || a.seconds <= 0 ||
      (a.trace != 0 && a.trace != 1)) {
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --data-root DIR");
  }
  return a;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Metric name -> unit for everything a run can print.
const char* unit_of(const std::string& name) {
  auto ends = [&](const char* s) {
    std::string suffix(s);
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends("_ms")) return "ms";
  if (ends("_us_per_batch")) return "us";
  if (ends("_pct") || ends("_pct_of_memcpy")) return "%";
  if (ends("_gb_per_s")) return "GB/s";
  if (ends("samples_per_s")) return "1/s";
  if (ends("_frac") || ends("_ratio")) return "ratio";
  if (name == "cpu_s_per_gb") return "s/GB";
  if (name == "peak_rss_mb") return "MB";
  if (name == "setup_s") return "s";
  return "count";
}

/// Start a fresh peak-RSS mark at the current RSS, after handing freed heap
/// back to the kernel, so each repetition's peak is its own. Where the kernel
/// cannot reset the mark, the peak read afterwards is the process's own.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak RSS in MB since the last reset.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  for (std::string line; std::getline(f, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Write the freshly generated dataset back to disk now, so that background
/// writeback of its dirty pages does not land inside a timed window. Reads
/// then hit the page cache with nothing pending.
void flush_dataset(const fs::path& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd < 0 || ::fsync(fd) != 0) {
      if (fd >= 0) ::close(fd);
      throw std::runtime_error("cannot flush " + entry.path().string());
    }
    ::close(fd);
  }
}

/// End-to-end metrics from untraced repetitions. Throughput and CPU per GB
/// pool the timed windows of all repetitions (total work over total time);
/// waits are pooled too; set-up time and peak RSS are medians.
void end_to_end(const Workload& w, const Args& a, const std::string& dir, DeliveryChecker& checker,
                std::map<std::string, double>& out) {
  // Many short repetitions, each with fresh engines, spread the measurement
  // over the run and give the set-up time and peak RSS ten samples each.
  constexpr int kReps = 10;
  std::vector<double> setup, waits, rss;
  double samples = 0, bytes = 0, window_s = 0, cpu_s = 0;
  for (int i = 0; i < kReps; ++i) {
    reset_peak_rss();
    auto r = run_rep(w, dir, a.seed, /*trace=*/false, a.seconds / kReps, checker);
    rss.push_back(peak_rss_mb());
    samples += static_cast<double>(r.samples);
    bytes += static_cast<double>(r.bytes);
    window_s += r.window_s;
    cpu_s += r.cpu_s;
    setup.push_back(r.setup_s);
    waits.insert(waits.end(), r.waits_ms.begin(), r.waits_ms.end());
    std::printf("# rep %d: %.0f samples/s over %.2f s (%llu batches), wait p50 %.4f p99 %.4f ms, "
                "cpu %.3f s, setup %.4f s, peak rss %.0f MB\n",
                i, r.samples_per_s(), r.window_s, static_cast<unsigned long long>(r.batches),
                quantile(r.waits_ms, 0.5), quantile(r.waits_ms, 0.99), r.cpu_s, r.setup_s,
                rss.back());
  }
  out["samples_per_s"] = window_s > 0 ? samples / window_s : 0;
  out["next_wait_p50_ms"] = quantile(waits, 0.5);
  out["next_wait_p99_ms"] = quantile(waits, 0.99);
  out["cpu_s_per_gb"] = bytes > 0 ? cpu_s / (bytes / 1e9) : 0;
  out["peak_rss_mb"] = median(rss);
  out["setup_s"] = median(setup);
  std::printf("# %zu next() waits and %.0f samples over %.2f s timed, %d repetitions\n",
              waits.size(), samples, window_s, kReps);
}

/// Per-layer metrics: probe, isolation, and traced repetitions alternating
/// with untraced ones for the tracing overhead.
void per_layer(const Workload& w, const Args& a, const std::string& dir,
               DeliveryChecker& checker, std::map<std::string, double>& out) {
  auto roof = probe(w, dir, a.seed, 0.1 * a.seconds);
  out["probe.memcpy_gb_per_s"] = roof.memcpy_gb_per_s;
  out["probe.slice_gb_per_s"] = roof.slice_gb_per_s;
  out["probe.encode_gb_per_s"] = roof.encode_gb_per_s;
  out["probe.decode_gb_per_s"] = roof.decode_gb_per_s;
  out["probe.slice_pct_of_memcpy"] = 100 * roof.slice_gb_per_s / roof.memcpy_gb_per_s;
  out["probe.encode_pct_of_memcpy"] = 100 * roof.encode_gb_per_s / roof.memcpy_gb_per_s;
  out["probe.decode_pct_of_memcpy"] = 100 * roof.decode_gb_per_s / roof.memcpy_gb_per_s;

  std::vector<std::string> errors;
  auto iso = isolate(w, dir, a.seed, 0.1 * a.seconds, errors);
  for (const auto& e : errors) checker.fail("isolation: " + e);
  out["isolate.daemon_samples_per_s"] = iso.daemon_samples_per_s;
  out["isolate.receiver_samples_per_s"] = iso.receiver_samples_per_s;

  std::vector<double> untraced, traced;
  std::map<std::string, std::vector<double>> layers;
  for (int i = 0; i < 4; ++i) {
    const bool trace = i % 2 == 1;
    auto r = run_rep(w, dir, a.seed, trace, 0.15 * a.seconds, checker);
    (trace ? traced : untraced).push_back(r.samples_per_s());
    for (const auto& [k, v] : r.layers) layers[k].push_back(v);
    std::printf("# rep %d (%s): %.0f samples/s over %.2f s\n", i, trace ? "traced" : "untraced",
                r.samples_per_s(), r.window_s);
  }
  out["trace.overhead_pct"] = 100 * (1 - median(traced) / median(untraced));
  for (const auto& [k, v] : layers) out[k] = median(v);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    a = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  const Workload* w = find_workload(a.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const fs::path dir = fs::path(a.data_root) / (w->name + "." + std::to_string(::getpid()));
  int status = 1;
  try {
    fs::remove_all(dir);
    fs::create_directories(dir);
    emlio::workload::materialize_tfrecord(w->spec, dir.string(), w->num_shards, a.seed);
    flush_dataset(dir);
    DeliveryChecker checker(emlio::tfrecord::load_all_indexes(dir.string()));
    std::printf("# workload %s: %llu samples x ~%llu B, batch %zu, %zu daemon(s), build %s\n",
                w->name.c_str(), static_cast<unsigned long long>(w->spec.num_samples),
                static_cast<unsigned long long>(w->spec.bytes_per_sample), w->batch_size,
                w->num_daemons, PERFBENCH_BUILD_TYPE);

    std::map<std::string, double> metrics;
    if (a.trace == 0) {
      end_to_end(*w, a, dir.string(), checker, metrics);
    } else {
      per_layer(*w, a, dir.string(), checker, metrics);
    }
    for (const auto& e : checker.errors()) std::printf("# FAILED: %s\n", e.c_str());
    std::printf("# %llu of %llu samples failed; %.1f MB of sample bytes verified\n",
                static_cast<unsigned long long>(checker.failed()),
                static_cast<unsigned long long>(checker.attempted()),
                checker.bytes_verified() / 1e6);

    emlio::json::Object m;
    for (const auto& [name, value] : metrics) {
      std::printf("# %-40s %14.6g %s\n", name.c_str(), value, unit_of(name));
      m[name] = emlio::json::Object{{"value", value}, {"unit", unit_of(name)}};
    }
    emlio::json::Object result{{"correct", checker.correct()},
                               {"attempted", checker.attempted()},
                               {"failed", checker.failed()},
                               {"metrics", std::move(m)}};
    std::printf("%s\n", emlio::json::Value(std::move(result)).dump().c_str());
    status = checker.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  return status;
}
