// Shared plumbing of the benchmark driver: options, timing helpers and
// the outcome every workload reports.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return ms_between(t0, Clock::now());
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty one.
[[nodiscard]] double quantile(std::vector<double> xs, double q);
[[nodiscard]] inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& xs);
/// Mean of the middle half of the sorted sample (the interquartile mean):
/// a centre that moves smoothly when the sample is multimodal, where the
/// median jumps from one mode to the next.
[[nodiscard]] double interquartile_mean(std::vector<double> xs);

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// Deterministic 64-bit mix of (seed, stream, index): per-pass sub-seeds.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                                     std::uint64_t index);

/// FNV-1a over `text`, folded into `h`.
[[nodiscard]] std::uint64_t fnv1a(std::uint64_t h, const std::string& text);
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// Faults the self-test injects to prove the checks bite.
enum class Inject {
  kNone,
  kCorruptDiagnosis,  ///< flip one byte of one received diagnosis
  kDropResponse,      ///< the server drops a response frame
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace_event output of the traced run ("" = none).
  std::string trace_out;
  /// Per-run scratch directory for sockets and state dirs, inside the
  /// checkout (created, then removed).
  std::string work_dir;
  /// Campaign digest expected for this seed ("" = not pinned).
  std::string expect_digest;
  Inject inject = Inject::kNone;
  /// Self-test size: a handful of episodes, a short run.
  bool tiny = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports. `values` feed the final JSON line (main.cc
/// owns the metric list and units; a per-layer metric a workload does not
/// exercise reads 0); `report` is the human-readable table printed above.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<Metric> report;
  std::vector<std::string> errors;  ///< first few failure descriptions
  /// The traced run's per-span profile table (printed before the result).
  std::string profile;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 10) errors.push_back(what);
  }
  void set(const std::string& name, double value) { values[name] = value; }
  void show(std::string name, double value, std::string unit) {
    report.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

Outcome run_campaign(const Options& opts);
/// The traced campaign run (its per-layer metrics, ledger checks and
/// profile) folded into `out`, whose own values win where both set one.
/// Chrome trace output, if any, goes beside opts.trace_out as
/// "<name>-campaign.json".
void add_campaign_layers(const Options& opts, Outcome& out);
Outcome run_svc_stream(const Options& opts);
Outcome run_svc_fleet(const Options& opts);

}  // namespace perfbench
