#include "bench.h"

#include <algorithm>
#include <cmath>
#include <sys/resource.h>

namespace perfbench {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double interquartile_mean(std::vector<double> xs) {
  if (xs.size() < 4) return mean(xs);
  std::sort(xs.begin(), xs.end());
  const std::size_t lo = xs.size() / 4;
  const std::size_t hi = xs.size() - lo;
  double s = 0.0;
  for (std::size_t i = lo; i < hi; ++i) s += xs[i];
  return s / static_cast<double>(hi - lo);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t index) {
  // splitmix64 over a combination of the three words.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull ^ (stream << 32) ^ index;
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& text) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
