// The benchmark's own arithmetic, kept free of engine types so the
// self-test can check it in isolation: medians, geometric means, the tail
// percentile rule, the union of time intervals (wall vs summed worker
// time), q-error, and an order-independent fingerprint of a result set.

#ifndef PERFBENCH_BENCH_MATH_H_
#define PERFBENCH_BENCH_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 if empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t n = v.size();
  std::nth_element(v.begin(), v.begin() + n / 2, v.end());
  const double hi = v[n / 2];
  if (n % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + n / 2);
  return 0.5 * (lo + hi);
}

/// Geometric mean of positive values; 0 if empty or any value is <= 0.
inline double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) {
    if (!(x > 0.0)) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// The tail of a latency sample: the value at the highest percentile that
/// still has at least `beyond` samples strictly above its rank, i.e. the
/// (beyond + 1)-th largest sample. `percentile` receives that rank as a
/// percentile, 100 * (n - beyond) / n. With fewer than beyond + 1 samples
/// there is no such percentile: returns the maximum and percentile = 0.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};

inline Tail TailBeyond(std::vector<double> v, size_t beyond) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n <= beyond) {
    t.value = v.back();
    return t;
  }
  t.value = v[n - beyond - 1];
  t.percentile =
      100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  return t;
}

/// The tail the benchmark reports: the 99th percentile once the sample
/// leaves more than `min_beyond` samples above it, else TailBeyond with
/// `min_beyond`. With tens of thousands of reads a fixed count beyond sits
/// at p99.97, where a handful of stalls decide the value from run to run.
inline Tail ReportedTail(const std::vector<double>& v, size_t min_beyond) {
  return TailBeyond(v, std::max(min_beyond, v.size() / 100));
}

/// Total length covered by a set of [begin, end) intervals (overlaps
/// counted once). Intervals with end <= begin cover nothing.
inline double UnionLength(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_b = 0.0;
  double cur_e = 0.0;
  bool open = false;
  for (const auto& [b, e] : iv) {
    if (!(e > b)) continue;
    if (open && b <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += cur_e - cur_b;
    cur_b = b;
    cur_e = e;
    open = true;
  }
  if (open) total += cur_e - cur_b;
  return total;
}

/// max(est / actual, actual / est): 1 is a perfect estimate. 0 when either
/// side is not positive (no estimate to judge).
inline double QError(double estimate, double actual) {
  if (!(estimate > 0.0) || !(actual > 0.0)) return 0.0;
  return std::max(estimate / actual, actual / estimate);
}

/// SplitMix64 finalizer: a bijective 64-bit mix.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-independent fingerprint of a multiset of result rows: the count
/// plus the wrapping sum of a strong per-row hash. Any permutation of the
/// rows gives the same value; a changed, missing or duplicated row changes
/// it with overwhelming probability.
class Fingerprint {
 public:
  /// Adds one row given as a sequence of 32-bit values.
  template <typename It>
  void AddRow(It first, It last) {
    uint64_t h = 0x243f6a8885a308d3ULL;
    for (; first != last; ++first) h = Mix(h ^ static_cast<uint64_t>(*first));
    sum_ += Mix(h);
    ++count_;
  }
  void AddPair(uint32_t x, uint32_t z) {
    const uint32_t row[2] = {x, z};
    AddRow(row, row + 2);
  }
  void AddCounted(uint32_t x, uint32_t z, uint32_t c) {
    const uint32_t row[3] = {x, z, c};
    AddRow(row, row + 3);
  }

  uint64_t count() const { return count_; }
  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.count_ == b.count_ && a.sum_ == b.sum_;
  }
  friend bool operator!=(const Fingerprint& a, const Fingerprint& b) {
    return !(a == b);
  }

 private:
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_MATH_H_
