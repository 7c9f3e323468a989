#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace easydram {

/// Thrown by statistics helpers on invalid input (e.g. a non-positive
/// sample fed to geomean). Unlike ContractViolation this is an expected,
/// catchable condition: benches can report "n/a" instead of dying.
class StatsError : public std::invalid_argument {
 public:
  explicit StatsError(const std::string& what) : std::invalid_argument(what) {}
};

/// Streaming summary of a series of samples: count, mean, min, max.
class Summary {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// What geomean does with a non-positive sample (for which log() is
/// undefined): throw a StatsError, or skip the sample and average the rest.
enum class GeomeanPolicy {
  kThrow,
  kSkipNonPositive,
};

// Empty-input policy, uniform across the free aggregation functions: an
// empty span throws StatsError. A statistic of nothing is not 0.0, and the
// old silent-zero behaviour let an accidentally empty sweep masquerade as
// a measured result. (Summary, the *streaming* accumulator, keeps its
// explicit count() so callers branch on emptiness themselves.)

/// Geometric mean of positive samples. Under kSkipNonPositive, non-positive
/// samples are skipped and 0 is returned when nothing (or nothing positive)
/// remains; under kThrow, an empty span or any non-positive sample throws.
double geomean(std::span<const double> xs,
               GeomeanPolicy policy = GeomeanPolicy::kThrow);

/// Arithmetic mean. Throws StatsError for an empty span.
double mean(std::span<const double> xs);

/// Sample standard deviation (n-1 denominator). Throws StatsError for an
/// empty span; returns 0 for a single sample (the undefined n-1 case is
/// pinned to 0 so single-repetition runs report a spread of "none").
double stddev(std::span<const double> xs);

/// Percentile in [0, 100] by linear interpolation between closest ranks.
/// Throws StatsError for an empty span; the single element for a
/// one-element span.
double percentile(std::span<const double> xs, double pct);

/// Median (50th percentile).
double p50(std::span<const double> xs);

/// 95th percentile.
double p95(std::span<const double> xs);

/// Fixed-bucket histogram over [lo, hi); finite samples outside are clamped
/// into the first/last bucket, non-finite samples are rejected (counted in
/// rejected(), excluded from total()). Used by characterization studies and
/// tests.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  std::size_t count_at(std::size_t bucket) const { return counts_.at(bucket); }
  std::size_t total() const { return total_; }
  std::size_t rejected() const { return rejected_; }
  double bucket_low(std::size_t bucket) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t rejected_ = 0;
};

}  // namespace easydram
