#ifndef PERFBENCH_TRUTH_H_
#define PERFBENCH_TRUTH_H_

// Ground truth computed by the benchmark itself, straight from the stored
// rows: a per-key weight pass along a chain join, and the checks that
// compare the program's statistics against it. Nothing here calls the
// program's exec layer or its TrueDistribution.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "histogram/histogram.h"
#include "storage/catalog.h"

namespace perfbench {

/// Join-result tuple counts: a 6-way chain over 50k-row tables exceeds
/// 2^64 tuples, so weights are 128-bit integers and stay exact.
using Weight = unsigned __int128;

/// One table of a chain join. `left_col` joins the previous hop's
/// `right_col`; the first hop has no left column, the last no right one.
struct ChainHop {
  std::string table;
  std::string left_col;
  std::string right_col;
};

/// A chain join T_0 ⋈ ... ⋈ T_{n-1} and the attribute of hop `root`
/// whose distribution over the join result is wanted.
struct ChainQuery {
  std::vector<ChainHop> hops;
  size_t root = 0;
  std::string attribute;
};

/// The exact distribution of an attribute over a join result: sorted
/// distinct values with cumulative tuple counts.
class WeightedDistribution {
 public:
  WeightedDistribution() = default;
  /// `pairs` need not be sorted or distinct.
  explicit WeightedDistribution(std::vector<std::pair<double, Weight>> pairs);

  /// Tuples with lo <= value <= hi.
  Weight RangeWeight(double lo, double hi) const;
  /// Tuples with value < x, and with value <= x.
  Weight WeightBelow(double x) const;
  Weight WeightAtMost(double x) const;

  Weight total() const { return cumulative_.empty() ? 0 : cumulative_.back(); }
  bool empty() const { return values_.empty(); }
  double min_value() const { return values_.front(); }
  double max_value() const { return values_.back(); }

 private:
  std::vector<double> values_;
  std::vector<Weight> cumulative_;
};

/// Result of the weight pass.
struct ChainTruth {
  WeightedDistribution distribution;
  /// For every hop j != root: the sub-chain on j's side of the root that
  /// ends at j, as key -> tuple count, keyed by j's join column towards
  /// the root. These are the exact multiplicity maps a SweepExact child
  /// scan hands its parent (index unused for the root).
  std::vector<std::unordered_map<double, Weight>> toward_root;
};

/// Per-key weight pass: walks in from both ends of the chain, carrying
/// "tuples of the sub-chain so far per join key", and weights each root
/// row by the product of its two sides.
sitstats::Result<ChainTruth> ComputeChainTruth(const sitstats::Catalog& catalog,
                                               const ChainQuery& query);

/// Brute-force nested-loop evaluation of the same chain (every
/// combination of rows, one per hop). Exponential: self-tests only.
sitstats::Result<WeightedDistribution> BruteForceChain(
    const sitstats::Catalog& catalog, const ChainQuery& query);

/// Largest distance between the histogram's cumulative distribution and
/// the truth's, evaluated on both sides of every bucket boundary — the
/// points where a histogram built from a sample reproduces the sample's
/// empirical CDF exactly, so the distance isolates sampling error from
/// within-bucket interpolation.
double CdfDistance(const sitstats::Histogram& histogram,
                   const WeightedDistribution& truth);

/// Dvoretzky-Kiefer-Wolfowitz radius: with probability >= 1 - delta, the
/// empirical CDF of n uniform draws lies within this distance of the
/// population's everywhere.
double DkwRadius(double n, double delta);

/// CDF-distance bound of a Sweep SIT whose reservoir holds `capacity`
/// values: the DKW radius at failure probability 1e-6, plus 0.05 for the
/// containment bias of the histogram m-Oracle (see README, "Checks").
inline constexpr double kCdfFailureProbability = 1e-6;
inline constexpr double kMOracleAllowance = 0.05;
inline double SweepCdfBound(double capacity) {
  return DkwRadius(capacity, kCdfFailureProbability) + kMOracleAllowance;
}

struct RangeQuery {
  double lo = 0.0;
  double hi = 0.0;
};

/// `count` random ranges [lo, hi] with both ends uniform over the truth's
/// domain. As in the Fig-7 evaluation, a range holding less than
/// `min_fraction` of the tuples is re-drawn, so the mean
/// relative error is not dominated by a few nearly empty ranges.
inline constexpr double kFig7MinFraction = 0.001;
std::vector<RangeQuery> MakeRangeQueries(const WeightedDistribution& truth,
                                         size_t count, double min_fraction,
                                         sitstats::Rng* rng);

/// The Fig-7 metric for one query: |est - true| / max(true, 1).
double RelativeError(double estimate, double truth);
/// max(e, t) / min(e, t) with both clamped below at 1.
double QError(double estimate, double truth);

inline double ToDouble(Weight w) { return static_cast<double>(w); }

}  // namespace perfbench

#endif  // PERFBENCH_TRUTH_H_
