#include "truth.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using sitstats::Catalog;
using sitstats::Result;
using sitstats::Status;

namespace {

using KeyWeights = std::unordered_map<double, Weight>;

Result<std::vector<double>> ReadColumn(const Catalog& catalog,
                                       const std::string& table,
                                       const std::string& column) {
  SITSTATS_ASSIGN_OR_RETURN(const sitstats::Table* t, catalog.GetTable(table));
  SITSTATS_ASSIGN_OR_RETURN(const sitstats::Column* c, t->GetColumn(column));
  return c->ToNumericVector();
}

Weight Lookup(const KeyWeights& weights, double key) {
  auto it = weights.find(key);
  return it == weights.end() ? 0 : it->second;
}

Status ValidateQuery(const ChainQuery& query) {
  if (query.hops.empty() || query.root >= query.hops.size()) {
    return Status::InvalidArgument("chain query needs a root among its hops");
  }
  return Status::OK();
}

}  // namespace

WeightedDistribution::WeightedDistribution(
    std::vector<std::pair<double, Weight>> pairs) {
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Weight running = 0;
  for (const auto& [value, weight] : pairs) {
    running += weight;
    if (!values_.empty() && values_.back() == value) {
      cumulative_.back() = running;
    } else {
      values_.push_back(value);
      cumulative_.push_back(running);
    }
  }
}

Weight WeightedDistribution::WeightBelow(double x) const {
  auto it = std::lower_bound(values_.begin(), values_.end(), x);
  if (it == values_.begin()) return 0;
  return cumulative_[static_cast<size_t>(it - values_.begin()) - 1];
}

Weight WeightedDistribution::WeightAtMost(double x) const {
  auto it = std::upper_bound(values_.begin(), values_.end(), x);
  if (it == values_.begin()) return 0;
  return cumulative_[static_cast<size_t>(it - values_.begin()) - 1];
}

Weight WeightedDistribution::RangeWeight(double lo, double hi) const {
  if (hi < lo) return 0;
  return WeightAtMost(hi) - WeightBelow(lo);
}

Result<ChainTruth> ComputeChainTruth(const Catalog& catalog,
                                     const ChainQuery& query) {
  SITSTATS_RETURN_IF_ERROR(ValidateQuery(query));
  const size_t n = query.hops.size();
  ChainTruth truth;
  truth.toward_root.resize(n);

  // From the left end in to the root: carry[key] = tuples of
  // T_0 ⋈ ... ⋈ T_j whose T_j.right_col equals key.
  KeyWeights from_left;
  for (size_t j = 0; j < query.root; ++j) {
    const ChainHop& hop = query.hops[j];
    SITSTATS_ASSIGN_OR_RETURN(std::vector<double> right,
                              ReadColumn(catalog, hop.table, hop.right_col));
    std::vector<double> left;
    if (j > 0) {
      SITSTATS_ASSIGN_OR_RETURN(left,
                                ReadColumn(catalog, hop.table, hop.left_col));
    }
    KeyWeights next;
    for (size_t r = 0; r < right.size(); ++r) {
      const Weight w = j == 0 ? 1 : Lookup(from_left, left[r]);
      if (w != 0) next[right[r]] += w;
    }
    from_left = std::move(next);
    truth.toward_root[j] = from_left;
  }

  // From the right end in to the root, symmetrically.
  KeyWeights from_right;
  for (size_t j = n - 1; j > query.root; --j) {
    const ChainHop& hop = query.hops[j];
    SITSTATS_ASSIGN_OR_RETURN(std::vector<double> left,
                              ReadColumn(catalog, hop.table, hop.left_col));
    std::vector<double> right;
    if (j + 1 < n) {
      SITSTATS_ASSIGN_OR_RETURN(right,
                                ReadColumn(catalog, hop.table, hop.right_col));
    }
    KeyWeights next;
    for (size_t r = 0; r < left.size(); ++r) {
      const Weight w = j + 1 == n ? 1 : Lookup(from_right, right[r]);
      if (w != 0) next[left[r]] += w;
    }
    from_right = std::move(next);
    truth.toward_root[j] = from_right;
  }

  const ChainHop& root = query.hops[query.root];
  SITSTATS_ASSIGN_OR_RETURN(std::vector<double> attr,
                            ReadColumn(catalog, root.table, query.attribute));
  std::vector<double> left, right;
  if (query.root > 0) {
    SITSTATS_ASSIGN_OR_RETURN(left,
                              ReadColumn(catalog, root.table, root.left_col));
  }
  if (query.root + 1 < n) {
    SITSTATS_ASSIGN_OR_RETURN(right,
                              ReadColumn(catalog, root.table, root.right_col));
  }
  std::vector<std::pair<double, Weight>> pairs;
  pairs.reserve(attr.size());
  for (size_t r = 0; r < attr.size(); ++r) {
    Weight w = 1;
    if (!left.empty()) w *= Lookup(from_left, left[r]);
    if (!right.empty() && w != 0) w *= Lookup(from_right, right[r]);
    if (w != 0) pairs.emplace_back(attr[r], w);
  }
  truth.distribution = WeightedDistribution(std::move(pairs));
  return truth;
}

Result<WeightedDistribution> BruteForceChain(const Catalog& catalog,
                                             const ChainQuery& query) {
  SITSTATS_RETURN_IF_ERROR(ValidateQuery(query));
  const size_t n = query.hops.size();
  std::vector<std::vector<double>> left(n), right(n);
  for (size_t j = 0; j < n; ++j) {
    const ChainHop& hop = query.hops[j];
    if (j > 0) {
      SITSTATS_ASSIGN_OR_RETURN(left[j],
                                ReadColumn(catalog, hop.table, hop.left_col));
    }
    if (j + 1 < n) {
      SITSTATS_ASSIGN_OR_RETURN(right[j],
                                ReadColumn(catalog, hop.table, hop.right_col));
    }
  }
  SITSTATS_ASSIGN_OR_RETURN(
      std::vector<double> attr,
      ReadColumn(catalog, query.hops[query.root].table, query.attribute));
  SITSTATS_ASSIGN_OR_RETURN(const sitstats::Table* first,
                            catalog.GetTable(query.hops[0].table));

  // Depth-first over one row per hop; a combination is a join tuple when
  // every adjacent pair agrees on its join columns.
  std::vector<std::pair<double, Weight>> pairs;
  std::vector<size_t> chosen(n);
  auto visit = [&](auto&& self, size_t j, size_t rows_j) -> Status {
    for (size_t r = 0; r < rows_j; ++r) {
      if (j > 0 && left[j][r] != right[j - 1][chosen[j - 1]]) continue;
      chosen[j] = r;
      if (j + 1 == n) {
        pairs.emplace_back(attr[chosen[query.root]], 1);
        continue;
      }
      SITSTATS_ASSIGN_OR_RETURN(const sitstats::Table* next,
                                catalog.GetTable(query.hops[j + 1].table));
      SITSTATS_RETURN_IF_ERROR(self(self, j + 1, next->num_rows()));
    }
    return Status::OK();
  };
  SITSTATS_RETURN_IF_ERROR(visit(visit, 0, first->num_rows()));
  return WeightedDistribution(std::move(pairs));
}

double CdfDistance(const sitstats::Histogram& histogram,
                   const WeightedDistribution& truth) {
  const double hist_total = histogram.TotalFrequency();
  const double true_total = ToDouble(truth.total());
  if (histogram.empty() || hist_total <= 0.0 || true_total <= 0.0) return 1.0;
  double cumulative = 0.0;
  double distance = 0.0;
  for (const sitstats::Bucket& bucket : histogram.buckets()) {
    distance = std::max(
        distance, std::fabs(cumulative / hist_total -
                            ToDouble(truth.WeightBelow(bucket.lo)) /
                                true_total));
    cumulative += bucket.frequency;
    distance = std::max(
        distance, std::fabs(cumulative / hist_total -
                            ToDouble(truth.WeightAtMost(bucket.hi)) /
                                true_total));
  }
  return distance;
}

double DkwRadius(double n, double delta) {
  return std::sqrt(std::log(2.0 / delta) / (2.0 * n));
}

std::vector<RangeQuery> MakeRangeQueries(const WeightedDistribution& truth,
                                         size_t count, double min_fraction,
                                         sitstats::Rng* rng) {
  std::vector<RangeQuery> queries;
  queries.reserve(count);
  const double floor = min_fraction * ToDouble(truth.total());
  for (size_t i = 0; i < count; ++i) {
    // Falls back to the whole domain, which always clears the floor.
    RangeQuery q{truth.min_value(), truth.max_value()};
    for (int attempt = 0; attempt < 4096; ++attempt) {
      const double a = rng->UniformDouble(truth.min_value(), truth.max_value());
      const double b = rng->UniformDouble(truth.min_value(), truth.max_value());
      if (ToDouble(truth.RangeWeight(std::min(a, b), std::max(a, b))) >=
          floor) {
        q = {std::min(a, b), std::max(a, b)};
        break;
      }
    }
    queries.push_back(q);
  }
  return queries;
}

double RelativeError(double estimate, double truth) {
  return std::fabs(estimate - truth) / std::max(truth, 1.0);
}

double QError(double estimate, double truth) {
  const double e = std::max(estimate, 1.0);
  const double t = std::max(truth, 1.0);
  return std::max(e, t) / std::min(e, t);
}

}  // namespace perfbench
