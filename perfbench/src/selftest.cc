// Self-tests of the benchmark's own checkers: the weight-pass truth must
// equal a brute-force nested-loop join, and the CDF-distance check must
// pass a histogram of the whole stream and flag one built from only the
// stream's last tenth.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "histogram/builder.h"
#include "sampling/reservoir.h"
#include "storage/catalog.h"
#include "truth.h"

namespace perfbench {

using namespace sitstats;  // NOLINT: benchmark driver, one namespace in use

namespace {

int failures = 0;

// Appends rather than `"T" + std::to_string(i)`, which trips a GCC 12
// -Wrestrict false positive.
std::string TableName(int i) {
  std::string name = "T";
  name += std::to_string(i);
  return name;
}

void Expect(bool condition, const std::string& what) {
  if (condition) return;
  ++failures;
  std::fprintf(stderr, "perfbench selftest FAILED: %s\n", what.c_str());
}

/// T1..T4, 5-8 rows each, join keys and payloads from {1..4}: small enough
/// to enumerate every row combination, dense enough that keys repeat.
Catalog TinyChain(Rng* rng) {
  Catalog catalog;
  for (int i = 1; i <= 4; ++i) {
    Schema schema;
    schema.AddColumn("jp", ValueType::kInt64);
    schema.AddColumn("jn", ValueType::kInt64);
    schema.AddColumn("a", ValueType::kInt64);
    Table* table =
        catalog.CreateTable(TableName(i), schema).ValueOrDie();
    const int64_t rows = rng->UniformInt(5, 8);
    for (int64_t r = 0; r < rows; ++r) {
      (void)table->AppendRow({Value(rng->UniformInt(1, 4)),
                              Value(rng->UniformInt(1, 4)),
                              Value(rng->UniformInt(1, 4))});
    }
  }
  return catalog;
}

void TestTruthMatchesBruteForce() {
  Rng rng(7);
  for (int round = 0; round < 5; ++round) {
    Catalog catalog = TinyChain(&rng);
    for (int first = 1; first <= 4; ++first) {
      for (int last = first; last <= 4; ++last) {
        for (int root = first; root <= last; ++root) {
          ChainQuery query{{}, static_cast<size_t>(root - first), "a"};
          for (int i = first; i <= last; ++i) {
            query.hops.push_back({TableName(i),
                                  i > first ? "jp" : "", i < last ? "jn" : ""});
          }
          Result<ChainTruth> fast = ComputeChainTruth(catalog, query);
          Result<WeightedDistribution> slow = BruteForceChain(catalog, query);
          const std::string name = TableName(first) + ".." +
                                   TableName(last) + " root " +
                                   TableName(root);
          Expect(fast.ok() && slow.ok(), "truth pass ran on " + name);
          if (!fast.ok() || !slow.ok()) continue;
          bool same = fast->distribution.total() == slow->total();
          for (double v = 0; v <= 5; v += 1) {
            same &= fast->distribution.WeightAtMost(v) == slow->WeightAtMost(v);
          }
          Expect(same, "weight pass equals nested-loop join on " + name);
        }
      }
    }
  }
}

void TestCdfCheckFlagsTailSample() {
  // A stream whose values drift with position (value = position / 20),
  // each row repeated 1..50 times, like a Sweep stream of (value, copies).
  Rng rng(11);
  const size_t rows = 20'000;
  std::vector<std::pair<double, uint64_t>> stream;
  std::vector<std::pair<double, Weight>> truth_pairs;
  for (size_t i = 0; i < rows; ++i) {
    const double value = static_cast<double>(i / 20);
    const auto copies = static_cast<uint64_t>(rng.UniformInt(1, 50));
    stream.emplace_back(value, copies);
    truth_pairs.emplace_back(value, copies);
  }
  const WeightedDistribution truth(std::move(truth_pairs));
  const size_t capacity = 2'000;
  const double bound = SweepCdfBound(static_cast<double>(capacity));

  auto histogram_of = [&](size_t from) {
    ReservoirSampler reservoir(capacity, &rng);
    double population = 0;
    for (size_t i = from; i < stream.size(); ++i) {
      reservoir.AddRepeated(stream[i].first, stream[i].second);
      population += static_cast<double>(stream[i].second);
    }
    return BuildHistogramFromSample(reservoir.sample(), population,
                                    HistogramSpec{})
        .ValueOrDie();
  };
  const double whole = CdfDistance(histogram_of(0), truth);
  const double tail = CdfDistance(histogram_of(rows - rows / 10), truth);
  Expect(whole <= bound, "CDF check passes a sample of the whole stream (" +
                             std::to_string(whole) + " vs bound " +
                             std::to_string(bound) + ")");
  Expect(tail > bound, "CDF check flags a sample of the last tenth (" +
                           std::to_string(tail) + " vs bound " +
                           std::to_string(bound) + ")");
}

}  // namespace

int RunSelfTests() {
  failures = 0;
  TestTruthMatchesBruteForce();
  TestCdfCheckFlagsTailSample();
  return failures;
}

}  // namespace perfbench
