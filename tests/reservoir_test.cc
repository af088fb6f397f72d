#include "sampling/reservoir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "sampling/bernoulli.h"

namespace sitstats {
namespace {

TEST(ReservoirTest, KeepsEverythingBelowCapacity) {
  Rng rng(1);
  ReservoirSampler sampler(10, &rng);
  for (int i = 0; i < 5; ++i) sampler.Add(i);
  EXPECT_EQ(sampler.sample().size(), 5u);
  EXPECT_EQ(sampler.stream_size(), 5u);
}

TEST(ReservoirTest, CapsAtCapacity) {
  Rng rng(2);
  ReservoirSampler sampler(10, &rng);
  for (int i = 0; i < 1000; ++i) sampler.Add(i);
  EXPECT_EQ(sampler.sample().size(), 10u);
  EXPECT_EQ(sampler.stream_size(), 1000u);
}

TEST(ReservoirTest, ResetClears) {
  Rng rng(3);
  ReservoirSampler sampler(4, &rng);
  for (int i = 0; i < 100; ++i) sampler.Add(i);
  sampler.Reset();
  EXPECT_EQ(sampler.sample().size(), 0u);
  EXPECT_EQ(sampler.stream_size(), 0u);
}

TEST(ReservoirTest, UniformInclusionProbability) {
  // Each of 200 stream elements should land in a size-20 reservoir with
  // probability 0.1; average inclusion counts over many trials.
  const int kStream = 200;
  const int kCap = 20;
  const int kTrials = 3'000;
  std::vector<int> included(kStream, 0);
  Rng rng(7);
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSampler sampler(kCap, &rng);
    for (int i = 0; i < kStream; ++i) {
      sampler.Add(static_cast<double>(i));
    }
    for (double v : sampler.sample()) {
      included[static_cast<size_t>(v)] += 1;
    }
  }
  for (int i = 0; i < kStream; ++i) {
    double rate = static_cast<double>(included[static_cast<size_t>(i)]) /
                  kTrials;
    EXPECT_NEAR(rate, 0.1, 0.03) << "element " << i;
  }
}

TEST(ReservoirTest, AddRepeatedMatchesIndividualAddsDistribution) {
  // The fraction of the sample holding the repeated value must match its
  // stream share whether added via Add or AddRepeated.
  const uint64_t kRun = 5'000;
  const int kCap = 500;
  Rng rng1(11);
  Rng rng2(12);
  ReservoirSampler a(kCap, &rng1);
  ReservoirSampler b(kCap, &rng2);
  for (int i = 0; i < 5'000; ++i) {
    a.Add(1.0);
    b.Add(1.0);
  }
  for (uint64_t i = 0; i < kRun; ++i) a.Add(2.0);
  b.AddRepeated(2.0, kRun);
  EXPECT_EQ(a.stream_size(), b.stream_size());
  auto share = [](const ReservoirSampler& s, double v) {
    double hits = 0;
    for (double x : s.sample()) {
      if (x == v) hits += 1;
    }
    return hits / static_cast<double>(s.sample().size());
  };
  EXPECT_NEAR(share(a, 2.0), 0.5, 0.07);
  EXPECT_NEAR(share(b, 2.0), 0.5, 0.07);
}

TEST(ReservoirTest, HugeRunsUseSkipSamplingAndStayUnbiased) {
  // Stream: 1e9 copies of A, then 1e9 copies of B, then 2e9 copies of C.
  // Expected sample shares: 25% / 25% / 50%. Must complete fast (skip
  // sampling) and unbiased despite positions ~1e9.
  Rng rng(13);
  ReservoirSampler sampler(2'000, &rng);
  sampler.AddRepeated(1.0, 1'000'000'000ull);
  sampler.AddRepeated(2.0, 1'000'000'000ull);
  sampler.AddRepeated(3.0, 2'000'000'000ull);
  EXPECT_EQ(sampler.stream_size(), 4'000'000'000ull);
  std::map<double, int> counts;
  for (double v : sampler.sample()) counts[v] += 1;
  double n = static_cast<double>(sampler.sample().size());
  EXPECT_NEAR(counts[1.0] / n, 0.25, 0.04);
  EXPECT_NEAR(counts[2.0] / n, 0.25, 0.04);
  EXPECT_NEAR(counts[3.0] / n, 0.50, 0.04);
}

TEST(ReservoirTest, ManyInterleavedRunsKeepProportions) {
  // Alternating runs of two values with 1:3 weight ratio.
  Rng rng(17);
  ReservoirSampler sampler(1'000, &rng);
  for (int i = 0; i < 200; ++i) {
    sampler.AddRepeated(1.0, 10'000);
    sampler.AddRepeated(2.0, 30'000);
  }
  double ones = 0;
  for (double v : sampler.sample()) {
    if (v == 1.0) ones += 1;
  }
  EXPECT_NEAR(ones / 1'000.0, 0.25, 0.05);
}

TEST(ReservoirTest, StreamCountsPastUint32StayExact) {
  // Overflow regression (ISSUE 4): join-multiplicity streams exceed
  // 2^32 rows at production scale, so stream positions must be tracked
  // in 64 bits — a 32-bit counter would wrap and re-inflate inclusion
  // probabilities. Skip sampling keeps this cheap despite the counts.
  Rng rng(37);
  ReservoirSampler sampler(100, &rng);
  const uint64_t kRun = (1ull << 31) + 12'345;
  sampler.AddRepeated(1.0, kRun);
  sampler.AddRepeated(2.0, kRun);
  sampler.AddRepeated(3.0, kRun);
  const uint64_t expected = 3 * kRun;  // 6'442'487'939 > 2^32
  ASSERT_GT(expected, 1ull << 32);
  EXPECT_EQ(sampler.stream_size(), expected);
  EXPECT_EQ(sampler.sample().size(), 100u);
  // Late elements still displace early ones: with 2/3 of the stream
  // being values 2 and 3, a sample of only value 1 has probability
  // ~(1/3)^100 under correct 64-bit accounting.
  int late = 0;
  for (double v : sampler.sample()) {
    if (v != 1.0) late += 1;
  }
  EXPECT_GT(late, 0);
}

TEST(ReservoirTest, CapacityEqualToStreamLengthKeepsEverything) {
  // Boundary: the fill phase exactly consumes the stream. No replacement
  // draw may fire, so the sample is the stream verbatim and the rng is
  // untouched (checked by comparing against a fresh rng's next draw).
  Rng rng(41);
  Rng control(41);
  const size_t kLen = 256;
  ReservoirSampler sampler(kLen, &rng);
  for (size_t i = 0; i < kLen; ++i) sampler.Add(static_cast<double>(i));
  ASSERT_EQ(sampler.sample().size(), kLen);
  EXPECT_EQ(sampler.stream_size(), kLen);
  for (size_t i = 0; i < kLen; ++i) {
    EXPECT_EQ(sampler.sample()[i], static_cast<double>(i));
  }
  EXPECT_EQ(rng.NextDouble(), control.NextDouble());
}

TEST(ReservoirTest, CapacityOneLessThanStreamLengthDrawsExactlyOnce) {
  // Boundary: stream_length == capacity + 1 — exactly one replacement
  // decision happens, for the final element.
  Rng rng(43);
  Rng control(43);
  const size_t kCap = 255;
  ReservoirSampler sampler(kCap, &rng);
  for (size_t i = 0; i < kCap + 1; ++i) sampler.Add(static_cast<double>(i));
  EXPECT_EQ(sampler.sample().size(), kCap);
  EXPECT_EQ(sampler.stream_size(), kCap + 1);
  // The one decision consumed exactly one draw.
  (void)control.UniformInt(0, static_cast<int64_t>(kCap + 1) - 1);
  EXPECT_EQ(rng.NextDouble(), control.NextDouble());
}

TEST(ReservoirTest, AddRepeatedAtCapacityBoundaries) {
  // AddRepeated runs hitting exactly capacity and capacity - 1: the
  // sample must never report more elements than were offered, and the
  // accept set must match per-element Add exactly (same seed).
  for (uint64_t delta : {uint64_t{0}, uint64_t{1}}) {
    const uint64_t kCap = 128;
    const uint64_t len = kCap - delta;
    Rng rng_run(47);
    Rng rng_single(47);
    ReservoirSampler via_run(kCap, &rng_run);
    ReservoirSampler via_add(kCap, &rng_single);
    via_run.AddRepeated(7.5, len);
    for (uint64_t i = 0; i < len; ++i) via_add.Add(7.5);
    EXPECT_EQ(via_run.stream_size(), len);
    EXPECT_EQ(via_run.sample().size(), len);
    EXPECT_EQ(via_run.sample(), via_add.sample());
    EXPECT_EQ(rng_run.NextDouble(), rng_single.NextDouble());
  }
}

TEST(ReservoirTest, AddBatchMatchesPerElementAddExactly) {
  // The batched sweep path feeds the reservoir whole spans; the accept
  // set (and hence the built SIT) must be byte-identical to per-element
  // offers with the same seed — including when the batch straddles the
  // fill/replace boundary.
  std::vector<double> stream;
  for (int i = 0; i < 5'000; ++i) stream.push_back(i * 0.5);
  for (size_t batch_size : {1ul, 7ul, 100ul, 4'096ul, 5'000ul}) {
    Rng rng_batch(53);
    Rng rng_single(53);
    ReservoirSampler batched(100, &rng_batch);
    ReservoirSampler single(100, &rng_single);
    for (size_t begin = 0; begin < stream.size(); begin += batch_size) {
      size_t n = std::min(batch_size, stream.size() - begin);
      batched.AddBatch(std::span<const double>(stream.data() + begin, n));
    }
    for (double v : stream) single.Add(v);
    EXPECT_EQ(batched.stream_size(), single.stream_size());
    EXPECT_EQ(batched.sample(), single.sample()) << "batch " << batch_size;
  }
}

// Sum of (observed - expected)^2 / expected over the cells.
double ChiSquare(const std::vector<double>& observed,
                 const std::vector<double>& expected) {
  double chi2 = 0.0;
  for (size_t i = 0; i < observed.size(); ++i) {
    const double d = observed[i] - expected[i];
    chi2 += d * d / expected[i];
  }
  return chi2;
}

// Upper acceptance bound for a chi-square statistic on `dof` degrees of
// freedom: six standard deviations above its mean.
double ChiSquareBound(size_t dof) {
  return static_cast<double>(dof) + 6.0 * std::sqrt(2.0 * dof);
}

TEST(ReservoirTest, StreamPastTwoToThe64KeepsProportions) {
  // Wrap regression: 2^64 copies of 0.0, then 2^62 copies of 1.0. The
  // stream position passes 2^64, so a 64-bit counter would wrap to ~2^62
  // and the second run would overwrite nearly every slot. Correct share
  // of 1.0: 2^62 / (2^64 + 2^62) = 0.2.
  Rng rng(67);
  const size_t kCap = 1'000;
  ReservoirSampler sampler(kCap, &rng);
  sampler.AddRepeated(0.0, uint64_t{1} << 63);
  sampler.AddRepeated(0.0, uint64_t{1} << 63);
  sampler.AddRepeated(1.0, uint64_t{1} << 62);
  ASSERT_EQ(sampler.sample().size(), kCap);
  double ones = 0;
  for (double v : sampler.sample()) {
    if (v == 1.0) ones += 1;
  }
  const double sigma = std::sqrt(kCap * 0.2 * 0.8);
  EXPECT_NEAR(ones, kCap * 0.2, 6.0 * sigma);
}

TEST(ReservoirTest, StreamSizeSaturatesPastTwoToThe64) {
  Rng rng(71);
  ReservoirSampler sampler(10, &rng);
  const uint64_t kMax = std::numeric_limits<uint64_t>::max();
  sampler.AddRepeated(1.0, kMax);
  EXPECT_EQ(sampler.stream_size(), kMax);
  sampler.AddRepeated(2.0, 1);
  EXPECT_EQ(sampler.stream_size(), kMax);
  sampler.AddRepeated(3.0, kMax);
  EXPECT_EQ(sampler.stream_size(), kMax);
  EXPECT_EQ(sampler.sample().size(), 10u);
  sampler.Reset();
  EXPECT_EQ(sampler.stream_size(), 0u);
  sampler.AddRepeated(4.0, 3);
  EXPECT_EQ(sampler.stream_size(), 3u);
}

TEST(ReservoirTest, InclusionUniformAcrossAlgorithmLHandoff) {
  // Single-element stream of 1000 positions into a size-10 reservoir:
  // Algorithm R covers positions 1..80, Algorithm L the rest. Every
  // position must be kept with probability 10 / 1000 on both sides of
  // the switch.
  const size_t kStream = 1'000;
  const size_t kCap = 10;
  const int kTrials = 20'000;
  const size_t kSwitch = ReservoirSampler::kAlgorithmRFactor * kCap;
  ASSERT_LT(kSwitch, kStream);
  std::vector<double> included(kStream, 0.0);
  Rng rng(73);
  for (int trial = 0; trial < kTrials; ++trial) {
    ReservoirSampler sampler(kCap, &rng);
    for (size_t i = 0; i < kStream; ++i) {
      sampler.Add(static_cast<double>(i));
    }
    for (double v : sampler.sample()) included[static_cast<size_t>(v)] += 1;
  }
  const double expected = static_cast<double>(kTrials) * kCap / kStream;
  auto chi2_over = [&](size_t begin, size_t end) {
    return ChiSquare(
        std::vector<double>(included.begin() + begin, included.begin() + end),
        std::vector<double>(end - begin, expected));
  };
  EXPECT_LT(chi2_over(0, kStream), ChiSquareBound(kStream - 1));
  EXPECT_LT(chi2_over(0, kSwitch), ChiSquareBound(kSwitch - 1));
  EXPECT_LT(chi2_over(kSwitch, kStream), ChiSquareBound(kStream - kSwitch - 1));
  // A biased handoff shifts the mean inclusion rate of the Algorithm R
  // positions against the rest (every trial keeps exactly kCap, so the
  // two means move together). Band: six standard deviations.
  double before_switch = 0;
  for (size_t i = 0; i < kSwitch; ++i) before_switch += included[i];
  EXPECT_NEAR(before_switch / kSwitch / kTrials, 0.01, 0.0005);
}

TEST(ReservoirTest, RunsOfCopiesIncludedInProportionToLength) {
  // 1000 runs of 1..20 copies through AddRepeated: each sample slot holds
  // run i with probability len_i / total, across the R-to-L switch (which
  // falls inside the first few runs) and the carried skips after it.
  const size_t kRuns = 1'000;
  const size_t kCap = 10;
  const int kTrials = 20'000;
  std::vector<uint64_t> lengths(kRuns);
  double total = 0;
  for (size_t i = 0; i < kRuns; ++i) {
    lengths[i] = 1 + (i * 7) % 20;
    total += static_cast<double>(lengths[i]);
  }
  std::vector<double> observed(kRuns, 0.0);
  Rng rng(79);
  for (int trial = 0; trial < kTrials; ++trial) {
    ReservoirSampler sampler(kCap, &rng);
    for (size_t i = 0; i < kRuns; ++i) {
      sampler.AddRepeated(static_cast<double>(i), lengths[i]);
    }
    for (double v : sampler.sample()) observed[static_cast<size_t>(v)] += 1;
  }
  std::vector<double> expected(kRuns);
  for (size_t i = 0; i < kRuns; ++i) {
    expected[i] = static_cast<double>(kTrials) * kCap *
                  static_cast<double>(lengths[i]) / total;
  }
  EXPECT_LT(ChiSquare(observed, expected), ChiSquareBound(kRuns - 1));
}

TEST(ReservoirTest, AddRepeatedAddAndAddBatchAgreeDrawForDraw) {
  // A stream of runs crossing the R-to-L switch and then many carried
  // skips, offered three ways with the same seed: the samples and the
  // rng state afterwards must be identical.
  const size_t kCap = 16;
  std::vector<std::pair<double, uint64_t>> runs;
  Rng lengths(83);
  for (int i = 0; i < 3'000; ++i) {
    runs.emplace_back(i * 0.25, static_cast<uint64_t>(lengths.UniformInt(
                                    i % 3 == 0 ? 0 : 1, 40)));
  }
  std::vector<double> expanded;
  for (const auto& [value, count] : runs) {
    expanded.insert(expanded.end(), count, value);
  }
  ASSERT_GT(expanded.size(), 20 * ReservoirSampler::kAlgorithmRFactor * kCap);

  Rng rng_run(89);
  ReservoirSampler via_run(kCap, &rng_run);
  for (const auto& [value, count] : runs) via_run.AddRepeated(value, count);

  Rng rng_add(89);
  ReservoirSampler via_add(kCap, &rng_add);
  for (double v : expanded) via_add.Add(v);
  EXPECT_EQ(via_run.stream_size(), via_add.stream_size());
  EXPECT_EQ(via_run.sample(), via_add.sample());
  const uint64_t next_draw = rng_add.NextUint64();
  EXPECT_EQ(rng_run.NextUint64(), next_draw);

  for (size_t batch_size : {1ul, 13ul, 128ul, 4'096ul}) {
    Rng rng_batch(89);
    ReservoirSampler via_batch(kCap, &rng_batch);
    for (size_t begin = 0; begin < expanded.size(); begin += batch_size) {
      const size_t n = std::min(batch_size, expanded.size() - begin);
      via_batch.AddBatch(std::span<const double>(expanded.data() + begin, n));
    }
    EXPECT_EQ(via_batch.stream_size(), via_add.stream_size());
    EXPECT_EQ(via_batch.sample(), via_add.sample()) << "batch " << batch_size;
    EXPECT_EQ(rng_batch.NextUint64(), next_draw);
  }
}

TEST(BernoulliSampleTest, RateZeroAndOne) {
  Rng rng(19);
  std::vector<double> values(100, 1.0);
  EXPECT_TRUE(BernoulliSample(values, 0.0, &rng).empty());
  EXPECT_EQ(BernoulliSample(values, 1.0, &rng).size(), 100u);
}

TEST(BernoulliSampleTest, BoundaryRatesAgreeWithSampleSizeClamp) {
  // The sampler's boundary semantics mirror CostModel::SampleSize's
  // [0, num_rows] clamp: nothing kept at rate <= 0 or NaN, everything at
  // rate >= 1 (without consuming randomness).
  Rng rng(59);
  std::vector<double> values(1'000, 1.0);
  EXPECT_TRUE(BernoulliSample(values, -0.5, &rng).empty());
  EXPECT_TRUE(
      BernoulliSample(values, std::numeric_limits<double>::quiet_NaN(), &rng)
          .empty());
  EXPECT_EQ(BernoulliSample(values, 1.0 + 1e-9, &rng).size(), 1'000u);
  // A denormal rate is a legal (0, 1) probability: each element keeps
  // with probability ~5e-324, so nothing survives here — but the call
  // must not trip the reserve-size cast or treat the rate as zero-or-one.
  std::vector<double> denormal_sample = BernoulliSample(
      values, std::numeric_limits<double>::denorm_min(), &rng);
  EXPECT_LE(denormal_sample.size(), values.size());
}

TEST(BernoulliSampleTest, AppendFormMatchesWholeVectorAcceptSet) {
  std::vector<double> values;
  for (int i = 0; i < 10'000; ++i) values.push_back(i);
  Rng rng_whole(61);
  Rng rng_chunks(61);
  std::vector<double> whole = BernoulliSample(values, 0.3, &rng_whole);
  std::vector<double> chunked;
  for (size_t begin = 0; begin < values.size(); begin += 997) {
    size_t n = std::min<size_t>(997, values.size() - begin);
    BernoulliSampleAppend(values.data() + begin, n, 0.3, &rng_chunks,
                          &chunked);
  }
  EXPECT_EQ(chunked, whole);
}

TEST(BernoulliSampleTest, ApproximatesRate) {
  Rng rng(23);
  std::vector<double> values(100'000, 1.0);
  std::vector<double> sample = BernoulliSample(values, 0.2, &rng);
  EXPECT_NEAR(static_cast<double>(sample.size()), 20'000.0, 1'500.0);
}

TEST(SampleWithoutReplacementTest, ExactSize) {
  Rng rng(29);
  std::vector<double> values;
  for (int i = 0; i < 1'000; ++i) values.push_back(i);
  std::vector<double> sample = SampleWithoutReplacement(values, 50, &rng);
  EXPECT_EQ(sample.size(), 50u);
  // No duplicates (values were distinct).
  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(SampleWithoutReplacementTest, KLargerThanInput) {
  Rng rng(31);
  std::vector<double> values = {1, 2, 3};
  EXPECT_EQ(SampleWithoutReplacement(values, 50, &rng).size(), 3u);
  EXPECT_TRUE(SampleWithoutReplacement(values, 0, &rng).empty());
}

}  // namespace
}  // namespace sitstats
