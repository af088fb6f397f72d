#include "sampling/reservoir.h"

#include <cmath>
#include <random>

#include "common/fault_injection.h"
#include "common/logging.h"

namespace sitstats {

ReservoirSampler::ReservoirSampler(size_t capacity, Rng* rng)
    : capacity_(capacity), rng_(rng) {
  SITSTATS_CHECK(capacity_ > 0) << "reservoir capacity must be positive";
  SITSTATS_CHECK(rng_ != nullptr);
  sample_.reserve(capacity_);
}

Result<ReservoirSampler> ReservoirSampler::Create(size_t capacity,
                                                  Rng* rng) {
  SITSTATS_FAULT_SITE("sampling.reservoir.create");
  if (capacity == 0) {
    return Status::InvalidArgument("reservoir capacity must be positive");
  }
  if (rng == nullptr) {
    return Status::InvalidArgument("reservoir sampler needs a random stream");
  }
  // The constructor reserves the full reservoir up front; model that
  // reservation failing before committing to it.
  SITSTATS_OOM_SITE("oom.sampling.reservoir", capacity * sizeof(double));
  return ReservoirSampler(capacity, rng);
}

template <typename ValueAt>
void ReservoirSampler::Offer(uint64_t count, ValueAt value_at) {
  uint64_t i = 0;
  // Fill phase: no randomness.
  for (; i < count && sample_.size() < capacity_; ++i) {
    sample_.push_back(value_at(i));
  }
  stream_size_ += i;
  // Algorithm R: element t replaces slot UniformInt(0, t - 1) when that
  // names a slot, i.e. with probability capacity / t.
  for (; i < count && stream_size_ < kAlgorithmRFactor * capacity_; ++i) {
    ++stream_size_;
    const auto pos = static_cast<uint64_t>(
        rng_->UniformInt(0, static_cast<int64_t>(stream_size_) - 1));
    if (pos < capacity_) sample_[pos] = value_at(i);
  }
  if (i == count) return;
  if (w_ == 0.0) BeginAlgorithmL();
  // Algorithm L: skip_ elements pass untouched, the next one replaces a
  // uniform slot, and its priority, uniform below w_, lowers w_ to the
  // largest of capacity uniforms below w_.
  while (skip_ < count - i) {
    i += static_cast<uint64_t>(skip_);
    stream_size_ += skip_ + 1;
    const auto slot = static_cast<size_t>(
        rng_->UniformInt(0, static_cast<int64_t>(capacity_) - 1));
    sample_[slot] = value_at(i);
    ++i;
    w_ *= std::exp(std::log(OpenUniform()) / static_cast<double>(capacity_));
    skip_ = NextSkip();
  }
  skip_ -= count - i;
  stream_size_ += count - i;
}

void ReservoirSampler::Add(double value) {
  Offer(1, [value](uint64_t) { return value; });
}

void ReservoirSampler::AddRepeated(double value, uint64_t count) {
  Offer(count, [value](uint64_t) { return value; });
}

void ReservoirSampler::AddBatch(std::span<const double> values) {
  Offer(values.size(), [values](uint64_t i) { return values[i]; });
}

void ReservoirSampler::BeginAlgorithmL() {
  // Give each of the t elements so far an independent uniform priority:
  // Algorithm R's sample is distributed as the capacity elements with the
  // smallest ones, and the capacity-th smallest of t uniforms is
  // Beta(capacity, t - capacity + 1), independent of which elements they
  // are. Drawing w_ from it (as X / (X + Y) with X, Y Gamma) continues
  // the same sampling process exactly.
  const auto k = static_cast<double>(capacity_);
  const auto t = static_cast<double>(stream_size_);
  std::gamma_distribution<double> kth_smallest(k);
  std::gamma_distribution<double> rest(t - k + 1.0);
  const double x = kth_smallest(rng_->engine());
  const double y = rest(rng_->engine());
  w_ = x / (x + y);
  skip_ = NextSkip();
}

ReservoirSampler::Position ReservoirSampler::NextSkip() {
  // Each element's priority falls below w_ with probability w_, so the
  // gap before the next one is geometric: P(skip >= s) = (1 - w_)^s.
  // Gaps past 2^127 (w_ below ~1e-37) mean no further replacement.
  const double skip =
      std::floor(std::log(OpenUniform()) / std::log1p(-w_));
  return skip < 0x1p127 ? static_cast<Position>(skip) : ~Position{0};
}

void ReservoirSampler::Reset() {
  sample_.clear();
  stream_size_ = 0;
  w_ = 0.0;
  skip_ = 0;
}

}  // namespace sitstats
