#ifndef SITSTATS_SAMPLING_RESERVOIR_H_
#define SITSTATS_SAMPLING_RESERVOIR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace sitstats {

/// One-pass uniform reservoir sampler: Vitter's Algorithm R [19] over the
/// first kAlgorithmRFactor * capacity stream elements, then Li's
/// Algorithm L, which draws the gap to the next replacement directly.
///
/// Sweep streams the approximated join projection — conceptually "n copies
/// of a_i" per scanned tuple — through one of these (step 4 in Figure 2 of
/// the paper), so the temporary table is never materialized. Add,
/// AddRepeated and AddBatch drive one state machine whose pending skip
/// carries across calls: an element that falls inside the current skip
/// costs a compare and a subtract, so a run of n copies costs O(1) plus
/// O(replacements), about capacity * ln(stream / capacity) over a stream.
/// All three consume the same draws for the same stream, however it is
/// split into calls.
///
/// Stream positions are 128-bit: multi-way join streams pass 2^64 copies.
class ReservoirSampler {
 public:
  /// Algorithm R handles stream positions below this multiple of the
  /// capacity (one draw per element, cheaper than L's logs and pow while
  /// most elements still replace); Algorithm L takes over past it.
  /// bench_micro's BM_ReservoirDense/BM_ReservoirMid cases measure the
  /// choice.
  static constexpr uint64_t kAlgorithmRFactor = 8;

  /// `capacity`: maximum sample size (> 0). `rng` is borrowed and must
  /// outlive the sampler.
  ReservoirSampler(size_t capacity, Rng* rng);

  /// Fallible construction: rejects capacity == 0 or a null rng with a
  /// Status instead of aborting, and carries the sampling layer's
  /// fault-injection site ("sampling.reservoir.create"). Library code that
  /// can propagate errors (the sweep scan) uses this; the constructor
  /// remains for contexts where a violation is a programming error.
  static Result<ReservoirSampler> Create(size_t capacity, Rng* rng);

  /// Offers one stream element.
  void Add(double value);

  /// Offers `count` consecutive copies of `value`; draw-for-draw identical
  /// to calling Add(value) `count` times.
  void AddRepeated(double value, uint64_t count);

  /// Offers every element of `values` in order; draw-for-draw identical to
  /// calling Add per element, which keeps samples byte-identical between
  /// the batched and row-at-a-time sweep paths.
  void AddBatch(std::span<const double> values);

  /// Number of stream elements offered so far, saturating at UINT64_MAX
  /// (the sampler itself tracks positions up to 2^128).
  uint64_t stream_size() const {
    return stream_size_ > UINT64_MAX ? UINT64_MAX
                                     : static_cast<uint64_t>(stream_size_);
  }

  /// The current sample (size = min(capacity, stream_size)).
  const std::vector<double>& sample() const { return sample_; }
  size_t capacity() const { return capacity_; }

  /// Clears the sample and the stream state for reuse.
  void Reset();

 private:
  using Position = unsigned __int128;

  /// The one state machine behind Add, AddRepeated and AddBatch: offers
  /// the `count` elements value_at(0), ..., value_at(count - 1).
  template <typename ValueAt>
  void Offer(uint64_t count, ValueAt value_at);
  /// Switches to Algorithm L at the current stream position.
  void BeginAlgorithmL();
  /// Draws the number of elements Algorithm L skips before its next
  /// replacement.
  Position NextSkip();
  /// Uniform double in (0, 1], safe to take the log of.
  double OpenUniform() { return 1.0 - rng_->NextDouble(); }

  size_t capacity_;
  Rng* rng_;
  std::vector<double> sample_;
  Position stream_size_ = 0;
  /// Algorithm L state: the capacity-th smallest of the stream's uniform
  /// priorities so far (0 while Algorithm R runs), and the number of
  /// elements still to skip before the next replacement.
  double w_ = 0.0;
  Position skip_ = 0;
};

}  // namespace sitstats

#endif  // SITSTATS_SAMPLING_RESERVOIR_H_
