// Flat dynamic bitset.
//
// The dense per-vertex set of the Forward loop (kernels/forward.hpp) and a
// test/bench fixture. The LOTUS H2H structure has its own triangular bit
// array (lotus/h2h_bitarray.hpp) because its addressing scheme is part of the
// algorithm.
#pragma once

#include <cstdint>
#include <vector>

namespace lotus::util {

class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::uint64_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  [[nodiscard]] std::uint64_t size() const noexcept { return num_bits_; }

  void set(std::uint64_t i) noexcept { words_[i >> 6] |= 1ULL << (i & 63); }
  void clear(std::uint64_t i) noexcept { words_[i >> 6] &= ~(1ULL << (i & 63)); }
  [[nodiscard]] bool test(std::uint64_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  /// The backing words (bit i lives at data()[i >> 6] >> (i & 63)) — what
  /// the dispatched hits_bitset kernel reads.
  [[nodiscard]] const std::uint64_t* data() const noexcept { return words_.data(); }

  void reset() { std::fill(words_.begin(), words_.end(), 0); }

  [[nodiscard]] std::uint64_t count() const noexcept {
    std::uint64_t total = 0;
    for (std::uint64_t w : words_) total += static_cast<std::uint64_t>(__builtin_popcountll(w));
    return total;
  }

  /// |a ∩ b| for equal-sized bitsets — the word-parallel intersection used
  /// by the streaming HHH counter.
  [[nodiscard]] static std::uint64_t and_popcount(const Bitset& a, const Bitset& b) noexcept {
    const std::size_t n = std::min(a.words_.size(), b.words_.size());
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < n; ++i)
      total += static_cast<std::uint64_t>(__builtin_popcountll(a.words_[i] & b.words_[i]));
    return total;
  }

 private:
  std::uint64_t num_bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace lotus::util
