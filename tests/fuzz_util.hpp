// Byte-level mutation helpers shared by the seeded fuzz tests (wire frames,
// scenario text, strategy checkpoint blobs).
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "io/checkpoint.hpp"

namespace trdse::fuzz {

/// Number of byte-level mutation kinds mutateBytes understands.
constexpr std::uint64_t kByteMutations = 3;

/// Apply byte-level mutation `op` to the non-empty `m`: 0 flips 1-4 bytes,
/// 1 truncates, 2 splices a prefix of `m` with a suffix of a random entry of
/// `samples`. Draws from `rng` only.
inline void mutateBytes(std::string& m, std::uint64_t op,
                        const std::vector<std::string>& samples,
                        std::mt19937_64& rng) {
  switch (op) {
    case 0:  // flip 1-4 bytes
      for (std::uint64_t f = 0, n = 1 + rng() % 4; f < n; ++f)
        m[rng() % m.size()] ^= static_cast<char>(1 + rng() % 255);
      break;
    case 1:  // truncate
      m.resize(rng() % m.size());
      break;
    default: {  // splice: a prefix of this sample, a suffix of another
      const std::string& other = samples[rng() % samples.size()];
      m = m.substr(0, rng() % (m.size() + 1)) +
          other.substr(rng() % (other.size() + 1));
    }
  }
}

/// Recompute a checkpoint container's body checksum (bytes 8-15 over the
/// bytes from 16 on), so a mutant reaches the section parsers instead of
/// stopping at the checksum. Blobs shorter than the header are left alone.
inline void reseal(std::string& blob) {
  if (blob.size() < 16) return;
  std::uint64_t sum = io::fnv1a64(blob.data() + 16, blob.size() - 16);
  for (std::size_t b = 0; b < 8; ++b, sum >>= 8)
    blob[8 + b] = static_cast<char>(sum & 0xff);
}

}  // namespace trdse::fuzz
