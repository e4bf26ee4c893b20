#include "tvp/util/rng.hpp"

#include <algorithm>
#include <cstdlib>

namespace tvp::util {

namespace {

std::size_t buffered_rng_capacity() noexcept {
  const char* env = std::getenv("TVP_RNG_BUFFER");
  if (!env || !*env) return 256;
  const long parsed = std::strtol(env, nullptr, 10);
  if (parsed < 1) return 1;
  return static_cast<std::size_t>(std::min(parsed, 1L << 20));
}

}  // namespace

BufferedRng::BufferedRng(Rng rng) noexcept : rng_(rng) {
  buf_.resize(buffered_rng_capacity());
  data_ = buf_.data();
  cap_ = buf_.size();
  pos_ = cap_;  // first next() refills
}

}  // namespace tvp::util
