#pragma once

// Fixture: a manifest-listed stateless-coin file (named seam sub-group)
// that draws its coin from a stateful stream — once through the RNG
// header (caught on the include path, a string literal), once naming
// the generator, once calling its Bernoulli draw. A commented-out
// include of the header is not a finding:
// #include "util/rng.hpp"

#include "util/rng.hpp"

namespace fix {

struct Coin {
  util::Rng stream;
  bool drop(double pd) { return stream.bernoulli(pd); }
};

}  // namespace fix
