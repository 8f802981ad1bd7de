#pragma once

// Fixture: sim must never include scenario (or any layer above itself).
#include "scenario/spec.hpp"

#include "metrics/ledger.hpp"  // a directive after a blank line counts too

namespace fix {
struct SimThing {};
}  // namespace fix
