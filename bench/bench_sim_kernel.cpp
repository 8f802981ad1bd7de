// Sim-kernel bench: the simulator's event queue against the frozen
// pre-rewrite queue (reference_event_queue.hpp), timed in one process.
//
// Hold model: a steady population of pending events. Each operation pops
// the earliest event, runs its callback and pushes one at now + an
// exponential delay. A share of operations also cancels a recently pushed
// event and pushes a replacement, as timer resets do. Populations and
// cancel shares are those measured on the nominal catalog workloads:
//   churn_detect — 4209 pending on average, 2476 cancels / 1348523 pushes;
//   flood        — 7436 pending on average, 6028 cancels / 2624294 pushes.
//
// Each repetition runs both queues over the same operation stream,
// alternating which goes first, and asserts they executed the same
// callbacks in the same order. The gate is the new/reference ratio taken
// within a repetition, so the box's speed divides out: the median over
// the repetitions must be below 1.0 at every population, else exit 1.
// Prints the median and range of ns/op per queue and of the ratio.
//
//   bench_sim_kernel           2M timed operations per run
//   bench_sim_kernel --smoke   200k timed operations per run (CI)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "reference_event_queue.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace {

using namespace mafic;

struct Workload {
  const char* name;
  std::size_t population;
  double cancel_share;  ///< cancels per push
};

constexpr Workload kWorkloads[] = {
    {"churn_detect", 4209, 2476.0 / 1348523.0},
    {"flood", 7436, 6028.0 / 2624294.0},
};
constexpr int kReps = 5;
/// Cancels pick one of the last kRecent pushes, most of which are pending.
constexpr std::size_t kRecent = 256;

struct RunResult {
  double ns_per_op;
  std::uint64_t checksum;  ///< order-sensitive digest of callbacks run
};

template <typename Queue>
RunResult hold(const Workload& w, std::size_t ops, std::uint64_t seed) {
  Queue q;
  util::Rng rng(seed);
  std::uint64_t digest = 0;
  std::uint64_t next_tag = 0;
  std::vector<sim::EventId> recent(kRecent, sim::kInvalidEvent);
  double now = 0.0;

  auto push = [&](double t) {
    const std::uint64_t tag = next_tag++;
    recent[tag % kRecent] =
        q.push(t, [&digest, tag] { digest = digest * 31 + tag; });
  };
  auto step = [&] {
    auto ev = q.pop();
    now = ev.time;
    ev.fn();
    push(now + rng.exponential(1.0));
    if (rng.bernoulli(w.cancel_share)) {
      if (q.cancel(recent[rng.index(kRecent)])) digest ^= 0x5bd1e995;
      push(now + rng.exponential(1.0));
    }
  };

  for (std::size_t i = 0; i < w.population; ++i) push(rng.exponential(1.0));
  for (std::size_t i = 0; i < w.population; ++i) step();  // one turnover

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) step();
  const auto t1 = std::chrono::steady_clock::now();
  const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  return {ns / double(ops), digest ^ q.size()};
}

struct Spread {
  double median, lo, hi;
};

Spread spread(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const double median =
      n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  return {median, v.front(), v.back()};
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const std::size_t ops = smoke ? 200'000 : 2'000'000;
  std::printf("== sim kernel: event queue hold model (%s, %zu ops/run, "
              "%d interleaved reps) ==\n",
              smoke ? "smoke" : "full", ops, kReps);

  bool ok = true;
  for (const Workload& w : kWorkloads) {
    std::vector<double> fresh, ref, ratio;
    for (int rep = 0; rep < kReps; ++rep) {
      const std::uint64_t seed = 0x5eed0000u + std::uint64_t(rep);
      RunResult a{}, b{};
      if (rep % 2 == 0) {
        a = hold<sim::EventQueue>(w, ops, seed);
        b = hold<bench::ReferenceEventQueue>(w, ops, seed);
      } else {
        b = hold<bench::ReferenceEventQueue>(w, ops, seed);
        a = hold<sim::EventQueue>(w, ops, seed);
      }
      if (a.checksum != b.checksum) {
        std::printf("FAIL %s rep %d: queues diverged (%016llx vs %016llx)\n",
                    w.name, rep, static_cast<unsigned long long>(a.checksum),
                    static_cast<unsigned long long>(b.checksum));
        return 1;
      }
      fresh.push_back(a.ns_per_op);
      ref.push_back(b.ns_per_op);
      ratio.push_back(a.ns_per_op / b.ns_per_op);
    }
    const Spread f = spread(fresh), r = spread(ref), x = spread(ratio);
    std::printf("%-12s population %zu, cancel share %.3f%%\n", w.name,
                w.population, 100.0 * w.cancel_share);
    std::printf("  event queue  ns/op  median %7.1f  range [%.1f, %.1f]\n",
                f.median, f.lo, f.hi);
    std::printf("  reference    ns/op  median %7.1f  range [%.1f, %.1f]\n",
                r.median, r.lo, r.hi);
    std::printf("  new/ref      ratio  median %7.3f  range [%.3f, %.3f]\n",
                x.median, x.lo, x.hi);
    if (x.median >= 1.0) {
      std::printf("FAIL %s: median new/reference ratio %.3f >= 1.0\n",
                  w.name, x.median);
      ok = false;
    }
  }
  if (ok) std::printf("PASS: the event queue beats the reference queue\n");
  return ok ? 0 : 1;
}
