// Harness self-tests: quantile, per-step minimum and self-time arithmetic
// on hand-built samples and spans, the result line's layout, the
// child-process helper, a tampered golden fingerprint that must register
// as a failed operation, and a traced smoke-scale fleet run. Run with
// `perfbench --self-test`; selftest.py runs it together with the
// metric-name grammar and output-schema tests.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/scenario_catalog.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_quantiles() {
  expect(near(quantile({4, 1, 3, 2}, 0.5), 2.5), "median of an even count interpolates");
  expect(near(median({7, 1, 5}), 5), "median of an odd count is the middle sample");
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(near(quantile(v, 0.99), 99.01), "p99 of 1..100");
  expect(near(quantile(v, 0.0), 1) && near(quantile(v, 1.0), 100), "p0 and p100 are the extremes");
  expect(quantile({}, 0.5) == 0.0, "no samples read 0");
  expect(fastest_of({{3, 1, 4}, {2, 5, 1}, {9, 9, 2}}) == std::vector<double>{2, 1, 1},
         "fastest_of keeps each sample's fastest repetition");
  bool threw = false;
  try {
    fastest_of({{1, 2}, {1}});
  } catch (const std::exception&) {
    threw = true;
  }
  expect(threw, "fastest_of rejects repetitions of different lengths");
}

void test_self_time() {
  // bench.run [0,10] holds sim.step [1,6] (which holds two core.drain
  // spans of 1 s and 0.5 s) and metrics.snapshot [7,8].
  const std::vector<Span> spans = {
      {"bench.run", 0, 10, -1},  {"sim.step", 1, 6, 0},        {"core.drain", 2, 3, 1},
      {"core.drain", 4, 4.5, 1}, {"metrics.snapshot", 7, 8, 0},
  };
  const auto self = layer_self_s(spans);
  expect(near(self.at("bench"), 4), "root self time excludes its children");
  expect(near(self.at("sim"), 3.5), "a layer's self time excludes nested layers");
  expect(near(self.at("core"), 1.5), "leaf spans keep their whole duration");
  expect(near(self.at("metrics"), 1), "sibling spans are independent");
  expect(near(total_s(spans, "core.drain"), 1.5), "total_s sums every span of a name");
  // A child that overruns its parent only covers the overlap.
  const auto clipped = layer_self_s({{"a.p", 0, 2, -1}, {"b.c", 1, 5, 0}});
  expect(near(clipped.at("a"), 1) && near(clipped.at("b"), 4), "children clip to the parent");
  expect(layer_of("core.fleet_drain") == "core" && layer_of("plain") == "plain",
         "layer is the name up to the first dot");
}

void test_result_json() {
  Result r;
  r.attempted = 3;
  r.failed = 1;
  r.values["a"] = 1.5;
  const std::string line = r.json({{"a", "s"}, {"b", "count"}}, /*zero_missing=*/true);
  expect(line == "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": "
                 "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0, "
                 "\"unit\": \"count\"}}}",
         "result line layout");
  Result e;
  e.attempted = 1;
  e.values["a"] = NAN;
  e.json({{"a", "s"}, {"b", "s"}}, /*zero_missing=*/false);
  expect(e.errors.size() == 2 && !e.correct(), "missing and non-finite metrics are errors");
}

void test_child() {
  expect(run_in_child([] { return std::string("a\0b", 3); }) == std::string("a\0b", 3),
         "a child's reply comes back byte for byte");
  std::string what;
  try {
    run_in_child([]() -> std::string { throw std::runtime_error("boom"); });
  } catch (const std::exception& e) {
    what = e.what();
  }
  expect(what == "boom", "a child's exception is rethrown with its message");
  std::string packed;
  put(packed, 2.5);
  put(packed, std::uint32_t(7));
  std::size_t at = 0;
  const double x = get<double>(packed, at);
  expect(x == 2.5 && get<std::uint32_t>(packed, at) == 7 && at == packed.size(),
         "put and get round-trip");
}

void test_tampered_golden() {
  namespace sc = mafic::scenario;
  expect(check_fingerprint("self-test", 1, 2) == 1 && check_fingerprint("self-test", 5, 5) == 0,
         "check_fingerprint counts a mismatch as one failure");
  ScenarioWorkload w = *find_scenario_workload("flood");
  const sc::ScenarioSpec spec = sc::smoke_scale(workload_spec(w, 33));
  Options opt;
  opt.workload = w.name;
  opt.seconds = 0.0;
  // Unpinned: the scalar oracle of the same spec agrees with the runs.
  const Result fresh = measure_scenario(w, spec, /*pinned=*/false, opt);
  expect(fresh.attempted == w.min_reps && fresh.failed == 0, "runs match their scalar oracle");
  w.golden = sc::fingerprint(sc::run_scenario(spec, sc::equivalence_strategies()[0]).result);
  const Result pinned = measure_scenario(w, spec, /*pinned=*/true, opt);
  expect(pinned.failed == 0, "the true golden passes");
  w.golden ^= 1;
  const Result tampered = measure_scenario(w, spec, /*pinned=*/true, opt);
  expect(tampered.attempted == w.min_reps && tampered.failed == tampered.attempted &&
             !tampered.correct(),
         "a tampered golden registers every run as a failed operation");
}

void test_traced_fleet() {
  namespace sc = mafic::scenario;
  const ScenarioWorkload& w = *find_scenario_workload("flood");
  Options opt;
  opt.workload = w.name;
  opt.trace = true;
  const Result r = measure_scenario(w, sc::smoke_scale(workload_spec(w, 33)),
                                    /*pinned=*/false, opt);
  const auto at = [&](const char* name) {
    const auto it = r.values.find(name);
    return it == r.values.end() ? -1.0 : it->second;
  };
  expect(r.attempted == 2 && r.failed == 0, "traced fleet run matches its scalar oracle");
  expect(at("core.fleet_drains") > 0 && !r.spans.empty(), "traced fleet run records its drains");
  expect(at("core.fleet_drain_s") > 0 && at("core.fleet_drain_s") < at("trace.run_s") &&
             at("sim.self_s") < at("trace.run_s"),
         "drain time and sim self time fit inside the traced run");
  expect(at("core.pool_busy_frac") > 0 && at("core.pool_busy_frac") <= 1,
         "pool busy fraction counts the submitting thread");
}

}  // namespace

int self_test() {
  test_quantiles();
  test_self_time();
  test_result_json();
  test_child();
  test_tampered_golden();
  test_traced_fleet();
  std::printf("self-test: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
