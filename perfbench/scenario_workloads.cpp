// Scenario workloads: a catalog entry compiled, set up and run to its end
// time through the public scenario entry points, timed from outside.
//
// Untraced, a run repeats set-up + run on the workload's strategy, each
// repetition in a child process of its own (so its peak RSS is its own and
// its teardown is not paid), for at least the workload's minimum count and
// then while another fits in the requested seconds. Traced, it runs the
// workload's traced strategy: one untraced repetition (the overhead
// baseline) and one traced one in this process, whose spans wrap compile /
// construct / setup / timeline arming, every run_until() step, the
// simulator's installed tick drain and the final snapshot_result().

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "scenario/scenario_catalog.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sc = mafic::scenario;

namespace {

/// Simulated time advanced per run_until() step; one step is one latency
/// sample of the scenario workloads' burst_p50_us / burst_p90_us.
constexpr double kStepSimS = 0.001;

constexpr std::size_t kMaxReps = 8;

// The flood is timed on scalar and traced on the fleet: the fleet's run
// time follows the host's load too closely to gate (README.md, Noise).
// Two repetitions each, plus the oracle a non-catalog seed needs, are what
// the campaign budget in README.md allows.
const ScenarioWorkload kWorkloads[] = {
    {"flood", "udp_flood", "scalar", "fleet", false, 0x47f5d03546b89fd0ULL, 2},
    {"churn_detect", "spoof_churn", "scalar", "scalar", true, 0x414a8079ede4a4bbULL, 2},
};

sc::Strategy strategy_named(const char* label) {
  for (const sc::Strategy& s : sc::equivalence_strategies()) {
    if (std::string(s.label) == label) return s;
  }
  throw std::runtime_error(std::string("unknown strategy ") + label);
}

/// Forwards to the experiment's own tick drain, recording one span per
/// drain() — the fleet scheduler's whole per-tick pool round trip.
class TimedDrain final : public mafic::sim::TickDrain {
 public:
  TimedDrain(mafic::sim::TickDrain* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  bool pending() const noexcept override { return inner_->pending(); }
  void drain() override {
    Scope s(*tracer_, "core.fleet_drain");
    inner_->drain();
  }

 private:
  mafic::sim::TickDrain* inner_;
  Tracer* tracer_;
};

/// One set-up + run of the workload's experiment.
struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::vector<double> step_us;
  std::uint64_t fingerprint = 0;
  sc::ExperimentResult result;
  // Counters read from the experiment before it is destroyed.
  std::uint64_t nodes = 0, route_entries = 0;
  std::uint64_t tcp_data = 0, tcp_retx = 0, tcp_timeouts = 0;
  std::uint64_t zombie_pkts = 0, spoof_rotations = 0;
  std::uint64_t epochs = 0, alarms = 0, ledger_flows = 0;
  std::uint64_t offered = 0, dropped_probation = 0, dropped_pdt = 0;
  /// Packets the ATR filters received: every ingress access uplink ends in
  /// one, which inspects them once the defense is engaged and passes them
  /// before. Stats.offered would read 0 at seeds where the detector never
  /// engages.
  std::uint64_t filter_received = 0;
  double trigger_s = -1.0;
};

/// What a repetition's child process sends back.
struct RepSummary {
  double setup_s = 0.0, run_s = 0.0, peak_rss_mb = 0.0;
  double step_p50_us = 0.0, step_p90_us = 0.0;
  std::uint64_t fingerprint = 0, filter_received = 0;
  double alpha = 0.0, beta = 0.0, theta_p = 0.0, theta_n = 0.0, lr = 0.0;
};
struct ChildRep {
  RepSummary s;
  std::vector<double> step_us;
};

/// `in_child`: the process exits right after this repetition, so the
/// experiment is left for the exit to reclaim instead of destroyed.
Rep run_rep(const ScenarioWorkload& w, const sc::ScenarioSpec& spec,
            Tracer& tr, bool in_child) {
  Rep rep;
  const double t0 = now_s();
  std::int32_t setup_span = tr.open("bench.setup");
  sc::ExperimentConfig cfg;
  sc::Timeline tl;
  {
    Scope s(tr, "scenario.compile");
    cfg = sc::compile(spec);
    sc::apply_strategy(strategy_named(w.strategy), cfg);
    tl = sc::generate_timeline(spec);
    const std::string err = sc::validate_timeline(spec, tl);
    if (!err.empty()) throw std::runtime_error("bad timeline: " + err);
  }
  std::unique_ptr<sc::Experiment> exp;
  {
    Scope s(tr, "scenario.construct");
    exp = std::make_unique<sc::Experiment>(cfg);
  }
  {
    Scope s(tr, "scenario.setup");
    exp->setup();
  }
  {
    Scope s(tr, "attack.arm_timeline");
    if (!tl.empty() && exp->attack_plan() != nullptr) {
      std::vector<mafic::attack::AttackPlan::Phase> phases;
      for (const sc::TimelineEvent& ev : tl) {
        mafic::attack::AttackPlan::Phase ph;
        ph.at = ev.at;
        ph.action = ev.action;
        if (ev.action == mafic::attack::PhaseAction::kRetarget) {
          ph.target = exp->victim_addrs()[ev.victim];
        }
        phases.push_back(ph);
      }
      exp->attack_plan()->arm_phases(std::move(phases));
    }
  }
  tr.close(setup_span);
  rep.setup_s = now_s() - t0;

  mafic::sim::Simulator& sim = exp->simulator();
  mafic::sim::TickDrain* own_drain = sim.tick_drain();
  std::unique_ptr<TimedDrain> timed;
  if (tr.enabled() && own_drain != nullptr) {
    timed = std::make_unique<TimedDrain>(own_drain, &tr);
    sim.set_tick_drain(timed.get());
  }

  const double end = cfg.end_time;
  const auto steps = static_cast<std::size_t>(std::ceil(end / kStepSimS));
  rep.step_us.reserve(steps);
  const double r0 = now_s();
  std::int32_t run_span = tr.open("bench.run");
  for (std::size_t i = 1; i <= steps; ++i) {
    const double t = std::min(end, double(i) * kStepSimS);
    const char* phase = sim.now() < cfg.attack_start ? "sim.slice_pre_attack"
                        : exp->ledger().triggered() ? "sim.slice_defended"
                                                    : "sim.slice_attack";
    const double s0 = now_s();
    std::int32_t step_span = tr.open(phase);
    exp->run_until(t);
    tr.close(step_span);
    rep.step_us.push_back((now_s() - s0) * 1e6);
  }
  {
    Scope s(tr, "metrics.snapshot");
    rep.result = exp->snapshot_result();
  }
  tr.close(run_span);
  rep.run_s = now_s() - r0;
  if (timed) sim.set_tick_drain(own_drain);

  rep.fingerprint = workload_fingerprint(w, rep.result);
  rep.nodes = exp->network().node_count();
  for (const auto& n : exp->network().nodes()) rep.route_entries += n->route_count();
  for (const auto* s : exp->tcp_senders()) {
    rep.tcp_data += s->stats().data_packets_sent;
    rep.tcp_retx += s->stats().retransmits;
    rep.tcp_timeouts += s->stats().timeouts;
  }
  for (const auto* z : exp->zombies()) {
    rep.zombie_pkts += z->packets_sent();
    rep.spoof_rotations += z->spoof_rotations();
  }
  if (const auto* cp = exp->control_plane()) {
    rep.epochs = cp->epochs_observed();
    for (const auto& st : cp->statuses()) rep.alarms += st.alarms;
  }
  for (const auto* f : exp->sharded_filters()) {
    const auto st = f->stats();
    rep.offered += st.offered;
    rep.dropped_probation += st.dropped_probation;
    rep.dropped_pdt += st.dropped_pdt;
  }
  for (const auto& a : exp->domain().access_links()) {
    rep.filter_received += a.uplink->transmitter().packets_delivered();
  }
  rep.ledger_flows = exp->ledger().flow_count();
  rep.trigger_s = exp->ledger().triggered() ? exp->ledger().trigger_time() : -1.0;
  if (in_child) (void)exp.release();
  return rep;
}

/// One untraced repetition in a child process.
ChildRep rep_in_child(const ScenarioWorkload& w, const sc::ScenarioSpec& spec) {
  const std::string reply = run_in_child([&] {
    Tracer off(false);
    const Rep rep = run_rep(w, spec, off, /*in_child=*/true);
    const auto& m = rep.result.metrics;
    RepSummary s;
    s.setup_s = rep.setup_s;
    s.run_s = rep.run_s;
    s.peak_rss_mb = peak_rss_mb();
    s.step_p50_us = quantile(rep.step_us, 0.5);
    s.step_p90_us = quantile(rep.step_us, 0.9);
    s.fingerprint = rep.fingerprint;
    s.filter_received = rep.filter_received;
    s.alpha = m.alpha;
    s.beta = m.beta;
    s.theta_p = m.theta_p;
    s.theta_n = m.theta_n;
    s.lr = m.lr;
    std::string out;
    put(out, s);
    put(out, std::uint64_t(rep.step_us.size()));
    for (const double us : rep.step_us) put(out, us);
    return out;
  });
  std::size_t at = 0;
  ChildRep r;
  r.s = get<RepSummary>(reply, at);
  r.step_us.resize(get<std::uint64_t>(reply, at));
  for (double& us : r.step_us) us = get<double>(reply, at);
  return r;
}

/// The scalar strategy's fingerprint of `spec`: an untraced repetition on
/// the scalar strategy, whose timings are discarded.
std::uint64_t oracle_fingerprint(const ScenarioWorkload& w, const sc::ScenarioSpec& spec) {
  ScenarioWorkload scalar = w;
  scalar.strategy = "scalar";
  return rep_in_child(scalar, spec).s.fingerprint;
}

void add_layer_metrics(Values& v, const Rep& rep, const Tracer& tr,
                       double untraced_run_s) {
  const sc::ExperimentResult& r = rep.result;
  const std::vector<Span>& spans = tr.spans();
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  v["sim.nodes"] = double(rep.nodes);
  v["sim.route_entries"] = double(rep.route_entries);
  v["sim.events"] = double(r.events_processed);
  v["sim.ns_per_event"] = per(rep.run_s * 1e9, double(r.events_processed));
  v["sim.slice_pre_attack_s"] = total_s(spans, "sim.slice_pre_attack");
  v["sim.slice_attack_s"] = total_s(spans, "sim.slice_attack");
  v["sim.slice_defended_s"] = total_s(spans, "sim.slice_defended");

  const auto& occ = r.pool_occupancy;
  v["core.fleet_drain_s"] = total_s(spans, "core.fleet_drain");
  v["core.fleet_drains"] = double(r.fleet_drains);
  v["core.spans_per_drain"] = per(double(r.fleet_spans), double(r.fleet_drains));
  v["core.tasks_per_submit"] = occ.tasks_per_submission();
  // The submitting thread helps drain, so capacity is workers + 1.
  if (r.pool_workers > 0) {
    v["core.pool_busy_frac"] =
        per(double(occ.busy_ns), double(r.pool_workers + 1) * double(occ.wall_ns));
  }
  v["core.offered"] = double(rep.offered);
  v["core.dropped_probation"] = double(rep.dropped_probation);
  v["core.dropped_pdt"] = double(rep.dropped_pdt);
  v["core.sft_admissions"] = double(r.sft_admissions);
  v["core.sft_evictions"] = double(r.sft_evictions);
  v["core.probes_issued"] = double(r.probes_issued);
  v["core.decided_per_admission"] =
      per(double(r.moved_to_nft + r.moved_to_pdt), double(r.sft_admissions));

  v["transport.tcp_data_pkts"] = double(rep.tcp_data);
  v["transport.tcp_retransmits"] = double(rep.tcp_retx);
  v["transport.tcp_timeouts"] = double(rep.tcp_timeouts);
  v["attack.zombie_pkts"] = double(rep.zombie_pkts);
  v["attack.spoof_rotations"] = double(rep.spoof_rotations);
  v["pushback.epochs"] = double(rep.epochs);
  v["pushback.alarms"] = double(rep.alarms);
  v["pushback.trigger_s"] = rep.trigger_s;
  v["metrics.ledger_flows"] = double(rep.ledger_flows);
  // The paper metrics are NaN when the defense never triggered (the
  // detector can miss at some seeds); they then read 0, with a note.
  const std::pair<const char*, double> paper[] = {
      {"metrics.alpha", r.metrics.alpha}, {"metrics.beta", r.metrics.beta},
      {"metrics.theta_p", r.metrics.theta_p}, {"metrics.theta_n", r.metrics.theta_n},
      {"metrics.lr", r.metrics.lr}};
  for (const auto& [name, value] : paper) {
    if (std::isfinite(value)) {
      v[name] = value;
    } else {
      std::printf("%s undefined: the defense never triggered\n", name);
    }
  }

  add_self_times(v, spans);
  v["trace.run_s"] = rep.run_s;
  v["trace.overhead_s"] = rep.run_s - untraced_run_s;
  v["trace.spans"] = double(spans.size());
}

}  // namespace

const ScenarioWorkload* find_scenario_workload(const std::string& name) {
  for (const ScenarioWorkload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

sc::ScenarioSpec workload_spec(const ScenarioWorkload& w, std::uint64_t seed) {
  const sc::CatalogEntry* e = sc::find_scenario(w.entry);
  if (e == nullptr) throw std::runtime_error(std::string("no catalog entry ") + w.entry);
  sc::ScenarioSpec spec = e->spec;
  spec.seed = seed;
  if (w.detector) {
    spec.detector_trigger = true;
    spec.detector_min_packets = 150.0;
  }
  return spec;
}

std::uint64_t workload_fingerprint(const ScenarioWorkload& w,
                                   const sc::ExperimentResult& r) {
  return w.detector ? sc::detector_fingerprint(r) : sc::fingerprint(r);
}

std::uint64_t check_fingerprint(const char* what, std::uint64_t got,
                                std::uint64_t expected) {
  if (got == expected) return 0;
  std::printf("FAILED %s: fingerprint %016" PRIx64 " != expected %016" PRIx64 "\n",
              what, got, expected);
  return 1;
}

Result run_scenario_workload(const Options& opt) {
  const ScenarioWorkload& w = *find_scenario_workload(opt.workload);
  const std::uint64_t catalog_seed = sc::find_scenario(w.entry)->spec.seed;
  const std::uint64_t seed = opt.seed_given ? opt.seed : catalog_seed;
  return measure_scenario(w, workload_spec(w, seed), seed == catalog_seed, opt);
}

Result measure_scenario(const ScenarioWorkload& w, const sc::ScenarioSpec& spec,
                        bool pinned, const Options& opt) {
  // The expected fingerprint: the golden when pinned, otherwise a scalar
  // run of the same spec made before anything is timed.
  std::uint64_t expected = w.golden;
  if (!pinned) {
    const double o0 = now_s();
    expected = oracle_fingerprint(w, spec);
    std::printf("oracle: scalar fingerprint %016" PRIx64 " at seed %" PRIu64 " (%.1f s)\n",
                expected, spec.seed, now_s() - o0);
  }

  // A traced run times its strategy twice: untraced, then traced.
  ScenarioWorkload timed = w;
  if (opt.trace) timed.strategy = w.traced_strategy;

  Result out;
  std::vector<ChildRep> reps;
  const double begin = now_s();
  double rep_start = begin;
  do {
    rep_start = now_s();
    ++out.attempted;
    ChildRep r;
    try {
      r = rep_in_child(timed, spec);
    } catch (const std::exception& e) {
      std::printf("FAILED run: %s\n", e.what());
      ++out.failed;
      continue;
    }
    out.failed += check_fingerprint(w.name, r.s.fingerprint, expected);
    std::printf("rep %zu: setup %.3f s, run %.3f s, steps p50 %.1f p90 %.1f us, "
                "peak RSS %.0f MB, fingerprint %016" PRIx64 "\n",
                reps.size() + 1, r.s.setup_s, r.s.run_s, r.s.step_p50_us, r.s.step_p90_us,
                r.s.peak_rss_mb, r.s.fingerprint);
    reps.push_back(std::move(r));
  } while (!opt.trace && out.attempted < kMaxReps &&
           (out.attempted < w.min_reps || another_fits(begin, rep_start, opt.seconds)));

  if (reps.empty()) return out;
  Values& v = out.values;
  if (!opt.trace) {
    // Every repetition does the same work step by step (same seed, and the
    // simulation is deterministic), so a step's fastest repetition is its
    // time with the least interference from the host. The run's timings
    // are read from those fastest steps.
    std::vector<std::vector<double>> steps;
    std::vector<double> setup_s, peak;
    for (ChildRep& r : reps) {
      steps.push_back(std::move(r.step_us));
      setup_s.push_back(r.s.setup_s);
      peak.push_back(r.s.peak_rss_mb);
    }
    const std::vector<double> fastest = fastest_of(steps);
    double run_s = 0.0;
    for (const double us : fastest) run_s += us * 1e-6;
    v["setup_s"] = median(setup_s);
    v["run_s"] = run_s;
    v["peak_rss_mb"] = median(peak);
    v["classify_mpps"] = double(reps.front().s.filter_received) / run_s / 1e6;
    v["burst_p50_us"] = quantile(fastest, 0.5);
    v["burst_p90_us"] = quantile(fastest, 0.9);
    const RepSummary& m = reps.back().s;
    std::printf("paper metrics (seed %" PRIu64 "): alpha %.4f beta %.4f theta_p %.4f "
                "theta_n %.4f lr %.4f\n",
                spec.seed, m.alpha, m.beta, m.theta_p, m.theta_n, m.lr);
    std::printf("samples: %zu repetitions of %zu steps of %g ms simulated\n", reps.size(),
                fastest.size(), kStepSimS * 1e3);
    return out;
  }

  Tracer tr(true);
  ++out.attempted;
  Rep traced;
  try {
    traced = run_rep(timed, spec, tr, /*in_child=*/false);
  } catch (const std::exception& e) {
    std::printf("FAILED traced run: %s\n", e.what());
    ++out.failed;
    return out;
  }
  out.failed += check_fingerprint("traced run", traced.fingerprint, expected);
  std::printf("traced: setup %.3f s, run %.3f s, %zu spans\n", traced.setup_s, traced.run_s,
              tr.spans().size());
  add_layer_metrics(v, traced, tr, reps.front().s.run_s);
  out.spans = tr.spans();
  return out;
}

}  // namespace perfbench
