#pragma once

/// \file experiment.hpp
/// End-to-end experiment wiring for the paper's evaluation: builds the
/// N-router domain, populates it with Vt flows (a Γ fraction of
/// long-lived TCP clients plus zombies flooding the victim at R bps each),
/// installs the LogLogCounter taps and MAFIC filters on every ingress
/// link, runs the pushback pipeline, and reports the five metrics.
///
/// Trigger modes:
///  * kScripted (default for figure benches): the pushback notification
///    arrives at a fixed time at the in-scope ATRs (AtrScope), and the
///    coordinator's actuator registry activates each with the full victim
///    set, in router order. This mirrors the paper's evaluation, which
///    studies MAFIC's dropping behaviour *given* the notification ("On
///    receiving the notification of DDoS attack from the victim router,
///    each ATR begins dropping packets", section III-A); detection
///    quality belongs to the set-union substrate of [2]. No keep-alive
///    loop runs: with the default mafic.refresh_timeout of 0 a refresh is
///    a no-op (a positive timeout lets the scripted response lapse), and
///    starting the loop would add events to every fingerprinted count.
///  * kDetector: the full pipeline — LogLog sketches, per-epoch traffic
///    matrix, |Dj| anomaly detection, a_ij ATR identification — drives the
///    activation, asynchronously: a pushback::ControlPlane freezes an
///    epoch snapshot, runs the feature-based detection step per protected
///    destination (as a worker-pool task when the threaded datapath is
///    on), and applies per-victim engage/disengage decisions one control
///    delay later through the same registry. Every victim in
///    victim_addrs() is protected. The control delay must be shorter
///    than an epoch; setup() throws std::invalid_argument otherwise.

#include <memory>
#include <vector>

#include "attack/attack_plan.hpp"
#include "attack/spoofing.hpp"
#include "attack/zombie.hpp"
#include "baseline/aggregate_limiter.hpp"
#include "baseline/proportional_dropper.hpp"
#include "core/address_policy.hpp"
#include "core/fleet_burst_scheduler.hpp"
#include "core/sharded_mafic_filter.hpp"
#include "metrics/ledger.hpp"
#include "metrics/report.hpp"
#include "pushback/control_plane.hpp"
#include "pushback/coordinator.hpp"
#include "pushback/victim_detector.hpp"
#include "sim/monitor.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sketch/router_tap.hpp"
#include "sketch/traffic_matrix.hpp"
#include "topology/topology.hpp"
#include "transport/cbr.hpp"
#include "transport/tcp.hpp"
#include "transport/tcp_sink.hpp"
#include "transport/udp.hpp"

namespace mafic::scenario {

enum class DefenseKind : std::uint8_t {
  kNone,
  kMafic,
  kProportional,
  kAggregate,
};

enum class TriggerMode : std::uint8_t { kScripted, kDetector };

/// Which routers the scripted pushback notification reaches. With spoofed
/// sources the victim cannot exonerate any ingress point, so the paper's
/// response covers every ingress router forwarding victim-bound traffic
/// (kAllIngress, default). kZombieRouters assumes oracle identification
/// and is used by focused tests/ablations.
enum class AtrScope : std::uint8_t { kAllIngress, kZombieRouters };

/// Pushback control knobs. kDetector feeds ControlPlane::Config from
/// control_delay, latch, atr and detector; refresh_interval is the
/// coordinator's keep-alive period.
struct PushbackConfig {
  double control_delay = 0.01;    ///< victim router -> ATR signaling
  double refresh_interval = 0.25; ///< keep-alive period
  bool latch = true;  ///< keep responses engaged after the alarm clears
  pushback::AtrConfig atr{};
  pushback::VictimDetector::Config detector{};
};

struct ExperimentConfig {
  // --- Table II parameters -------------------------------------------------
  std::size_t total_flows = 50;    ///< Vt
  double tcp_fraction = 0.95;      ///< Γ (share of legitimate TCP flows)
  double drop_probability = 0.9;   ///< Pd
  double attack_rate_bps = 8e6;    ///< R, per zombie (used when army=0)
  std::size_t router_count = 40;   ///< N
  std::uint64_t seed = 1;

  // --- timing --------------------------------------------------------------
  double legit_start_min = 0.05;
  double legit_start_max = 0.60;
  double attack_start = 2.0;
  double attack_ramp = 0.2;
  double scripted_trigger_time = 2.7;
  double end_time = 15.0;

  // --- workload ------------------------------------------------------------
  /// When > 0, the zombie army's *total* rate is fixed at this value and
  /// split evenly across the (1-Γ)·Vt zombies, keeping the flood intensity
  /// constant across the Vt sweeps (as the paper's flat Fig. 4a suggests).
  /// Set to 0 to use attack_rate_bps per zombie (the Fig. 3b R sweep).
  double attack_army_total_bps = 16e6;
  std::uint32_t legit_packet_bytes = 1000;
  std::uint32_t attack_packet_bytes = 250;
  sim::Protocol attack_framing = sim::Protocol::kTcp;
  attack::SpoofingConfig spoofing{};  ///< default: all spoofs look legit
  bool per_packet_spoofing = false;
  /// Adaptive adversary (ablation A6): zombies back off when probed,
  /// earning NFT entries, then resume flooding. Pair with
  /// mafic.nft_revalidation_interval to study the countermeasure.
  bool attack_probe_evasion = false;
  double attack_evasion_pause_s = 0.3;
  double legit_udp_fraction = 0.0;  ///< share of legit flows that are CBR
  double legit_udp_rate_bps = 200e3;

  /// Flash crowd: this share of the legitimate flows (taken from the tail
  /// of the legit index range, mixed TCP/UDP) does NOT start in the
  /// steady-state [legit_start_min, legit_start_max] window; instead each
  /// starts uniformly in [flash_crowd_start, flash_crowd_start +
  /// flash_crowd_ramp] — a sudden, correlated surge of *genuine* clients
  /// that the defense must tell apart from a flood (Argyraki & Cheriton's
  /// flash-crowd-vs-flood distinction). 0 disables.
  double flash_crowd_fraction = 0.0;
  double flash_crowd_start = 3.5;
  double flash_crowd_ramp = 0.3;

  /// Additional concurrent victims beyond the domain's primary victim.
  /// Each extra victim is a host attached behind a random ingress router;
  /// legitimate flows and zombies target the victims round-robin, the
  /// scripted trigger activates every ATR with the full victim set, and
  /// the per-victim decision breakdown lands in
  /// ExperimentResult::per_victim. Flow keys hash the destination, so one
  /// ATR's tables partition naturally per victim. In kDetector mode every
  /// extra victim's access link is sketch-tapped and the control plane
  /// protects each one independently (per-victim trigger/clear times land
  /// in per_victim). Caveat: the victim-bandwidth instrumentation — beta
  /// and victim_offered_bytes — covers the primary victim's link only;
  /// extra-victim outcomes are reported via per_victim and alpha (defense
  /// drops are counted at the ATRs, victim-agnostic).
  std::size_t extra_victims = 0;

  // --- topology ------------------------------------------------------------
  topology::DomainConfig domain = default_domain();

  // --- defense -------------------------------------------------------------
  DefenseKind defense = DefenseKind::kMafic;
  TriggerMode trigger = TriggerMode::kScripted;
  AtrScope atr_scope = AtrScope::kAllIngress;
  /// Pd and the SFT victim quota are overwritten from the top-level
  /// drop_probability / sft_victim_quota knobs.
  core::MaficConfig mafic{};
  baseline::AggregateLimiter::Config aggregate{};

  /// Per-victim SFT filtering budget (core::MaficConfig::sft_victim_quota;
  /// copied over mafic.sft_victim_quota like drop_probability). With
  /// extra_victims >= 1 and a quota > 0, a capacity-saturating flood at
  /// one victim can no longer recycle another victim's in-flight
  /// probations — each protected destination keeps its reserved SFT
  /// slots, and per-victim eviction counts land in
  /// ExperimentResult::per_victim. 0 keeps the legacy global ring.
  double sft_victim_quota = 0.0;

  /// Weighted per-victim quotas: weight of each protected destination in
  /// victim order (primary victim first, then the extras in attachment
  /// order), e.g. its provisioned bandwidth in bps. With
  /// sft_victim_quota > 0, each victim's SFT reservation becomes
  /// proportional to its weight instead of an equal split (missing
  /// entries weigh 1.0, extra entries are ignored). Empty = equal split.
  std::vector<double> sft_victim_weights;

  /// ATR datapath placement. Every MAFIC filter is a ShardedMaficFilter.
  /// 0 (default) = one shard at the HEAD of each ingress uplink, dropping
  /// before the link queue — the paper's section IV placement, which the
  /// figure benches use. >= 1 (power of two) = this many engine shards at
  /// the RECEIVING end of each ingress uplink, fed link bursts through
  /// ShardedFilter::inspect_batch. Pd coins are seeded from `seed`
  /// (MaficConfig::coin_seed), so runs that differ only in num_shards
  /// >= 1 make identical per-flow classification decisions —
  /// num_shards = 1 is the scalar comparator.
  std::size_t num_shards = 0;

  /// Speculative threaded sim shards (requires num_shards >= 1). 0
  /// (default) classifies burst spans in arrival order on the sim
  /// thread — the serial, golden-pinned path. >= 1 spins up a shared
  /// core::ShardWorkerPool with this many persistent workers; every
  /// sharded filter partitions its burst spans into per-shard sub-spans,
  /// fans them out, and merges the per-shard seam journals
  /// deterministically, so results are bit-identical to shard_threads=0
  /// at any worker count (test_core_threaded_sim pins this; the
  /// bench_flow_store_scale sim_threaded_sweep tier gates it).
  std::size_t shard_threads = 0;

  /// Fleet-wide tick batching (requires num_shards >= 1 and
  /// shard_threads >= 1; meaningful with link_burst_size > 1). Every
  /// sharded filter defers its burst spans into a shared
  /// core::FleetBurstScheduler installed as the simulator's tick drain:
  /// all same-instant deliveries across the whole ingress fleet run as
  /// ONE worker-pool submission (one fan-out/join per tick instead of
  /// one per filter), then replay their journals in arrival order —
  /// still bit-identical to shard_threads=0 (test_core_fleet_sim pins
  /// this; the bench sim_fleet_threaded tier gates the speedup).
  bool fleet_tick_batch = false;

  /// Departure coalescing on ingress access uplinks
  /// (DomainConfig::access_uplink_burst_packets): back-to-back departures
  /// reach the ATR as one span of up to this many packets, which is what
  /// drives the batched inspection path. 1 = per-packet delivery.
  std::size_t link_burst_size = 1;

  // --- pushback substrate ----------------------------------------------------
  double epoch_seconds = 0.1;
  unsigned sketch_precision_bits = 10;
  PushbackConfig pushback = default_pushback();

  // --- measurement -----------------------------------------------------------
  metrics::ReportWindows windows{};
  double series_bin_width = 0.05;

  static topology::DomainConfig default_domain();
  static PushbackConfig default_pushback();
};

/// ATR identification quality relative to ground truth (routers that
/// actually host zombies).
struct AtrDiagnostics {
  std::vector<sim::NodeId> identified;
  std::vector<sim::NodeId> ground_truth;
  double precision = 0.0;
  double recall = 0.0;
};

/// Per-victim defense outcome (aggregated over every MAFIC filter).
struct VictimBreakdown {
  util::Addr victim = util::kInvalidAddr;
  std::uint64_t decided_nice = 0;
  std::uint64_t decided_malicious = 0;
  std::uint64_t screened_sources = 0;
  /// This victim's probations evicted at SFT capacity before deciding
  /// (the cross-victim starvation signal; zero for a victim whose working
  /// set fits its quota when sft_victim_quota > 0).
  std::uint64_t evictions = 0;
  /// Subset where this victim, over quota, paid for another victim.
  std::uint64_t quota_evictions = 0;
  /// Detector-mode control-plane outcome for this victim (kDetector only;
  /// -1.0 / 0 otherwise). trigger_time is the first apply-event
  /// engagement; clear_time the last disengagement (unlatched runs).
  double trigger_time = -1.0;
  double clear_time = -1.0;
  std::uint64_t alarms = 0;  ///< detector raise transitions observed
};

struct ExperimentResult {
  metrics::Metrics metrics;
  AtrDiagnostics atr;
  std::vector<VictimBreakdown> per_victim;  ///< primary first, then extras
  util::BinnedSeries victim_offered_bytes;  ///< Fig. 4(b) raw series
  std::size_t legit_flows = 0;
  std::size_t attack_flows = 0;
  std::uint64_t events_processed = 0;

  // Fleet tick-batching / worker-pool diagnostics (all zero unless
  // shard_threads > 0; the fleet_* fields additionally need
  // fleet_tick_batch). Occupancy is the raw pool counter block —
  // tasks_per_submission() and busy_fraction(pool_workers) are the two
  // numbers the bench tier reports.
  std::uint64_t fleet_drains = 0;
  std::uint64_t fleet_coalesced_drains = 0;
  std::uint64_t fleet_spans = 0;
  core::ShardWorkerPool::Occupancy pool_occupancy{};
  std::size_t pool_workers = 0;

  // Aggregated defense internals (across all filters).
  std::uint64_t sft_admissions = 0;
  std::uint64_t sft_evictions = 0;
  std::uint64_t quota_evictions = 0;
  std::uint64_t moved_to_nft = 0;
  std::uint64_t moved_to_pdt = 0;
  std::uint64_t screened_sources = 0;
  std::uint64_t probes_issued = 0;
};

class Experiment {
 public:
  explicit Experiment(ExperimentConfig cfg);
  ~Experiment();

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Builds topology, flows, defense and measurement. Called implicitly by
  /// run(); exposed so examples can inspect/modify before running.
  void setup();
  bool is_setup() const noexcept { return setup_done_; }

  /// Runs to cfg.end_time and computes the result.
  ExperimentResult run();

  /// Advances the simulation clock (setup() must have been called).
  void run_until(double t);

  /// Result computation at the current sim time (usable mid-run).
  ExperimentResult snapshot_result() const;

  // --- component access (valid after setup) --------------------------------
  sim::Simulator& simulator() noexcept { return sim_; }
  sim::Network& network() noexcept { return *net_; }
  topology::Domain& domain() noexcept { return *domain_; }
  metrics::PacketLedger& ledger() noexcept { return ledger_; }
  pushback::PushbackCoordinator* coordinator() noexcept {
    return coordinator_.get();
  }
  /// Asynchronous detection layer (non-null iff trigger == kDetector and
  /// a defense is installed).
  pushback::ControlPlane* control_plane() noexcept {
    return control_plane_.get();
  }
  /// The MAFIC filters, one per ingress uplink, at either mount point
  /// (non-empty iff defense == kMafic). The name is kept for perfbench.
  const std::vector<core::ShardedMaficFilter*>& sharded_filters()
      const noexcept {
    return sharded_filters_;
  }
  const std::vector<transport::TcpSender*>& tcp_senders() const noexcept {
    return tcp_sender_ptrs_;
  }
  const std::vector<attack::Flooder*>& zombies() const noexcept {
    return zombie_ptrs_;
  }
  sketch::TrafficMonitor* traffic_monitor() noexcept {
    return monitor_.get();
  }
  /// The armed zombie-army plan (valid after setup; null with no army).
  /// The scenario engine installs attack-shape phase timelines through
  /// this (AttackPlan::arm_phases).
  attack::AttackPlan* attack_plan() noexcept { return attack_plan_.get(); }
  const ExperimentConfig& config() const noexcept { return cfg_; }
  /// All protected destinations (primary victim + extras).
  const std::vector<util::Addr>& victim_addrs() const noexcept {
    return victim_addrs_;
  }

 private:
  void build_topology();
  void build_sketches();
  void build_defense();
  void build_flows();
  void arm_trigger();
  std::vector<sim::NodeId> ground_truth_atrs() const;
  /// One victim's decision counters aggregated across every MAFIC filter
  /// (shared by snapshot_result and the control plane's counter source).
  VictimBreakdown victim_breakdown(util::Addr victim) const;

  ExperimentConfig cfg_;
  sim::Simulator sim_;
  sim::PacketFactory factory_;
  util::Rng rng_;

  /// Shared worker pool for the speculative threaded shard path; created
  /// iff num_shards > 0 && shard_threads > 0. Declared before net_ so it
  /// outlives the link-owned filters that borrow it.
  std::unique_ptr<core::ShardWorkerPool> shard_pool_;
  /// Fleet tick-batching scheduler (cfg.fleet_tick_batch); installed as
  /// sim_'s tick drain. Declared before net_ for the same lifetime
  /// reason as shard_pool_.
  std::unique_ptr<core::FleetBurstScheduler> fleet_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<topology::Domain> domain_;
  std::unique_ptr<core::AddressPolicy> policy_;

  std::unique_ptr<sketch::RouterSketchBank> bank_;
  std::unique_ptr<sketch::TrafficMonitor> monitor_;
  std::unique_ptr<pushback::PushbackCoordinator> coordinator_;
  std::unique_ptr<pushback::ControlPlane> control_plane_;

  metrics::PacketLedger ledger_;

  std::unique_ptr<attack::SpoofingModel> spoof_model_;
  std::unique_ptr<attack::AttackPlan> attack_plan_;

  // Owned traffic agents.
  std::vector<std::unique_ptr<transport::Agent>> agents_;
  std::vector<transport::TcpSender*> tcp_sender_ptrs_;
  std::vector<attack::Flooder*> zombie_ptrs_;

  // Filters are owned by their links and actuated through coordinator_;
  // we keep handles to the MAFIC ones for their stats.
  std::vector<core::ShardedMaficFilter*> sharded_filters_;
  /// Routers the scripted trigger activated (sorted; empty before it
  /// fires and in kDetector mode).
  std::vector<sim::NodeId> scripted_atrs_;

  // Router each zombie sits behind (ground truth for diagnostics).
  std::vector<sim::NodeId> zombie_routers_;

  // Protected destinations: primary victim + cfg.extra_victims hosts,
  // parallel arrays of address, host node, and last-hop router.
  std::vector<util::Addr> victim_addrs_;
  std::vector<sim::NodeId> victim_hosts_;
  std::vector<sim::NodeId> victim_routers_;

  std::size_t legit_count_ = 0;
  std::size_t attack_count_ = 0;
  bool setup_done_ = false;
};

/// Averages metrics over `seeds` runs of the same configuration (only the
/// seed differs). Used by every figure bench.
metrics::Metrics run_averaged(const ExperimentConfig& base,
                              std::size_t seeds,
                              std::vector<ExperimentResult>* out = nullptr);

}  // namespace mafic::scenario
