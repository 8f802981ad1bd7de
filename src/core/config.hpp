#pragma once

/// \file config.hpp
/// Tunables of the MAFIC algorithm. Defaults reflect the paper: Pd = 90%
/// (Table II), probe timer = 2 x RTT (section III-B), three duplicate ACKs
/// (the standard fast-retransmit trigger).

#include <cstddef>
#include <cstdint>

namespace mafic::core {

/// The Pd coin has one mode. Kept for perfbench, which still assigns
/// MaficConfig::coin_mode; delete both at the next benchmark change.
enum class CoinMode : std::uint8_t { kPacketHash };

struct MaficConfig {
  /// Pd — probability of dropping a packet of an untested / suspicious
  /// flow during the probing phase.
  double drop_probability = 0.9;

  /// The Pd coin (util::hash_coin) is a stateless hash of (coin_seed,
  /// flow key, packet uid): i.i.d. per packet, as the paper's "drop with
  /// probability Pd" asks, yet a flow's coin sequence does not depend on
  /// how other flows interleave or which engine inspects it. That is
  /// what makes one engine and N shards decide every flow identically.
  /// Engines whose decisions are meant to be comparable (all shards of
  /// one deployment) share `coin_seed`.
  std::uint64_t coin_seed = 0;
  /// Nothing reads this; kept for perfbench (see CoinMode).
  CoinMode coin_mode = CoinMode::kPacketHash;

  /// The response timer as a multiple of the flow's RTT ("we set the timer
  /// equal 2 x RTT"). The first half of the window measures the baseline
  /// arrival rate, the second half the post-probe rate.
  double probe_window_rtt_multiple = 2.0;

  /// RTT bookkeeping. Timestamp echoes sampled at an ingress router see
  /// roughly half of the true round trip (sink -> sender -> router), so the
  /// sample is multiplied by `rtt_correction`. Flows without usable
  /// timestamps get `default_rtt`.
  double default_rtt = 0.04;
  double rtt_correction = 2.0;
  double min_rtt = 0.01;
  double max_rtt = 0.1;
  double rtt_ewma_alpha = 0.25;

  /// "Arriving rate decreased?" — the flow passes the test when its probe-
  /// half arrival count is below `decrease_ratio` times its baseline-half
  /// count AND at least `min_absolute_decrease` packets fewer arrived.
  /// The absolute guard matters for slow flows: counting noise on a
  /// handful of packets can fake a 15% relative drop, but a genuine TCP
  /// sender halving its window always sheds whole packets.
  double decrease_ratio = 0.85;
  std::uint32_t min_absolute_decrease = 2;

  /// Flows with fewer baseline-half packets than this are too thin to
  /// judge; they get the benefit of the doubt (moved to the NFT). Keeps
  /// false positives on low-rate legitimate flows down at the price of
  /// letting equally thin attack flows through (a false-negative source
  /// the paper also exhibits).
  std::uint32_t min_baseline_packets = 2;

  /// Probe: number of duplicate ACKs sent to the claimed source and their
  /// spacing. Three is the fast-retransmit trigger.
  std::uint32_t probe_dup_acks = 3;
  double probe_spacing_s = 0.0005;
  std::uint32_t probe_ack_bytes = 40;
  bool probe_enabled = true;  ///< ablation A4 switches this off

  /// Flowchart-literal mode: drop *every* SFT packet during the window
  /// instead of dropping with probability Pd (ablation).
  bool drop_all_in_sft = false;

  /// Table capacity bounds; overflowing SFT entries evict the oldest.
  std::size_t sft_capacity = 4096;
  std::size_t nft_capacity = 65536;
  std::size_t pdt_capacity = 65536;

  /// Bound on per-flow RTT estimates kept by the (flat) RttEstimator.
  /// When full, admitting a new flow recycles an arbitrary resident
  /// estimate (round-robin), so fresh flows keep getting estimates under
  /// label churn while the store never reallocates.
  std::size_t rtt_capacity = 65536;

  /// Occupancy ceiling of the flat open-addressing flow store. Higher
  /// values trade longer robin-hood probe sequences for less memory; the
  /// store sizes itself for the three capacity bounds above and grows by
  /// doubling until it reaches that bound, after which it never
  /// reallocates. 0.65 keeps the worst-case post-doubling occupancy low
  /// enough that lookups average about one cache line even when growth
  /// stops just under the ceiling.
  double flow_store_max_load = 0.65;

  /// Tick width of the simulator's hierarchical timer wheel, which carries
  /// the per-flow probe and decision timers (O(1) schedule/cancel instead
  /// of heap events). Timers fire on the first tick boundary at or after
  /// their nominal time; 0.5 ms is well under every probation window the
  /// paper sweeps. Experiment harnesses construct their Simulator with
  /// this value.
  double timer_wheel_resolution = 0.0005;

  /// Initial bucket count of the SFT deadline-bucketed eviction ring
  /// (rounded up to a power of two). Buckets are one timer-wheel tick
  /// wide; capacity eviction pops the nearest-deadline probation from the
  /// first occupied bucket in O(1) amortized. The ring doubles on demand
  /// (up to 65536 buckets) when live probation deadlines span more ticks;
  /// 512 covers the widest paper window (2 x max_rtt) with headroom.
  std::size_t sft_eviction_ring_buckets = 512;

  /// Per-victim SFT filtering budget. 0 (default) keeps the legacy
  /// behaviour: one global eviction ring, so at capacity a flood aimed at
  /// one protected destination can recycle another destination's
  /// probations before their 2 x RTT deadlines. When > 0 each protected
  /// destination becomes a victim class with its own eviction ring and a
  /// reserved quota of SFT slots: values in (0, 1] are a fraction of
  /// sft_capacity per victim, values > 1 are absolute slots per victim
  /// (either way clamped so the summed quotas never exceed sft_capacity).
  /// Slots beyond the summed quotas form a shared overflow pool. At
  /// capacity the admitting victim pays from its own ring while at/over
  /// quota; an under-quota victim instead reclaims a slot from the most
  /// over-quota class (draining overflow users back toward their
  /// reservations pro-rata), so no flood can push a victim below its
  /// quota. Takes effect when FilterEngine::activate registers the victim
  /// set with the tables.
  double sft_victim_quota = 0.0;

  /// Reject sources whose address is illegal (outside every registered
  /// subnet) or unreachable (never allocated) straight into the PDT.
  bool address_screening = true;

  /// Extension (paper future-work direction): when > 0, Nice Flow Table
  /// entries expire after this many seconds and the flow faces a fresh
  /// probation. Defends against on-off attackers that behave during the
  /// probe window and flood afterwards. 0 = paper-faithful (NFT is
  /// permanent until tables are flushed).
  double nft_revalidation_interval = 0.0;

  /// Pushback keep-alive: if > 0, the filter deactivates itself (flushing
  /// all tables) when no refresh() arrives within this many seconds —
  /// the "Pushback Continue? -> No" arc of Fig. 2. 0 means the activation
  /// is latched until an explicit deactivate().
  double refresh_timeout = 0.0;
};

}  // namespace mafic::core
