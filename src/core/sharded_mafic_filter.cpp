#include "core/sharded_mafic_filter.hpp"

#include <cassert>
#include <thread>
#include <utility>

#include "core/fleet_burst_scheduler.hpp"

namespace mafic::core {

ShardedMaficFilter::ShardedMaficFilter(sim::Simulator* sim,
                                       sim::PacketFactory* factory,
                                       sim::Node* atr_node,
                                       std::size_t num_shards,
                                       MaficConfig cfg,
                                       const AddressPolicy* policy,
                                       ShardWorkerPool* pool)
    : atr_node_(atr_node),
      clock_(sim),
      timers_(sim),
      prober_(sim, factory, atr_node, cfg),
      shard_sinks_(ShardedFilter::usable_shard_count(num_shards)),
      pool_(pool),
      sharded_(num_shards, cfg, policy, /*unused=*/0,
               [this](std::size_t i) {
                 shard_sinks_[i].wire = &prober_;
                 if (pool_ == nullptr) {
                   return ShardedFilter::ShardSeams{&clock_, &timers_,
                                                   &shard_sinks_[i]};
                 }
                 // Threaded mode: each shard's timer/probe seams buffer
                 // into its journal during bursts and pass through to
                 // the shared wheel / per-shard sink otherwise.
                 journals_.push_back(std::make_unique<ShardSeamJournal>(
                     &timers_, &shard_sinks_[i]));
                 ShardSeamJournal* j = journals_.back().get();
                 return ShardedFilter::ShardSeams{&clock_, j, j};
               }) {
  if (pool_ != nullptr) {
    sub_.resize(sharded_.shard_count());
    op_cursor_.resize(sharded_.shard_count());
  }
}

sim::NodeId ShardedMaficFilter::atr_node_id() const noexcept {
  return atr_node_->id();
}

void ShardedMaficFilter::set_fleet(FleetBurstScheduler* fleet) {
  assert((fleet == nullptr || pool_ != nullptr) &&
         "fleet batching requires the threaded shard path");
  assert((fleet == nullptr || fleet->pool() == pool_) &&
         "fleet scheduler must share this filter's worker pool");
  fleet_ = fleet;
}

void ShardedMaficFilter::set_offered_callback(
    FilterEngine::OfferedCallback cb) {
  user_offered_ = std::move(cb);
  for (std::size_t i = 0; i < sharded_.shard_count(); ++i) {
    if (pool_ != nullptr && user_offered_) {
      // Worker-side invocations are journaled and replayed in span
      // order; sim-thread invocations (scalar recv, timer paths) go
      // straight through.
      ShardSeamJournal* j = journals_[i].get();
      sharded_.engine(i).set_offered_callback(
          [this, j](const sim::Packet& p) {
            if (j->buffering()) {
              j->record_offered(p);
            } else {
              user_offered_(p);
            }
          });
    } else {
      sharded_.engine(i).set_offered_callback(user_offered_);
    }
  }
}

void ShardedMaficFilter::set_classification_callback(
    FilterEngine::ClassificationCallback cb) {
  user_classified_ = std::move(cb);
  for (std::size_t i = 0; i < sharded_.shard_count(); ++i) {
    if (pool_ != nullptr && user_classified_) {
      ShardSeamJournal* j = journals_[i].get();
      sharded_.engine(i).set_classification_callback(
          [this, j](const SftEntry& e, TableKind dest) {
            if (j->buffering()) {
              j->record_classified(e, dest);
            } else {
              user_classified_(e, dest);
            }
          });
    } else {
      sharded_.engine(i).set_classification_callback(user_classified_);
    }
  }
}

FlowTables::Stats ShardedMaficFilter::tables_stats() const {
  return sharded_.aggregate_tables_stats();
}

FilterEngine::VictimStats ShardedMaficFilter::victim_stats_for(
    util::Addr victim) const {
  return sharded_.victim_stats_for(victim);
}

sim::InlineFilter::Decision ShardedMaficFilter::inspect(sim::Packet& p) {
  if (max_burst_ == 0) max_burst_ = 1;
  return to_decision(sharded_.inspect(p));
}

void ShardedMaficFilter::inspect_burst(sim::PacketPtr* pkts, std::size_t n,
                                       Decision* out) {
  if (n > max_burst_) max_burst_ = n;
  batch_ptrs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) batch_ptrs_[i] = pkts[i].get();
  if (pool_ != nullptr) {
    inspect_burst_threaded(n, out);
    return;
  }
  batch_verdicts_.resize(n);
  sharded_.inspect_batch(batch_ptrs_.data(), n, batch_verdicts_.data());
  for (std::size_t i = 0; i < n; ++i) out[i] = to_decision(batch_verdicts_[i]);
}

void ShardedMaficFilter::run_shard(std::size_t s) {
  const std::size_t n = batch_ptrs_.size();

  // Cooperative chunk partition: every shard task claims unpartitioned
  // chunks until none remain, so each packet is gated + hashed exactly
  // once, fully inside the pool tasks (the submitting thread's fan-out
  // cost no longer scales with span size), with no claim order
  // dependence (chunks write disjoint index ranges of part_). A task
  // that finds all chunks claimed waits for the stragglers — and because
  // claiming is work-stealing, the barrier cannot deadlock at any worker
  // count: whichever task runs first partitions everything itself.
  for (std::uint32_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
       c < chunk_total_;
       c = next_chunk_.fetch_add(1, std::memory_order_relaxed)) {
    const std::size_t begin = n * c / chunk_total_;
    const std::size_t end = n * (c + 1) / chunk_total_;
    sharded_.partition_span_range(batch_ptrs_.data(), begin, end, part_);
    // Cold packets belong to no shard; their final Decision is written
    // here by the chunk's owner (still disjoint-index, still parallel).
    for (std::size_t i = begin; i < end; ++i) {
      if (part_.hot[i] == 0) cur_out_[i] = Decision::forward();
    }
    chunks_done_.fetch_add(1, std::memory_order_release);
  }
  while (chunks_done_.load(std::memory_order_acquire) < chunk_total_) {
    std::this_thread::yield();
  }

  // Gather this shard's sub-span (arrival order) off the shared
  // partition arrays — sequential integer reads, no packet derefs until
  // a packet is actually ours.
  SubSpan& sub = sub_[s];
  for (std::size_t i = 0; i < n; ++i) {
    if (part_.hot[i] == 0 || part_.shard[i] != s) continue;
    sub.pkts.push_back(batch_ptrs_[i]);
    sub.keys.push_back(part_.keys[i]);
    sub.span_idx.push_back(static_cast<std::uint32_t>(i));
  }
  if (sub.pkts.empty()) return;
  sub.verdicts.resize(sub.pkts.size());
  sharded_.engine(s).inspect_batch_keyed(sub.pkts.data(), sub.keys.data(),
                                         sub.span_idx.data(),
                                         sub.pkts.size(),
                                         sub.verdicts.data(),
                                         journals_[s].get());
  // Scatter this shard's verdicts straight into the span's Decision
  // array (disjoint indices again), so the sim thread never walks the
  // span after the join: complete_shards only merges the sparse seam
  // journals.
  for (std::size_t j = 0; j < sub.pkts.size(); ++j) {
    cur_out_[sub.span_idx[j]] = to_decision(sub.verdicts[j]);
  }
}

void ShardedMaficFilter::apply_op(std::size_t s,
                                  const ShardSeamJournal::Op& op) {
  using OpKind = ShardSeamJournal::OpKind;
  switch (op.kind) {
    case OpKind::kTimerSchedule:
    case OpKind::kTimerCancel:
    case OpKind::kTimerReschedule:
      journals_[s]->apply_timer(op);
      return;
    case OpKind::kProbe:
      shard_sinks_[s].send_probe(op.flow);
      return;
    case OpKind::kOffered:
      if (user_offered_) user_offered_(*op.pkt);
      return;
    case OpKind::kClassified:
      if (user_classified_) user_classified_(op.entry, op.dest);
      return;
  }
}

void ShardedMaficFilter::prepare_shards(std::size_t n, Decision* out) {
  const std::size_t shards = sharded_.shard_count();

  // The partition itself is worker-side (see run_shard): here we only
  // size the shared arrays, arm the chunk-claim counters and open the
  // journals — nothing the submitting thread does scales with n beyond
  // the (amortised) resizes. 2x chunks per shard keeps the cooperative
  // barrier's straggler tail to half a sub-span scan.
  part_.hot.resize(n);
  part_.keys.resize(n);
  part_.shard.resize(n);
  cur_out_ = out;
  chunk_total_ = static_cast<std::uint32_t>(2 * shards);
  next_chunk_.store(0, std::memory_order_relaxed);
  chunks_done_.store(0, std::memory_order_relaxed);
  for (std::size_t s = 0; s < shards; ++s) sub_[s].clear();
  for (std::size_t s = 0; s < shards; ++s) journals_[s]->begin_burst();
}

void ShardedMaficFilter::complete_shards(std::size_t n, Decision* out) {
  (void)n;
  (void)out;  // every Decision was scattered worker-side (run_shard)
  const std::size_t shards = sharded_.shard_count();
  for (std::size_t s = 0; s < shards; ++s) journals_[s]->end_burst();

  // Deterministic merge: a K-way interleave of the per-shard op streams
  // by original span index — the exact seam call sequence the serial
  // in-order walk produces. Each stream is span-sorted (sub-spans are
  // walked in arrival order) and a span index lives in exactly one
  // shard, so the minimum is always unique. Unlike the verdicts (dense,
  // handled worker-side), seam ops are sparse — admissions, timer moves,
  // probes — so this replay walk no longer scales with span size.
  for (std::size_t s = 0; s < shards; ++s) op_cursor_[s] = 0;
  while (true) {
    std::size_t best = shards;
    std::uint32_t best_span = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const auto& ops = journals_[s]->ops();
      if (op_cursor_[s] >= ops.size()) continue;
      const std::uint32_t span = ops[op_cursor_[s]].span;
      if (best == shards || span < best_span) {
        best = s;
        best_span = span;
      }
    }
    if (best == shards) break;
    apply_op(best, journals_[best]->ops()[op_cursor_[best]++]);
  }
  for (std::size_t s = 0; s < shards; ++s) {
    assert(op_cursor_[s] == journals_[s]->ops().size());
    journals_[s]->clear_ops();
  }
}

void ShardedMaficFilter::inspect_burst_threaded(std::size_t n,
                                                Decision* out) {
  ++threaded_bursts_;
  // Speculative fan-out: workers classify sub-spans against shard-local
  // state, journaling every seam side effect. The pool's fan-out/join is
  // the happens-before edge for everything the workers read and wrote.
  prepare_shards(n, out);
  pool_->submit([this](std::size_t s) { run_shard(s); },
                sharded_.shard_count());
  pool_->wait();
  complete_shards(n, out);
}

void ShardedMaficFilter::run_shard_task(void* ctx, std::size_t arg) {
  static_cast<ShardedMaficFilter*>(ctx)->run_shard(arg);
}

void ShardedMaficFilter::recv_burst(sim::PacketPtr* pkts, std::size_t n) {
  if (fleet_ == nullptr) {
    InlineFilter::recv_burst(pkts, n);
    return;
  }
  // Defer: take ownership of the span and wait for the tick drain. A
  // second same-tick span (impossible through a real LinkTransmitter)
  // concatenates onto the held one.
  const bool first = held_.empty();
  held_.reserve(held_.size() + n);
  for (std::size_t i = 0; i < n; ++i) held_.push_back(std::move(pkts[i]));
  ++fleet_bursts_;
  if (first) fleet_->enqueue(this);
}

void ShardedMaficFilter::fleet_prepare(
    std::vector<ShardWorkerPool::Task>& tasks) {
  const std::size_t n = held_.size();
  if (n > max_burst_) max_burst_ = n;
  held_decisions_.resize(n);
  batch_ptrs_.resize(n);
  for (std::size_t i = 0; i < n; ++i) batch_ptrs_[i] = held_[i].get();
  prepare_shards(n, held_decisions_.data());
  // One task per shard, unconditionally: which shards own packets is
  // only known once the workers partition, and an empty shard's task
  // costs a chunk claim plus an integer gather scan.
  for (std::size_t s = 0; s < sharded_.shard_count(); ++s) {
    tasks.push_back(ShardWorkerPool::Task{
        &ShardedMaficFilter::run_shard_task, this, s});
  }
}

void ShardedMaficFilter::fleet_complete() {
  const std::size_t n = held_.size();
  complete_shards(n, held_decisions_.data());
  finish_burst(held_.data(), n, held_decisions_.data());
  held_.clear();
}

}  // namespace mafic::core
