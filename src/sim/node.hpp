#pragma once

/// \file node.hpp
/// Hosts and routers. A node owns an address and a port-demux table for
/// local agents; its next-hop routes live in the owning Network's route
/// table, filled in by the static routing computation.

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "sim/connector.hpp"
#include "sim/link.hpp"
#include "sim/packet.hpp"
#include "sim/types.hpp"
#include "util/ip.hpp"

namespace mafic::sim {

class Network;

enum class NodeKind : std::uint8_t { kHost, kRouter };

/// Anything that can receive locally delivered packets (transport agents).
class PacketHandler {
 public:
  virtual ~PacketHandler() = default;
  virtual void recv(PacketPtr p) = 0;
};

class Node {
 public:
  Node(const Network* net, NodeId id, util::Addr addr, NodeKind kind);

  NodeId id() const noexcept { return id_; }
  util::Addr addr() const noexcept { return addr_; }
  NodeKind kind() const noexcept { return kind_; }
  bool is_router() const noexcept { return kind_ == NodeKind::kRouter; }

  /// Binds an agent to a local port (non-owning). Replaces any previous
  /// binding on that port.
  void bind_port(std::uint16_t port, PacketHandler* handler);
  void unbind_port(std::uint16_t port);

  /// Next-hop link towards `dst` from the network's route table (see
  /// Network::route); nullptr means no route.
  SimplexLink* route_for(util::Addr dst) const noexcept;
  /// Number of destination nodes this node has a route to.
  std::size_t route_count() const noexcept;

  /// Origination or forwarding: looks up the route and pushes the packet
  /// into the outgoing link. Local destinations are delivered directly.
  void send(PacketPtr p);

  /// Arrival from a link (or loopback). Delivers locally or forwards.
  void handle_packet(PacketPtr p);

  /// Burst arrival: delivers/forwards each packet in order, re-forming
  /// bursts on the way out — maximal contiguous runs with the same
  /// next-hop link leave as one span, so bursts survive routing hops and
  /// reach downstream batch consumers intact.
  void handle_burst(PacketPtr* pkts, std::size_t n);

  /// Ingress connector handed to incoming links as their endpoint.
  Connector* entry() noexcept { return &entry_; }

  void set_drop_handler(DropHandler h) { drop_handler_ = std::move(h); }

  struct Stats {
    std::uint64_t originated = 0;
    std::uint64_t forwarded = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped_no_route = 0;
    std::uint64_t dropped_ttl = 0;
    std::uint64_t dropped_unbound = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  class Entry final : public Connector {
   public:
    explicit Entry(Node* n) : node_(n) {}
    void recv(PacketPtr p) override { node_->handle_packet(std::move(p)); }
    void recv_burst(PacketPtr* pkts, std::size_t n) override {
      node_->handle_burst(pkts, n);
    }

   private:
    Node* node_;
  };

  void deliver_local(PacketPtr p);
  void drop(const Packet& p, DropReason r);

  const Network* net_;
  NodeId id_;
  util::Addr addr_;
  NodeKind kind_;
  Entry entry_;
  std::unordered_map<std::uint16_t, PacketHandler*> ports_;
  DropHandler drop_handler_;
  Stats stats_;
};

}  // namespace mafic::sim
