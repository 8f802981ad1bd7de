#pragma once

/// \file network.hpp
/// Container that owns nodes and links, wires link endpoints to node
/// ingress connectors, and computes static shortest-path routes. The route
/// table lives here: one dense first-hop row per multi-link node (the
/// routers), while a node with a single out-link (a host) forwards
/// everything through that uplink.

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/link.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace mafic::sim {

class Network {
 public:
  explicit Network(Simulator* sim) : sim_(sim) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Node* add_host(util::Addr addr) { return add_node(addr, NodeKind::kHost); }
  Node* add_router(util::Addr addr) {
    return add_node(addr, NodeKind::kRouter);
  }

  /// Creates a simplex link from -> to and wires its endpoint.
  SimplexLink* add_simplex(NodeId from, NodeId to, SimplexLink::Config cfg);

  /// Creates both directions with the same config.
  std::pair<SimplexLink*, SimplexLink*> add_duplex(NodeId a, NodeId b,
                                                   SimplexLink::Config cfg);

  /// Computes next-hop routes for every (node, destination-node) pair using
  /// Dijkstra over link propagation delays. Must be called after topology
  /// construction and before traffic starts; may be called again after
  /// adding links. Dijkstra runs only from nodes that get a row (see
  /// route()); a one-link node's routes are its neighbour's reach.
  void build_routes();

  /// Outgoing link on node `from`'s shortest path to address `dst`;
  /// nullptr when `dst` is unknown, is `from` itself, is unreachable, or
  /// either node was added after the last build_routes().
  SimplexLink* route(NodeId from, util::Addr dst) const noexcept;

  /// Number of nodes `from` has a route to (computed on demand, O(nodes)).
  std::size_t route_count(NodeId from) const noexcept;

  Node* node(NodeId id) noexcept {
    return id < nodes_.size() ? nodes_[id].get() : nullptr;
  }
  const Node* node(NodeId id) const noexcept {
    return id < nodes_.size() ? nodes_[id].get() : nullptr;
  }
  Node* node_by_addr(util::Addr a) noexcept;

  SimplexLink* find_link(NodeId from, NodeId to) noexcept;

  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t link_count() const noexcept { return links_.size(); }

  const std::vector<std::unique_ptr<Node>>& nodes() const noexcept {
    return nodes_;
  }
  const std::vector<std::unique_ptr<SimplexLink>>& links() const noexcept {
    return links_;
  }
  std::vector<std::unique_ptr<SimplexLink>>& links() noexcept {
    return links_;
  }

  Simulator* simulator() noexcept { return sim_; }

  /// Installs one drop handler on every node and link (queues + filters).
  void set_drop_handler(DropHandler h);

 private:
  Node* add_node(util::Addr addr, NodeKind kind);
  SimplexLink* route_to(NodeId from, NodeId to) const noexcept;
  static std::uint64_t link_key(NodeId from, NodeId to) noexcept {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  Simulator* sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<SimplexLink>> links_;
  std::unordered_map<std::uint64_t, SimplexLink*> by_endpoints_;
  std::unordered_map<util::Addr, NodeId> by_addr_;
  DropHandler drop_handler_;

  // Route table from the last build_routes(), over its first
  // route_slots_.size() nodes. A node with a row reads
  // first_hop_[row * route_slots_.size() + dst]. A node without one
  // sends everything out of `uplink` (nullptr if it has no out-link); its
  // neighbour always has a row.
  static constexpr std::uint32_t kNoRow = 0xffffffffu;
  struct RouteSlot {
    SimplexLink* uplink = nullptr;
    std::uint32_t row = kNoRow;
  };
  std::vector<RouteSlot> route_slots_;
  std::vector<SimplexLink*> first_hop_;
};

}  // namespace mafic::sim
