#include "sim/network.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>

namespace mafic::sim {

Node* Network::add_node(util::Addr addr, NodeKind kind) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(this, id, addr, kind));
  by_addr_[addr] = id;
  if (drop_handler_) nodes_.back()->set_drop_handler(drop_handler_);
  return nodes_.back().get();
}

SimplexLink* Network::add_simplex(NodeId from, NodeId to,
                                  SimplexLink::Config cfg) {
  assert(from < nodes_.size() && to < nodes_.size());
  links_.push_back(std::make_unique<SimplexLink>(sim_, from, to, cfg));
  SimplexLink* l = links_.back().get();
  l->set_endpoint(nodes_[to]->entry());
  if (drop_handler_) l->set_drop_handler(drop_handler_);
  by_endpoints_[link_key(from, to)] = l;
  return l;
}

std::pair<SimplexLink*, SimplexLink*> Network::add_duplex(
    NodeId a, NodeId b, SimplexLink::Config cfg) {
  return {add_simplex(a, b, cfg), add_simplex(b, a, cfg)};
}

Node* Network::node_by_addr(util::Addr a) noexcept {
  const auto it = by_addr_.find(a);
  return it == by_addr_.end() ? nullptr : nodes_[it->second].get();
}

SimplexLink* Network::find_link(NodeId from, NodeId to) noexcept {
  const auto it = by_endpoints_.find(link_key(from, to));
  return it == by_endpoints_.end() ? nullptr : it->second;
}

void Network::build_routes() {
  const std::size_t n = nodes_.size();

  // Adjacency: out-links per node.
  std::vector<std::vector<SimplexLink*>> out(n);
  for (const auto& l : links_) out[l->from()].push_back(l.get());

  // A node with one out-link never carries transit traffic: a path through
  // it would come straight back to its only neighbour. So its first hop is
  // always that uplink, and it reaches the neighbour plus whatever the
  // neighbour reaches. That holds only when the neighbour has a row of its
  // own; every other node with an out-link gets a row.
  route_slots_.assign(n, RouteSlot{});
  std::uint32_t rows = 0;
  for (std::size_t u = 0; u < n; ++u) {
    if (out[u].size() == 1 && out[out[u][0]->to()].size() > 1) {
      route_slots_[u].uplink = out[u][0];
    } else if (!out[u].empty()) {
      route_slots_[u].row = rows++;
    }
  }
  first_hop_.assign(std::size_t{rows} * n, nullptr);

  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Dijkstra from every node with a row: O(rows * E log V).
  std::vector<double> dist(n);
  for (std::size_t src = 0; src < n; ++src) {
    if (route_slots_[src].row == kNoRow) continue;
    SimplexLink** first_hop =
        first_hop_.data() + std::size_t{route_slots_[src].row} * n;
    std::fill(dist.begin(), dist.end(), kInf);
    using Entry = std::pair<double, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;

    dist[src] = 0.0;
    pq.emplace(0.0, static_cast<NodeId>(src));
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d > dist[u]) continue;
      for (SimplexLink* l : out[u]) {
        const NodeId v = l->to();
        const double nd = d + l->config().delay_s;
        if (nd < dist[v]) {
          dist[v] = nd;
          first_hop[v] = (u == src) ? l : first_hop[u];
          pq.emplace(nd, v);
        }
      }
    }
    first_hop[src] = nullptr;  // a node has no route to itself
  }
}

SimplexLink* Network::route_to(NodeId from, NodeId to) const noexcept {
  const RouteSlot& s = route_slots_[from];
  if (s.row != kNoRow) {
    return first_hop_[std::size_t{s.row} * route_slots_.size() + to];
  }
  if (s.uplink == nullptr || to == from) return nullptr;
  const NodeId via = s.uplink->to();
  return to == via || route_to(via, to) != nullptr ? s.uplink : nullptr;
}

SimplexLink* Network::route(NodeId from, util::Addr dst) const noexcept {
  const auto it = by_addr_.find(dst);
  if (it == by_addr_.end() || from >= route_slots_.size() ||
      it->second >= route_slots_.size()) {
    return nullptr;
  }
  return route_to(from, it->second);
}

std::size_t Network::route_count(NodeId from) const noexcept {
  if (from >= route_slots_.size()) return 0;
  std::size_t count = 0;
  for (NodeId to = 0; to < route_slots_.size(); ++to) {
    count += route_to(from, to) != nullptr ? 1 : 0;
  }
  return count;
}

void Network::set_drop_handler(DropHandler h) {
  drop_handler_ = std::move(h);
  for (auto& node : nodes_) node->set_drop_handler(drop_handler_);
  for (auto& link : links_) link->set_drop_handler(drop_handler_);
}

}  // namespace mafic::sim
