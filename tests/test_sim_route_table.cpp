// Route-table equivalence: Network::build_routes() keeps Dijkstra rows only
// for multi-link nodes and routes one-link hosts through their uplink. The
// reference below is the all-pairs Dijkstra that used to fill a per-node
// (address -> link) map, kept verbatim; every (node, address) answer and
// every route count must match it.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "topology/topology.hpp"

namespace mafic::sim {
namespace {

/// The all-pairs reference: one (address -> first-hop link) map per node.
/// build() adds into the existing maps, as repeated add_route calls did.
class ReferenceRoutes {
 public:
  void build(const Network& net) {
    const auto& nodes = net.nodes();
    const std::size_t n = nodes.size();
    routes_.resize(n);

    // Adjacency: out-links per node.
    std::vector<std::vector<SimplexLink*>> out(n);
    for (const auto& l : net.links()) out[l->from()].push_back(l.get());

    constexpr double kInf = std::numeric_limits<double>::infinity();

    for (std::size_t src = 0; src < n; ++src) {
      std::vector<double> dist(n, kInf);
      std::vector<SimplexLink*> first_hop(n, nullptr);
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

      for (std::size_t dst = 0; dst < n; ++dst) {
        if (dst == src || first_hop[dst] == nullptr) continue;
        routes_[src][nodes[dst]->addr()] = first_hop[dst];
      }
    }
  }

  SimplexLink* route_for(NodeId node, util::Addr dst) const {
    if (node >= routes_.size()) return nullptr;
    const auto it = routes_[node].find(dst);
    return it == routes_[node].end() ? nullptr : it->second;
  }
  std::size_t route_count(NodeId node) const {
    return node < routes_.size() ? routes_[node].size() : 0;
  }

 private:
  std::vector<std::unordered_map<util::Addr, SimplexLink*>> routes_;
};

const util::Addr kUnknown[] = {util::make_addr(192, 0, 2, 1),
                               util::make_addr(198, 51, 100, 7),
                               util::make_addr(203, 0, 113, 255)};

/// Compares every node's route_for over every node address plus the
/// unknown ones, and every route_count, against the reference.
void expect_same_routes(const Network& net, const ReferenceRoutes& ref) {
  std::vector<util::Addr> addrs;
  for (const auto& n : net.nodes()) addrs.push_back(n->addr());
  addrs.insert(addrs.end(), std::begin(kUnknown), std::end(kUnknown));

  for (const auto& from : net.nodes()) {
    EXPECT_EQ(from->route_count(), ref.route_count(from->id()))
        << "node " << from->id();
    for (const util::Addr a : addrs) {
      ASSERT_EQ(from->route_for(a), ref.route_for(from->id(), a))
          << "node " << from->id() << " -> " << util::format_addr(a);
    }
  }
}

SimplexLink::Config link_cfg(double delay_s) {
  SimplexLink::Config c;
  c.bandwidth_bps = 1e8;
  c.delay_s = delay_s;
  return c;
}

struct DomainNet {
  Simulator sim;
  Network net{&sim};
  std::unique_ptr<topology::Domain> domain;

  DomainNet(std::uint64_t seed, std::size_t routers, std::size_t hosts,
            topology::DomainConfig cfg = {}) {
    cfg.router_count = routers;
    domain = std::make_unique<topology::Domain>(&net, util::Rng(seed), cfg);
    domain->build_core();
    for (std::size_t i = 0; i < hosts; ++i) domain->attach_host();
  }

  /// Builds both tables and compares them.
  void check() {
    net.build_routes();
    ReferenceRoutes ref;
    ref.build(net);
    expect_same_routes(net, ref);
  }
};

TEST(RouteTable, MatchesAllPairsOnDomainCores) {
  for (const std::uint64_t seed : {1u, 7u, 42u, 1234u}) {
    SCOPED_TRACE(seed);
    DomainNet d(seed, 8 + seed % 13, 60);
    d.check();
  }
}

TEST(RouteTable, MatchesAllPairsWithEqualLinkDelays) {
  // Every core and access link has the same delay, so many destinations
  // have several shortest paths and the (dist, NodeId) tie-break decides.
  topology::DomainConfig cfg;
  cfg.core_delay_min_s = cfg.core_delay_max_s = 0.004;
  cfg.access_delay_s = cfg.victim_delay_s = 0.004;
  cfg.extra_edge_fraction = 2.0;
  for (const std::uint64_t seed : {3u, 5u}) {
    SCOPED_TRACE(seed);
    DomainNet d(seed, 16, 40, cfg);
    d.check();
  }
}

TEST(RouteTable, MatchesAllPairsOnDumbbell) {
  Simulator sim;
  Network net(&sim);
  topology::DumbbellConfig cfg;
  cfg.left_hosts = 4;
  cfg.right_hosts = 3;
  topology::build_dumbbell(net, cfg);  // builds routes
  ReferenceRoutes ref;
  ref.build(net);
  expect_same_routes(net, ref);
}

TEST(RouteTable, MultiHomedHostGetsItsOwnRow) {
  DomainNet d(9, 10, 20);
  const auto& routers = d.domain->routers();
  Node* h = d.net.add_host(util::make_addr(172, 30, 0, 1));
  d.net.add_duplex(h->id(), routers[2], link_cfg(0.001));
  d.net.add_duplex(h->id(), routers[7], link_cfg(0.002));
  d.check();
  EXPECT_EQ(h->route_count(), d.net.node_count() - 1);
}

TEST(RouteTable, HostHostDuplexAndDisconnectedIsland) {
  DomainNet d(11, 10, 20);
  // Two hosts wired only to each other: both ends are single-link.
  Node* p = d.net.add_host(util::make_addr(172, 30, 1, 1));
  Node* q = d.net.add_host(util::make_addr(172, 30, 1, 2));
  d.net.add_duplex(p->id(), q->id(), link_cfg(0.001));
  // An island: one router with three hosts, not joined to the core.
  Node* r = d.net.add_router(util::make_addr(10, 9, 0, 1));
  for (std::uint8_t i = 1; i <= 3; ++i) {
    Node* h = d.net.add_host(util::make_addr(172, 30, 2, i));
    d.net.add_duplex(h->id(), r->id(), link_cfg(0.001));
  }
  d.check();
  EXPECT_EQ(p->route_count(), 1u);
  EXPECT_EQ(p->route_for(q->addr()), d.net.find_link(p->id(), q->id()));
  EXPECT_EQ(r->route_count(), 3u);
  EXPECT_EQ(p->route_for(d.domain->victim_addr()), nullptr);
}

TEST(RouteTable, SimplexChainsAndSinks) {
  // a -> b -> r <-> c, r -> a, r -> sink: a's only neighbour is itself
  // single-link, b's neighbour is a router, and sink has no out-link.
  Simulator sim;
  Network net(&sim);
  Node* a = net.add_host(util::make_addr(172, 16, 0, 1));
  Node* b = net.add_host(util::make_addr(172, 16, 0, 2));
  Node* c = net.add_host(util::make_addr(172, 16, 0, 3));
  Node* sink = net.add_host(util::make_addr(172, 16, 0, 4));
  Node* r = net.add_router(util::make_addr(10, 0, 0, 1));
  net.add_simplex(a->id(), b->id(), link_cfg(0.001));
  net.add_simplex(b->id(), r->id(), link_cfg(0.001));
  net.add_duplex(r->id(), c->id(), link_cfg(0.001));
  net.add_simplex(r->id(), a->id(), link_cfg(0.001));
  net.add_simplex(r->id(), sink->id(), link_cfg(0.001));
  net.build_routes();
  ReferenceRoutes ref;
  ref.build(net);
  expect_same_routes(net, ref);
  EXPECT_EQ(sink->route_count(), 0u);
  EXPECT_EQ(a->route_count(), 4u);
}

TEST(RouteTable, RebuildAfterAddDuplexMatchesAccumulatedReference) {
  DomainNet d(21, 12, 30);
  d.net.build_routes();
  ReferenceRoutes ref;
  ref.build(d.net);
  expect_same_routes(d.net, ref);

  // New host and a new core chord: until the rebuild, nobody routes to
  // the host and the host routes nowhere; the chord changes nothing yet.
  const auto& routers = d.domain->routers();
  d.domain->attach_host(routers[3]);
  d.net.add_duplex(routers[1], routers[10], link_cfg(0.0001));
  expect_same_routes(d.net, ref);

  d.net.build_routes();
  ref.build(d.net);
  expect_same_routes(d.net, ref);
  EXPECT_EQ(d.net.node(routers[1])->route_for(d.net.node(routers[10])->addr()),
            d.net.find_link(routers[1], routers[10]));
}

TEST(RouteTable, NoRoutesBeforeBuild) {
  Simulator sim;
  Network net(&sim);
  Node* a = net.add_host(util::make_addr(172, 16, 0, 1));
  Node* r = net.add_router(util::make_addr(10, 0, 0, 1));
  net.add_duplex(a->id(), r->id(), link_cfg(0.001));
  EXPECT_EQ(a->route_for(r->addr()), nullptr);
  EXPECT_EQ(a->route_count(), 0u);
}

}  // namespace
}  // namespace mafic::sim
