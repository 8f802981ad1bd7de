#include "sim/node.hpp"

#include "sim/network.hpp"

namespace mafic::sim {

Node::Node(const Network* net, NodeId id, util::Addr addr, NodeKind kind)
    : net_(net), id_(id), addr_(addr), kind_(kind), entry_(this) {}

void Node::bind_port(std::uint16_t port, PacketHandler* handler) {
  ports_[port] = handler;
}

void Node::unbind_port(std::uint16_t port) { ports_.erase(port); }

SimplexLink* Node::route_for(util::Addr dst) const noexcept {
  return net_->route(id_, dst);
}

std::size_t Node::route_count() const noexcept {
  return net_->route_count(id_);
}

void Node::send(PacketPtr p) {
  ++stats_.originated;
  if (p->label.dst == addr_) {  // loopback
    deliver_local(std::move(p));
    return;
  }
  SimplexLink* out = route_for(p->label.dst);
  if (out == nullptr) {
    ++stats_.dropped_no_route;
    drop(*p, DropReason::kNoRoute);
    return;
  }
  out->entry()->recv(std::move(p));
}

void Node::handle_packet(PacketPtr p) {
  if (p->label.dst == addr_) {
    deliver_local(std::move(p));
    return;
  }
  // Forwarding path.
  if (p->ttl == 0 || --p->ttl == 0) {
    ++stats_.dropped_ttl;
    drop(*p, DropReason::kTtlExpired);
    return;
  }
  SimplexLink* out = route_for(p->label.dst);
  if (out == nullptr) {
    ++stats_.dropped_no_route;
    drop(*p, DropReason::kNoRoute);
    return;
  }
  ++stats_.forwarded;
  out->entry()->recv(std::move(p));
}

void Node::handle_burst(PacketPtr* pkts, std::size_t n) {
  // Forward maximal contiguous same-next-hop runs as one span; local
  // deliveries and drops are handled in place and end the current run.
  std::size_t run_start = 0;
  SimplexLink* run_link = nullptr;
  const auto flush = [&](std::size_t end) {
    if (run_link != nullptr && end > run_start) {
      run_link->entry()->recv_burst(pkts + run_start, end - run_start);
    }
    run_link = nullptr;
  };

  for (std::size_t i = 0; i < n; ++i) {
    Packet& p = *pkts[i];
    SimplexLink* out = nullptr;
    if (p.label.dst != addr_) {
      if (p.ttl == 0 || --p.ttl == 0) {
        flush(i);
        ++stats_.dropped_ttl;
        drop(p, DropReason::kTtlExpired);
        pkts[i].reset();
        continue;
      }
      out = route_for(p.label.dst);
      if (out == nullptr) {
        flush(i);
        ++stats_.dropped_no_route;
        drop(p, DropReason::kNoRoute);
        pkts[i].reset();
        continue;
      }
    }
    if (out == nullptr) {  // local delivery
      flush(i);
      deliver_local(std::move(pkts[i]));
      continue;
    }
    ++stats_.forwarded;
    if (out != run_link) {
      flush(i);
      run_link = out;
      run_start = i;
    }
  }
  flush(n);
}

void Node::deliver_local(PacketPtr p) {
  const auto it = ports_.find(p->label.dport);
  if (it == ports_.end()) {
    // Expected for e.g. probe ACKs aimed at a spoofed third party: the
    // host exists but runs no agent for that connection.
    ++stats_.dropped_unbound;
    drop(*p, DropReason::kUnboundPort);
    return;
  }
  ++stats_.delivered;
  it->second->recv(std::move(p));
}

void Node::drop(const Packet& p, DropReason r) {
  if (drop_handler_) drop_handler_(p, r, id_);
}

}  // namespace mafic::sim
