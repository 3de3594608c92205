#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/lanes.hpp"
#include "trace/trace.hpp"

namespace agile::net {

Network::Network(NetworkConfig config)
    : config_(config),
      payload_rate_(config.link_bits_per_sec / 8.0 * config.protocol_efficiency),
      flow_payload_rate_(0.0),
      topo_(config.topology, payload_rate_) {
  AGILE_CHECK(config_.link_bits_per_sec > 0);
  AGILE_CHECK(config_.protocol_efficiency > 0 && config_.protocol_efficiency <= 1.0);
  AGILE_CHECK(config_.flow_max_bits_per_sec >= 0);
  // Uncapped flows carry an infinite per-flow budget: min(x, inf) == x, so
  // the default allocation arithmetic is bitwise identical to the pre-cap
  // model (the golden tests depend on that).
  flow_payload_rate_ =
      config_.flow_max_bits_per_sec > 0
          ? config_.flow_max_bits_per_sec / 8.0 * config_.protocol_efficiency
          : std::numeric_limits<double>::infinity();
  links_.resize(topo_.link_count());  // leaf links exist before any node
  background_.reshape(background_.rows(), links_.size());
}

void Network::bind_lanes(const sim::LaneCoordinator* lanes) {
  lanes_ = lanes;
  background_.reshape(lanes != nullptr ? lanes->lane_count() : 1,
                      links_.size());
}

NodeId Network::add_node(std::string name, std::uint32_t rack) {
  NodeId id = topo_.add_node(rack);
  links_.resize(topo_.link_count());
  background_.reshape(background_.rows(), links_.size());
  nodes_.push_back(Node{std::move(name), {}});
  AGILE_CHECK(nodes_.size() == topo_.node_count());
  return id;
}

const std::string& Network::node_name(NodeId id) const {
  AGILE_CHECK(id < nodes_.size());
  return nodes_[id].name;
}

FlowId Network::open_flow(NodeId src, NodeId dst,
                          std::function<void(Bytes)> on_delivered) {
  AGILE_CHECK(src < nodes_.size() && dst < nodes_.size());
  AGILE_CHECK_MSG(src != dst, "flow endpoints must differ");
  FlowId id = next_flow_id_++;
  flows_.emplace(id, Flow{src, dst, topo_.route(src, dst), 0, 0,
                          std::move(on_delivered)});
  return id;
}

Network::Flow& Network::flow_ref(FlowId id) {
  auto it = flows_.find(id);
  AGILE_CHECK_MSG(it != flows_.end(), "unknown flow");
  return it->second;
}

const Network::Flow& Network::flow_ref(FlowId id) const {
  auto it = flows_.find(id);
  AGILE_CHECK_MSG(it != flows_.end(), "unknown flow");
  return it->second;
}

void Network::offer(FlowId flow, Bytes bytes) { flow_ref(flow).backlog += bytes; }

Bytes Network::backlog(FlowId flow) const { return flow_ref(flow).backlog; }

void Network::close_flow(FlowId flow) {
  auto it = flows_.find(flow);
  AGILE_CHECK_MSG(it != flows_.end(), "closing unknown flow");
  flows_.erase(it);
}

void Network::consume_background(NodeId src, NodeId dst, Bytes bytes) {
  AGILE_CHECK(src < nodes_.size() && dst < nodes_.size());
  // Callable concurrently from parallel event lanes (workload client
  // traffic, demand-fault RPCs, VMD page writes): each lane adds to its own
  // row, and advance() sums the rows only after the lane barrier.
  const std::size_t row = sim::LaneCoordinator::thread_lane(lanes_);
  Topology::Path path = topo_.route(src, dst);
  for (std::uint8_t i = 0; i < path.count; ++i) {
    background_.add(row, path.link[i], static_cast<std::int64_t>(bytes));
  }
}

SimTime Network::rpc_latency(NodeId client, NodeId server, Bytes payload) const {
  AGILE_CHECK(client < nodes_.size() && server < nodes_.size());
  // The response travels server → client; congestion follows the most
  // utilized link of that path, transmission its narrowest link.
  Topology::Path path = topo_.route(server, client);
  double u = 0.0;
  double rate = std::numeric_limits<double>::infinity();
  for (std::uint8_t i = 0; i < path.count; ++i) {
    u = std::max(u, links_[path.link[i]].util);
    rate = std::min(rate, topo_.link(path.link[i]).payload_rate);
  }
  u = std::clamp(u, 0.0, 1.0 - 1.0 / config_.max_queue_factor);
  double transfer_sec = static_cast<double>(payload) / rate;
  double queue_factor = std::min(1.0 / (1.0 - u), config_.max_queue_factor);
  // One base RTT per switch crossing: a flat path (2 links) pays exactly the
  // configured RTT; each extra fabric hop adds another.
  SimTime rtt = config_.base_rtt * static_cast<SimTime>(path.count - 1);
  return rtt + static_cast<SimTime>(transfer_sec * queue_factor * 1e6);
}

void Network::advance(SimTime dt) {
  AGILE_CHECK(dt > 0);
  const double dt_sec = to_seconds(dt);
  const std::size_t link_count = links_.size();

  // One sum per link over the lane rows (the lane barrier has already
  // joined, so the sums are final).
  std::vector<Bytes> background(link_count);
  for (std::size_t l = 0; l < link_count; ++l) {
    background[l] = static_cast<Bytes>(background_.sum(l));
  }

  // Per-link remaining capacity after this quantum's background traffic.
  std::vector<double> quantum_cap(link_count), cap(link_count);
  for (std::size_t l = 0; l < link_count; ++l) {
    quantum_cap[l] = topo_.link(static_cast<LinkId>(l)).payload_rate * dt_sec;
    cap[l] = std::max(0.0, quantum_cap[l] - static_cast<double>(background[l]));
  }

  // Per-flow budget for this quantum (infinite when no cap is configured, so
  // min() with it leaves the increments untouched).
  const double flow_cap = flow_payload_rate_ * dt_sec;

  // Progressive-filling max–min fair allocation over active flows: every
  // link of a flow's path is a constraining resource.
  struct Active {
    FlowId id;
    Topology::Path path;
    double remaining;  // backlog still unallocated
    double alloc = 0.0;
    double cap_left = 0.0;  // per-flow budget still unallocated
  };
  std::vector<Active> active;
  active.reserve(flows_.size());
  // std::map iteration is id order — the deterministic open order.
  for (auto& [id, f] : flows_) {
    if (f.backlog > 0) {
      active.push_back({id, f.path, static_cast<double>(f.backlog), 0.0, flow_cap});
    }
  }

  std::vector<bool> frozen(active.size(), false);
  std::size_t live = active.size();
  constexpr double kEps = 1e-6;
  while (live > 0) {
    // Users per link among live flows.
    std::vector<int> users(link_count, 0);
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (frozen[i]) continue;
      for (std::uint8_t p = 0; p < active[i].path.count; ++p) {
        ++users[active[i].path.link[p]];
      }
    }
    // Largest uniform increment every live flow can take.
    double inc = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (frozen[i]) continue;
      inc = std::min(inc, active[i].remaining);
      inc = std::min(inc, active[i].cap_left);
      for (std::uint8_t p = 0; p < active[i].path.count; ++p) {
        LinkId l = active[i].path.link[p];
        inc = std::min(inc, cap[l] / users[l]);
      }
    }
    if (!std::isfinite(inc)) break;
    inc = std::max(inc, 0.0);
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (frozen[i]) continue;
      active[i].alloc += inc;
      active[i].remaining -= inc;
      active[i].cap_left -= inc;  // inf - inc == inf for uncapped flows
      for (std::uint8_t p = 0; p < active[i].path.count; ++p) {
        cap[active[i].path.link[p]] -= inc;
      }
    }
    // Freeze flows that hit their backlog, their per-flow budget, or a
    // saturated link anywhere on their path.
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (frozen[i]) continue;
      bool saturated = false;
      for (std::uint8_t p = 0; p < active[i].path.count; ++p) {
        if (cap[active[i].path.link[p]] <= kEps) {
          saturated = true;
          break;
        }
      }
      if (active[i].remaining <= kEps || active[i].cap_left <= kEps ||
          saturated) {
        frozen[i] = true;
        --live;
      }
    }
    if (inc <= kEps && live > 0) {
      // All remaining flows sit on saturated links; stop.
      break;
    }
  }

  // Commit deliveries and gather callbacks before invoking any of them, so a
  // callback that opens/closes flows can't invalidate our iteration.
  struct Delivery {
    // By value: a callback may close its own (or any other) flow, so
    // pointers into `flows_` must not outlive this loop.
    std::function<void(Bytes)> fn;
    Bytes bytes;
  };
  std::vector<Delivery> deliveries;
  std::vector<double> flow_link(link_count, 0.0);
  for (const Active& a : active) {
    auto bytes = static_cast<Bytes>(a.alloc);
    if (bytes == 0) continue;
    Flow& f = flow_ref(a.id);
    bytes = std::min<Bytes>(bytes, f.backlog);
    f.backlog -= bytes;
    f.delivered_total += bytes;
    for (std::uint8_t p = 0; p < f.path.count; ++p) {
      LinkId l = f.path.link[p];
      flow_link[l] += static_cast<double>(bytes);
      links_[l].bytes_total += bytes;
    }
    nodes_[f.src].stats.tx_bytes += bytes;
    nodes_[f.dst].stats.rx_bytes += bytes;
    if (f.on_delivered) deliveries.push_back({f.on_delivered, bytes});
  }

  // Fold background traffic into link totals and compute utilization for the
  // RPC latency model; reset the per-quantum accumulators.
  for (std::size_t l = 0; l < link_count; ++l) {
    Link& link = links_[l];
    link.bytes_total += background[l];
    link.util = std::min(
        1.0, (flow_link[l] + static_cast<double>(background[l])) / quantum_cap[l]);
  }
  background_.reset();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeId id = static_cast<NodeId>(i);
    nodes_[i].stats.tx_bytes += background[topo_.host_up(id)];
    nodes_[i].stats.rx_bytes += background[topo_.host_down(id)];
  }

  // Fabric-level telemetry on the global lane: one sample per quantum while
  // any flow is active (idle quanta add nothing to the trace).
  if (trace::enabled() && !active.empty()) {
    Bytes backlog_total = 0;
    for (const auto& [id, f] : flows_) backlog_total += f.backlog;
    Bytes delivered_quantum = 0;
    for (const Delivery& d : deliveries) delivered_quantum += d.bytes;
    delivered_total_ += delivered_quantum;
    AGILE_TRACE_COUNTER("net", "backlog_bytes", 0, backlog_total);
    AGILE_TRACE_COUNTER("net", "delivered_bytes", 0, delivered_total_);
    AGILE_TRACE_COUNTER("net", "active_flows", 0, active.size());
  }

  for (const Delivery& d : deliveries) d.fn(d.bytes);
}

double Network::tx_utilization(NodeId node) const {
  AGILE_CHECK(node < nodes_.size());
  return links_[topo_.host_up(node)].util;
}

double Network::rx_utilization(NodeId node) const {
  AGILE_CHECK(node < nodes_.size());
  return links_[topo_.host_down(node)].util;
}

const NodeStats& Network::stats(NodeId node) const {
  AGILE_CHECK(node < nodes_.size());
  return nodes_[node].stats;
}

double Network::link_utilization(LinkId id) const {
  AGILE_CHECK(id < links_.size());
  return links_[id].util;
}

Bytes Network::link_bytes_total(LinkId id) const {
  AGILE_CHECK(id < links_.size());
  return links_[id].bytes_total;
}

TierTotals Network::tier_totals(LinkTier tier) const {
  TierTotals totals;
  for (std::size_t l = 0; l < links_.size(); ++l) {
    if (topo_.link(static_cast<LinkId>(l)).tier != tier) continue;
    ++totals.links;
    totals.bytes_total += links_[l].bytes_total;
    totals.capacity_bytes_per_sec += topo_.link(static_cast<LinkId>(l)).payload_rate;
    totals.peak_utilization = std::max(totals.peak_utilization, links_[l].util);
  }
  return totals;
}

}  // namespace agile::net
