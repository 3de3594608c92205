// Flow-level network model over a capacitated link topology.
//
// Nodes attach to a `Topology` (net/topology.hpp): the default flat shape is
// the paper's single non-blocking top-of-rack switch, where each NIC is full
// duplex with a configurable line rate (default 1 Gbps); the leaf-spine shape
// adds an oversubscribed per-rack core tier. Two kinds of traffic are
// modeled:
//
//  * Flows — bulk byte streams (migration memory transfer, VMD swap-out
//    trains). A flow carries a backlog of offered bytes and a fixed
//    multi-hop path; every simulation quantum the network drains backlogs
//    under a max–min fair allocation in which *every link of the path* is a
//    constraining resource (progressive filling). Delivered bytes are
//    reported to the owner, which maps them back onto page descriptors
//    (FIFO order, matching a TCP stream).
//  * Background/RPC traffic — small request/response exchanges (demand-page
//    faults, VMD point reads, client ops). Callers account the bytes via
//    `consume_background`, which debits every link on the pair's path, and
//    query `rpc_latency` for a latency estimate that includes transmission
//    plus a congestion-dependent queueing factor over the most loaded link
//    of the path — so demand paging slows down while a bulk migration
//    saturates a shared link and vice versa.
//
// Degenerate flows are rejected, not modeled: a flow with src == dst is a
// loopback that never touches the fabric (callers short-circuit those), and
// the topology refuses to build zero-capacity links — both fail an
// AGILE_CHECK at the call site instead of silently starving.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "util/lane_sums.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace agile::sim {
class LaneCoordinator;
}  // namespace agile::sim

namespace agile::net {

using FlowId = std::uint64_t;

struct NetworkConfig {
  double link_bits_per_sec = 1e9;  ///< NIC line rate, full duplex (1 Gbps).
  SimTime base_rtt = 200;          ///< Switch round-trip for a minimal frame, µs.
  double protocol_efficiency = 0.94;  ///< TCP/IP+Ethernet framing overhead factor.
  double max_queue_factor = 200.0;  ///< Cap on the congestion queueing multiplier.
  /// Per-flow rate ceiling in bits/sec; 0 means uncapped (NIC rate only).
  /// Models a single TCP connection's throughput limit (window/cwnd bound),
  /// which is what makes N parallel migration streams faster than one on a
  /// fat pipe — with no per-flow cap, max–min filling already saturates the
  /// NIC pair with a single flow.
  double flow_max_bits_per_sec = 0.0;
  /// Fabric shape. The default (flat single switch) reproduces the legacy
  /// model bit-for-bit; kLeafSpine adds the oversubscribed core tier.
  TopologyConfig topology;
};

struct NodeStats {
  std::uint64_t tx_bytes = 0;  ///< Total bytes sent (flows + background).
  std::uint64_t rx_bytes = 0;
};

/// Aggregate view of one link tier over the run (per-tier stats gauges and
/// bench verdicts read this).
struct TierTotals {
  std::size_t links = 0;
  Bytes bytes_total = 0;  ///< Cumulative flow + background bytes on the tier.
  double capacity_bytes_per_sec = 0.0;  ///< Sum of link payload rates.
  double peak_utilization = 0.0;  ///< Max per-link utilization, last quantum.
};

class Network {
 public:
  explicit Network(NetworkConfig config = {});

  /// Shapes the background accumulators for the event lanes of `lanes` (one
  /// row per lane; null for a cluster without lanes). Call between windows,
  /// before any lane event of `lanes` sends traffic.
  void bind_lanes(const sim::LaneCoordinator* lanes);

  /// Adds a node on `rack` (kCoreAttached → spine / external). The rack is
  /// ignored by the flat topology.
  NodeId add_node(std::string name, std::uint32_t rack = kCoreAttached);
  std::size_t node_count() const { return nodes_.size(); }
  const std::string& node_name(NodeId id) const;
  std::uint32_t rack_of(NodeId id) const { return topo_.rack_of(id); }

  /// Usable payload bytes per second on one NIC direction.
  double link_bytes_per_sec() const { return payload_rate_; }

  /// Usable payload bytes per second a single flow may carry. Equals
  /// link_bytes_per_sec() when no per-flow cap is configured.
  double flow_bytes_per_sec() const {
    return flow_payload_rate_ < payload_rate_ ? flow_payload_rate_ : payload_rate_;
  }

  /// Opens a bulk stream from `src` to `dst`; its path through the fabric is
  /// fixed here. `on_delivered(bytes)` is called as bytes reach the
  /// receiver. Streams start with an empty backlog; feed them with `offer`.
  /// Loopback (src == dst) is rejected — such traffic never touches the
  /// fabric and callers must short-circuit it.
  FlowId open_flow(NodeId src, NodeId dst, std::function<void(Bytes)> on_delivered);

  /// Adds bytes to a flow's send backlog.
  void offer(FlowId flow, Bytes bytes);

  /// Bytes offered but not yet delivered.
  Bytes backlog(FlowId flow) const;

  /// Closes a flow; undelivered backlog is dropped.
  void close_flow(FlowId flow);

  std::size_t open_flow_count() const { return flows_.size(); }

  /// Accounts small-message traffic for this quantum on every link of the
  /// src→dst path (affects fairness and congestion next `advance`).
  void consume_background(NodeId src, NodeId dst, Bytes bytes);

  /// Latency estimate for a request/response exchange where the response of
  /// `payload` bytes travels server→client, under current congestion. The
  /// queueing factor follows the most utilized link of the path, the
  /// transfer time its narrowest link, and the base RTT scales with the
  /// path's hop count (one switch crossing per extra link).
  SimTime rpc_latency(NodeId client, NodeId server, Bytes payload) const;

  /// Advances the model by `dt`: allocates bandwidth max–min fair over every
  /// path link, drains flow backlogs, fires delivery callbacks, folds
  /// background usage into the utilization estimate, and resets per-quantum
  /// accumulators.
  void advance(SimTime dt);

  /// Utilization (0..1) of a node's egress/ingress over the last quantum.
  double tx_utilization(NodeId node) const;
  double rx_utilization(NodeId node) const;

  const NodeStats& stats(NodeId node) const;

  // --- Link/topology observability -----------------------------------
  const TopologyConfig& topology() const { return config_.topology; }
  std::size_t link_count() const { return topo_.link_count(); }
  LinkTier link_tier(LinkId id) const { return topo_.link(id).tier; }
  double link_payload_rate(LinkId id) const { return topo_.link(id).payload_rate; }
  /// Utilization (0..1) of one link over the last quantum.
  double link_utilization(LinkId id) const;
  /// Cumulative flow + background bytes carried by one link.
  Bytes link_bytes_total(LinkId id) const;
  /// Aggregates every link of `tier` (zero-links TierTotals when the
  /// topology has none, e.g. leaf tiers on the flat shape).
  TierTotals tier_totals(LinkTier tier) const;

 private:
  struct Flow {
    NodeId src;
    NodeId dst;
    Topology::Path path;
    Bytes backlog = 0;
    Bytes delivered_total = 0;
    std::function<void(Bytes)> on_delivered;
  };

  /// Runtime state of one topology link.
  struct Link {
    double util = 0.0;  ///< Last quantum.
    Bytes bytes_total = 0;
  };

  struct Node {
    std::string name;
    NodeStats stats;
  };

  Flow& flow_ref(FlowId id);
  const Flow& flow_ref(FlowId id) const;

  NetworkConfig config_;
  double payload_rate_;       ///< bytes/sec usable per NIC direction.
  double flow_payload_rate_;  ///< bytes/sec usable per flow (inf = uncapped).
  Topology topo_;
  std::vector<Link> links_;
  /// Background bytes this quantum per link (one column per link), reset in
  /// advance(). Lane-sharded: parallel event lanes debit the links of client
  /// traffic, demand RPCs and VMD page writes concurrently, each into its
  /// own row — a commutative sum, so the post-barrier total (the only one
  /// advance() reads) is interleaving-independent. This member is in
  /// tools/lane_lint.py's shared-counter registry (LL004): the lint fails
  /// if it is ever re-declared as anything but util::LaneSums.
  util::LaneSums<std::int64_t> background_;
  const sim::LaneCoordinator* lanes_ = nullptr;  ///< Owner of the rows.
  std::vector<Node> nodes_;
  FlowId next_flow_id_ = 1;
  /// Ordered by id: advance() iterates flows in open order without an extra
  /// sort key, and the determinism lint's strict profile bans unordered
  /// containers in this module.
  std::map<FlowId, Flow> flows_;
  Bytes delivered_total_ = 0;  ///< Flow bytes delivered while traced.
};

}  // namespace agile::net
