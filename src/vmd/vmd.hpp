// Virtualized Memory Device (VMD).
//
// The VMD aggregates free memory of intermediate hosts into a cluster-wide
// page store (the paper's MemX descendant). `VmdServer` instances run on
// intermediate hosts and allocate memory only when a page write arrives.
// `VmdClient` runs on the host currently executing a VM; it:
//
//  * partitions the aggregate space into *namespaces* — one per VM — and
//    exports each namespace as a block device (see VmdSwapDevice);
//  * places page writes with a load-aware round-robin over servers that most
//    recently reported free memory (servers push availability updates on a
//    heartbeat);
//  * locates and fetches pages on reads, paying real network cost through
//    the simulated fabric.
//
// Portability is the point: a namespace's client-side mapping can be
// re-attached at another host (`set_access_node`) without moving a single
// page — that is what lets Agile migration leave cold pages in place.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "storage/device.hpp"
#include "util/lane_sums.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace agile::sim {
class LaneCoordinator;
}  // namespace agile::sim

namespace agile::vmd {

using NamespaceId = std::uint32_t;
using PageKey = std::uint32_t;

struct VmdServerConfig {
  Bytes capacity = 64_GiB;       ///< Memory this host contributes.
  SimTime service_time = 3;      ///< µs to locate+copy a page in RAM.
  /// Optional second tier (paper §IV-A: "it is possible to extend the amount
  /// of swap space available at the VMD by using excess disk space (HDs
  /// and/or SSDs) alongside the excess memory"). 0 disables it.
  Bytes disk_capacity = 0;
  storage::SsdConfig disk = {};  ///< Device model for the disk tier.
};

/// Which tier a stored page landed on.
enum class VmdTier : std::uint8_t { kMemory = 0, kDisk = 1 };

class VmdServer {
 public:
  /// `lanes` is the coordinator whose lane events store and drop pages
  /// here (null when the owning cluster runs without lanes).
  VmdServer(std::string name, net::NodeId node, VmdServerConfig config = {},
            const sim::LaneCoordinator* lanes = nullptr);

  const std::string& name() const { return name_; }
  net::NodeId node() const { return node_; }

  Bytes capacity() const { return config_.capacity; }
  Bytes used_bytes() const { return memory_pages() * kPageSize; }
  Bytes free_bytes() const { return config_.capacity - used_bytes(); }
  Bytes disk_capacity() const { return config_.disk_capacity; }
  Bytes disk_free_bytes() const {
    return config_.disk_capacity - disk_pages() * kPageSize;
  }
  std::uint64_t used_pages() const { return memory_pages() + disk_pages(); }
  std::uint64_t memory_pages() const { return tier_pages(VmdTier::kMemory); }
  std::uint64_t disk_pages() const { return tier_pages(VmdTier::kDisk); }
  SimTime service_time() const { return config_.service_time; }

  /// Allocate-on-write: memory first, spilling to the disk tier when the
  /// memory contribution is exhausted. Returns the tier used, or nullopt if
  /// both tiers are full.
  std::optional<VmdTier> store_page();

  /// Releases one page frame from the given tier.
  void drop_page(VmdTier tier);

  /// Server-side service latency for a read from `tier`.
  SimTime read_latency(VmdTier tier);

  /// Drains the disk tier's queue (no-op without one).
  void advance(SimTime dt);

 private:
  std::uint64_t tier_pages(VmdTier tier) const {
    return static_cast<std::uint64_t>(
        pages_.sum(static_cast<std::size_t>(tier)));
  }

  std::string name_;
  net::NodeId node_;
  VmdServerConfig config_;
  const sim::LaneCoordinator* lanes_;  ///< Owner of the page-count rows.
  /// Page frames held per tier (column = VmdTier). Lane-sharded: VMD-bound
  /// VMs on different event lanes store/drop frames concurrently, each lane
  /// into its own row. The counts are commutative sums, and the lane planner
  /// serializes the fleet whenever placement would actually depend on them
  /// (disk tier configured, or memory within the safety margin of full).
  /// Registered in tools/lane_lint.py's shared-counter registry (LL004):
  /// re-declaring it as anything but util::LaneSums fails the lint.
  util::LaneSums<std::int64_t> pages_;
  std::unique_ptr<storage::SsdModel> disk_;
};

struct VmdClientConfig {
  Bytes page_header = 64;  ///< Wire overhead per page message.
  Bytes request_size = 96; ///< Read-request message size.
};

class VmdClient {
 public:
  VmdClient(net::Network* network, net::NodeId access_node,
            VmdClientConfig config = {});

  /// Registers an intermediate server. Any machine with spare memory may
  /// contribute.
  void register_server(VmdServer* server);
  std::size_t server_count() const { return servers_.size(); }

  /// Refreshes cached availability from every server (the heartbeat). The
  /// placement algorithm only trusts this cache, like the real protocol.
  void update_availability();

  /// Creates a logical partition of the aggregate space for one VM.
  NamespaceId create_namespace(std::string name);
  const std::string& namespace_name(NamespaceId ns) const;

  /// Moves the client attachment to another host (VM migrated there).
  void set_access_node(net::NodeId node) { access_node_ = node; }
  net::NodeId access_node() const { return access_node_; }

  /// Writes page `key` of namespace `ns` (write-behind; returns immediately
  /// after handing the page to the network). Chooses a server load-aware.
  void write_page(NamespaceId ns, PageKey key);

  /// Reads page `key`; returns the full latency (network + server service).
  SimTime read_page(NamespaceId ns, PageKey key);

  /// Drops page `key`, releasing the server frame.
  void drop_page(NamespaceId ns, PageKey key);

  bool has_page(NamespaceId ns, PageKey key) const;
  std::uint64_t namespace_pages(NamespaceId ns) const;

  /// Cluster-wide free bytes according to the availability cache.
  Bytes cached_free_bytes() const;

 private:
  static constexpr std::uint16_t kUnmapped = 0xffff;
  static constexpr std::uint16_t kDiskBit = 0x8000;  ///< Tier bit in location.

  struct Namespace {
    std::string name;
    // key -> server index | tier bit (kUnmapped when the key holds no page).
    std::vector<std::uint16_t> location;
    std::uint64_t pages = 0;
  };

  Namespace& ns_ref(NamespaceId ns);
  const Namespace& ns_ref(NamespaceId ns) const;
  std::uint16_t pick_server();

  net::Network* network_;
  net::NodeId access_node_;
  VmdClientConfig config_;
  std::vector<VmdServer*> servers_;
  std::vector<Bytes> cached_free_;       ///< Memory availability cache.
  std::vector<Bytes> cached_disk_free_;  ///< Disk-tier availability cache.
  std::uint16_t rr_cursor_ = 0;
  std::vector<Namespace> namespaces_;
};

}  // namespace agile::vmd
