#include "vmd/vmd.hpp"

#include "sim/lanes.hpp"

namespace agile::vmd {

VmdServer::VmdServer(std::string name, net::NodeId node, VmdServerConfig config,
                     const sim::LaneCoordinator* lanes)
    : name_(std::move(name)),
      node_(node),
      config_(config),
      lanes_(lanes),
      pages_(lanes != nullptr ? lanes->lane_count() : 1, /*columns=*/2) {
  AGILE_CHECK(config_.capacity >= kPageSize);
  if (config_.disk_capacity > 0) {
    disk_ = std::make_unique<storage::SsdModel>(config_.disk);
  }
}

std::optional<VmdTier> VmdServer::store_page() {
  const std::size_t row = sim::LaneCoordinator::thread_lane(lanes_);
  if (free_bytes() >= kPageSize) {
    pages_.add(row, static_cast<std::size_t>(VmdTier::kMemory), 1);
    return VmdTier::kMemory;
  }
  if (disk_free_bytes() >= kPageSize && disk_ != nullptr) {
    pages_.add(row, static_cast<std::size_t>(VmdTier::kDisk), 1);
    disk_->submit_write(kPageSize);  // write-behind to the tier device
    return VmdTier::kDisk;
  }
  return std::nullopt;
}

void VmdServer::drop_page(VmdTier tier) {
  const auto column = static_cast<std::size_t>(tier);
  AGILE_CHECK(pages_.sum(column) > 0);
  pages_.add(sim::LaneCoordinator::thread_lane(lanes_), column, -1);
}

SimTime VmdServer::read_latency(VmdTier tier) {
  if (tier == VmdTier::kMemory) return config_.service_time;
  AGILE_CHECK(disk_ != nullptr);
  return config_.service_time + disk_->submit_read(kPageSize);
}

void VmdServer::advance(SimTime dt) {
  if (disk_ != nullptr) disk_->advance(dt);
}

VmdClient::VmdClient(net::Network* network, net::NodeId access_node,
                     VmdClientConfig config)
    : network_(network), access_node_(access_node), config_(config) {
  AGILE_CHECK(network_ != nullptr);
}

void VmdClient::register_server(VmdServer* server) {
  AGILE_CHECK(server != nullptr);
  AGILE_CHECK_MSG(servers_.size() < 0x7fffu, "too many VMD servers");
  servers_.push_back(server);
  cached_free_.push_back(server->free_bytes());
  cached_disk_free_.push_back(server->disk_free_bytes());
}

void VmdClient::update_availability() {
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    cached_free_[i] = servers_[i]->free_bytes();
    cached_disk_free_[i] = servers_[i]->disk_free_bytes();
    // Heartbeat messages are tiny; account them for completeness.
    network_->consume_background(servers_[i]->node(), access_node_, 64);
  }
}

NamespaceId VmdClient::create_namespace(std::string name) {
  namespaces_.push_back(Namespace{std::move(name), {}, 0});
  return static_cast<NamespaceId>(namespaces_.size() - 1);
}

const std::string& VmdClient::namespace_name(NamespaceId ns) const {
  return ns_ref(ns).name;
}

VmdClient::Namespace& VmdClient::ns_ref(NamespaceId ns) {
  AGILE_CHECK(ns < namespaces_.size());
  return namespaces_[ns];
}

const VmdClient::Namespace& VmdClient::ns_ref(NamespaceId ns) const {
  AGILE_CHECK(ns < namespaces_.size());
  return namespaces_[ns];
}

std::uint16_t VmdClient::pick_server() {
  AGILE_CHECK_MSG(!servers_.empty(), "VMD has no servers");
  // Load-aware round-robin: next server (cyclically) whose last availability
  // report shows unused *memory*; servers with only disk tier space left are
  // the fallback. A final live refresh guards against a stale cache.
  for (int attempt = 0; attempt < 2; ++attempt) {
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      std::uint16_t idx = static_cast<std::uint16_t>((rr_cursor_ + i) % servers_.size());
      if (cached_free_[idx] >= kPageSize) {
        rr_cursor_ = static_cast<std::uint16_t>((idx + 1) % servers_.size());
        return idx;
      }
    }
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      std::uint16_t idx = static_cast<std::uint16_t>((rr_cursor_ + i) % servers_.size());
      if (cached_disk_free_[idx] >= kPageSize) {
        rr_cursor_ = static_cast<std::uint16_t>((idx + 1) % servers_.size());
        return idx;
      }
    }
    update_availability();  // cache may be stale; one refresh before giving up
  }
  AGILE_CHECK_MSG(false, "VMD cluster out of memory");
  return kUnmapped;
}

void VmdClient::write_page(NamespaceId ns, PageKey key) {
  Namespace& n = ns_ref(ns);
  if (key >= n.location.size()) n.location.resize(key + 1, kUnmapped);
  AGILE_CHECK_MSG(n.location[key] == kUnmapped, "overwriting a live VMD page");
  std::uint16_t idx = pick_server();
  std::optional<VmdTier> tier = servers_[idx]->store_page();
  while (!tier) {
    // Stale cache: this server is actually full. Record truth and move on.
    cached_free_[idx] = servers_[idx]->free_bytes();
    cached_disk_free_[idx] = servers_[idx]->disk_free_bytes();
    idx = pick_server();
    tier = servers_[idx]->store_page();
  }
  if (*tier == VmdTier::kMemory) {
    cached_free_[idx] -= std::min<Bytes>(cached_free_[idx], kPageSize);
    n.location[key] = idx;
  } else {
    cached_disk_free_[idx] -= std::min<Bytes>(cached_disk_free_[idx], kPageSize);
    n.location[key] = static_cast<std::uint16_t>(idx | kDiskBit);
  }
  ++n.pages;
  network_->consume_background(access_node_, servers_[idx]->node(),
                               kPageSize + config_.page_header);
}

SimTime VmdClient::read_page(NamespaceId ns, PageKey key) {
  const Namespace& n = ns_ref(ns);
  AGILE_CHECK_MSG(key < n.location.size() && n.location[key] != kUnmapped,
                  "VMD read of unmapped key");
  std::uint16_t loc = n.location[key];
  VmdServer* server = servers_[loc & ~kDiskBit];
  VmdTier tier = (loc & kDiskBit) ? VmdTier::kDisk : VmdTier::kMemory;
  network_->consume_background(access_node_, server->node(), config_.request_size);
  network_->consume_background(server->node(), access_node_,
                               kPageSize + config_.page_header);
  return network_->rpc_latency(access_node_, server->node(),
                               kPageSize + config_.page_header) +
         server->read_latency(tier);
}

void VmdClient::drop_page(NamespaceId ns, PageKey key) {
  Namespace& n = ns_ref(ns);
  AGILE_CHECK_MSG(key < n.location.size() && n.location[key] != kUnmapped,
                  "VMD drop of unmapped key");
  std::uint16_t loc = n.location[key];
  std::uint16_t idx = static_cast<std::uint16_t>(loc & ~kDiskBit);
  if (loc & kDiskBit) {
    servers_[idx]->drop_page(VmdTier::kDisk);
    cached_disk_free_[idx] += kPageSize;
  } else {
    servers_[idx]->drop_page(VmdTier::kMemory);
    cached_free_[idx] += kPageSize;
  }
  n.location[key] = kUnmapped;
  --n.pages;
  network_->consume_background(access_node_, servers_[idx]->node(), 64);
}

bool VmdClient::has_page(NamespaceId ns, PageKey key) const {
  const Namespace& n = ns_ref(ns);
  return key < n.location.size() && n.location[key] != kUnmapped;
}

std::uint64_t VmdClient::namespace_pages(NamespaceId ns) const {
  return ns_ref(ns).pages;
}

Bytes VmdClient::cached_free_bytes() const {
  Bytes total = 0;
  for (Bytes b : cached_free_) total += b;
  return total;
}

}  // namespace agile::vmd
