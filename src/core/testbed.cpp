#include "core/testbed.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace agile::core {

const char* technique_name(Technique technique) {
  switch (technique) {
    case Technique::kPrecopy: return "pre-copy";
    case Technique::kPostcopy: return "post-copy";
    case Technique::kAgile: return "agile";
    case Technique::kScatterGather: return "scatter-gather";
  }
  return "?";
}

Testbed::Testbed(TestbedConfig config)
    : config_(config), cluster_(config.cluster) {
  AGILE_CHECK_MSG(config_.hosts.size() >= 2,
                  "a testbed needs at least two hosts");
  for (const host::HostConfig& host_cfg : config_.hosts) {
    hosts_.push_back(cluster_.add_host(host_cfg));
  }
  client_node_ = cluster_.add_client_node("clients");
  for (std::uint32_t i = 0; i < config_.vmd_servers; ++i) {
    std::string name = "intermediate" + std::to_string(i + 1);
    net::NodeId node = cluster_.add_client_node(name);
    vmd::VmdServerConfig server_cfg;
    server_cfg.capacity = config_.vmd_server_capacity;
    server_cfg.service_time = 3;
    server_cfg.disk_capacity = config_.vmd_server_disk;
    vmd_servers_.push_back(
        std::make_unique<vmd::VmdServer>(name, node, server_cfg,
                                         cluster_.lanes()));
  }
  if (!vmd_servers_.empty()) {
    // Intermediate hosts are not full Host objects; drain their (optional)
    // disk-tier queues from the cluster quantum loop.
    cluster_.add_control_hook([this](SimTime, SimTime dt, std::uint32_t) {
      for (auto& server : vmd_servers_) server->advance(dt);
    });
  }
  cluster_.set_lane_planner([this](std::size_t host_count, std::size_t lanes) {
    return plan_lanes(host_count, lanes);
  });
}

host::Host* Testbed::host_of(const vm::VirtualMachine* machine) {
  for (host::Host* host : hosts_) {
    if (host->has_vm(machine)) return host;
  }
  return nullptr;
}

VmHandle& Testbed::create_vm(const VmSpec& spec) {
  Bytes reservation = spec.reservation == 0 ? spec.memory : spec.reservation;
  AGILE_CHECK_MSG(spec.host < hosts_.size(), "VmSpec.host out of range");
  host::Host* home = hosts_[spec.host];
  auto handle = std::make_unique<VmHandle>();

  swap::SwapDevice* swap_device = nullptr;
  if (spec.swap == SwapBinding::kPerVmDevice) {
    AGILE_CHECK_MSG(!vmd_servers_.empty(),
                    "per-VM swap requested but the testbed has no VMD servers");
    // One client module per VM keeps the namespace attachment portable
    // independently of other VMs on the host.
    auto client = std::make_unique<vmd::VmdClient>(&cluster_.network(),
                                                   home->node());
    for (auto& server : vmd_servers_) client->register_server(server.get());
    Bytes capacity = spec.per_vm_swap_capacity == 0 ? 2 * spec.memory
                                                    : spec.per_vm_swap_capacity;
    auto device = std::make_unique<vmd::VmdSwapDevice>("blk:" + spec.name,
                                                       client.get(), capacity);
    swap_device = device.get();
    handle->vmd_client = client.get();
    handle->per_vm_swap = device.get();
    heartbeats_.push_back(cluster_.simulation().schedule_periodic(
        config_.vmd_heartbeat,
        [c = client.get()](SimTime) { c->update_availability(); }));
    vmd_clients_.push_back(std::move(client));
    vmd_devices_.push_back(std::move(device));
  } else {
    swap_device = home->swap_partition();
  }

  mem::GuestMemoryConfig mem_cfg;
  mem_cfg.size = spec.memory;
  mem_cfg.reservation = reservation;
  mem_cfg.zero_page_fraction = spec.zero_page_fraction;
  auto memory = std::make_unique<mem::GuestMemory>(
      mem_cfg, swap_device, cluster_.make_rng(spec.name + "/mem"));

  vm::VmConfig vm_cfg;
  vm_cfg.name = spec.name;
  vm_cfg.memory = spec.memory;
  vm_cfg.reservation = reservation;
  vm_cfg.vcpus = spec.vcpus;
  // Trace lanes: 0 is the shared/global lane, VMs count from 1 in creation
  // order (deterministic for a fixed scenario).
  vm_cfg.trace_id = vms_.size() + 1;
  memory->set_trace_identity("mem", vm_cfg.trace_id);
  if (handle->per_vm_swap != nullptr) {
    handle->per_vm_swap->set_trace_id(vm_cfg.trace_id);
  }
  if (trace::TraceRecorder* r = trace::recorder()) {
    r->set_entity_name(0, "cluster");
    r->set_entity_name(vm_cfg.trace_id, spec.name);
  }
  handle->machine = cluster_.adopt_vm(std::make_unique<vm::VirtualMachine>(
      vm_cfg, std::move(memory), home->node()));
  home->attach_vm(handle->machine, nullptr);

  vms_.push_back(std::move(handle));
  return *vms_.back();
}

void Testbed::attach_workload(VmHandle& handle,
                              std::unique_ptr<workload::Workload> load) {
  AGILE_CHECK_MSG(handle.load == nullptr, "VM already has a workload");
  handle.load = cluster_.adopt_workload(std::move(load));
  // Re-attach so the host runs the workload each quantum.
  host::Host* where = host_of(handle.machine);
  AGILE_CHECK_MSG(where != nullptr, "VM is not on any fleet host");
  where->detach_vm(handle.machine);
  where->attach_vm(handle.machine, handle.load);
}

workload::YcsbWorkload* Testbed::attach_ycsb(
    VmHandle& handle, const workload::YcsbConfig& config) {
  auto load = std::make_unique<workload::YcsbWorkload>(
      handle.machine, &cluster_.network(), client_node_, config,
      make_rng(handle.machine->name() + "/ycsb"));
  workload::YcsbWorkload* ycsb = load.get();
  attach_workload(handle, std::move(load));
  return ycsb;
}

std::vector<std::uint32_t> Testbed::plan_lanes(std::size_t host_count,
                                               std::size_t lanes) {
  std::vector<std::uint32_t> plan(host_count, 0);
  if (lanes <= 1 || host_count == 0) return plan;

  // VMD placement is order-dependent near capacity (stale-cache retries,
  // live-availability fallback) and whenever a disk tier exists (spill
  // decisions, SSD queue state). Stores are otherwise commutative counter
  // bumps. One quantum's cluster-wide store volume is far below the margin,
  // so above it every concurrent store lands on the memory tier regardless
  // of interleaving; below it, collapse to one lane (sequential semantics).
  constexpr Bytes kVmdSafetyMargin = 1_GiB;
  for (const auto& server : vmd_servers_) {
    if (server->disk_capacity() > 0 ||
        server->free_bytes() < kVmdSafetyMargin) {
      return plan;  // every host on lane 0
    }
  }

  // Union-find: an in-flight migration couples its source and destination —
  // destination demand faults reach back into source-side engine state,
  // memory and swap devices, so both hosts must share a lane.
  std::vector<std::size_t> parent(host_count);
  for (std::size_t i = 0; i < host_count; ++i) parent[i] = i;
  auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto host_index = [this, host_count](const host::Host* h) -> std::size_t {
    for (std::size_t i = 0; i < host_count && i < hosts_.size(); ++i) {
      if (hosts_[i] == h) return i;
    }
    return host_count;  // not found (host added after plan size was fixed)
  };
  // On a rack topology, a rack is one affinity group: its hosts share the
  // leaf switch, so keeping them on one lane means intra-rack traffic never
  // crosses a lane barrier. Gated on the topology kind — on the flat
  // default every host reports rack 0 and unioning would serialize the
  // whole fleet.
  if (rack_topology()) {
    std::vector<std::pair<std::uint32_t, std::size_t>> rack_first;
    for (std::size_t i = 0; i < host_count && i < hosts_.size(); ++i) {
      std::uint32_t rack = hosts_[i]->rack();
      std::size_t first = host_count;
      for (const auto& [r, idx] : rack_first) {
        if (r == rack) {
          first = idx;
          break;
        }
      }
      if (first == host_count) {
        rack_first.emplace_back(rack, i);
      } else {
        std::size_t rs = find(first), ri = find(i);
        if (rs != ri) parent[std::max(rs, ri)] = std::min(rs, ri);
      }
    }
  }
  for (migration::MigrationManager* m : live_migrations_) {
    if (!m->started() || m->completed()) continue;
    std::size_t si = host_index(m->source_host());
    std::size_t di = host_index(m->dest_host());
    if (si >= host_count || di >= host_count) continue;
    std::size_t rs = find(si), rd = find(di);
    // Union by smaller index so a group's root is its lowest member — group
    // enumeration order below is then deterministic.
    if (rs != rd) parent[std::max(rs, rd)] = std::min(rs, rd);
  }

  // Greedy balance: groups in root-index order onto the least-loaded lane.
  std::vector<std::size_t> group_size(host_count, 0);
  for (std::size_t i = 0; i < host_count; ++i) ++group_size[find(i)];
  std::vector<std::size_t> lane_load(lanes, 0);
  std::vector<std::uint32_t> group_lane(host_count, 0);
  for (std::size_t i = 0; i < host_count; ++i) {
    if (find(i) != i) continue;  // not a root
    std::size_t best = 0;
    for (std::size_t l = 1; l < lanes; ++l) {
      if (lane_load[l] < lane_load[best]) best = l;
    }
    group_lane[i] = static_cast<std::uint32_t>(best);
    lane_load[best] += group_size[i];
  }
  for (std::size_t i = 0; i < host_count; ++i) plan[i] = group_lane[find(i)];
  return plan;
}

std::unique_ptr<migration::MigrationManager> Testbed::register_migration(
    std::unique_ptr<migration::MigrationManager> migration) {
  live_migrations_.push_back(migration.get());
  migration->set_on_destroy([this](migration::MigrationManager* m) {
    live_migrations_.erase(
        std::remove(live_migrations_.begin(), live_migrations_.end(), m),
        live_migrations_.end());
  });
  return migration;
}

std::unique_ptr<migration::MigrationManager> Testbed::make_migration_to(
    Technique technique, VmHandle& handle, host::Host* destination,
    Bytes dest_reservation, migration::MigrationConfig config) {
  host::Host* source = host_of(handle.machine);
  AGILE_CHECK_MSG(source != nullptr, "VM is not on any fleet host");
  AGILE_CHECK_MSG(destination != nullptr && destination != source,
                  "destination must be a different fleet host");
  migration::MigrationParams params;
  params.machine = handle.machine;
  params.load = handle.load;
  params.source = source;
  params.dest = destination;
  params.dest_reservation = dest_reservation == 0
                                ? handle.machine->memory().reservation()
                                : dest_reservation;
  std::unique_ptr<migration::MigrationManager> migration;
  switch (technique) {
    case Technique::kPrecopy:
      params.dest_swap = destination->swap_partition();
      migration = std::make_unique<migration::PrecopyMigration>(&cluster_,
                                                                params, config);
      break;
    case Technique::kPostcopy:
      params.dest_swap = destination->swap_partition();
      migration = std::make_unique<migration::PostcopyMigration>(
          &cluster_, params, config);
      break;
    case Technique::kAgile:
    case Technique::kScatterGather: {
      AGILE_CHECK_S(handle.per_vm_swap != nullptr)
          << technique_name(technique) << " migration needs a per-VM swap device";
      params.dest_swap = handle.per_vm_swap;
      if (technique == Technique::kAgile) {
        migration = std::make_unique<migration::AgileMigration>(&cluster_,
                                                                params, config);
      } else {
        migration = std::make_unique<migration::ScatterGatherMigration>(
            &cluster_, params, config);
      }
      // Disconnect the per-VM device from the source and attach it at the
      // destination the moment execution flips (paper §IV-B).
      migration->set_on_switchover(
          [device = handle.per_vm_swap, dest_node = destination->node()] {
            device->attach_to(dest_node);
          });
      break;
    }
  }
  AGILE_CHECK_MSG(migration != nullptr, "unknown technique");
  return register_migration(std::move(migration));
}

ThroughputProbe::ThroughputProbe(host::Cluster* cluster,
                                 const workload::Workload* load,
                                 std::string name, SimTime interval)
    : cluster_(cluster),
      load_(load),
      interval_(interval),
      series_(std::move(name)) {
  AGILE_CHECK(cluster_ != nullptr && load_ != nullptr);
  last_ops_ = load_->ops_total();
  task_ = cluster_->simulation().schedule_periodic(interval_, [this](SimTime now) {
    std::uint64_t ops = load_->ops_total();
    double rate = static_cast<double>(ops - last_ops_) / to_seconds(interval_);
    last_ops_ = ops;
    series_.add(to_seconds(now), rate);
  });
}

ThroughputProbe::~ThroughputProbe() { task_->cancel(); }

}  // namespace agile::core
