// Public facade: the paper's testbed in one object.
//
// A `Testbed` assembles the setup of §V — a list of general-purpose hosts
// (two by default: the paper's source and destination), an external client
// machine, and one or more intermediate hosts contributing memory to the
// VMD — and offers factories for VMs (with either a baseline host-level swap
// binding or an Agile per-VM VMD namespace), their YCSB clients, and
// migrations of each technique between any pair of hosts. Benches and
// examples build everything through this API.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "host/cluster.hpp"
#include "metrics/timeseries.hpp"
#include "migration/agile.hpp"
#include "migration/postcopy.hpp"
#include "migration/precopy.hpp"
#include "migration/scatter_gather.hpp"
#include "vmd/vmd_swap_device.hpp"
#include "workload/ycsb.hpp"

namespace agile::core {

enum class Technique { kPrecopy, kPostcopy, kAgile, kScatterGather };

const char* technique_name(Technique technique);

inline host::HostConfig named_host(std::string name) {
  host::HostConfig cfg;
  cfg.name = std::move(name);
  return cfg;
}

struct TestbedConfig {
  host::ClusterConfig cluster;
  /// The fleet, in host-index order; each host is a migration source *and*
  /// destination. At least two; the default is the paper's pair, so assign
  /// (or clear) the list to build another fleet rather than append to it.
  std::vector<host::HostConfig> hosts = {named_host("source"),
                                         named_host("dest")};
  std::uint32_t vmd_servers = 1;        ///< Intermediate hosts.
  Bytes vmd_server_capacity = 64_GiB;   ///< Free memory each contributes.
  Bytes vmd_server_disk = 0;            ///< Optional disk tier per server.
  SimTime vmd_heartbeat = sec(1);       ///< Availability update period.
};

/// How a VM's cold pages are stored.
enum class SwapBinding {
  kHostPartition,  ///< Shared system-wide swap on the host SSD (baselines).
  kPerVmDevice,    ///< Private, portable VMD namespace (Agile).
};

struct VmSpec {
  std::string name = "vm";
  Bytes memory = 10_GiB;
  Bytes reservation = 0;  ///< 0: same as memory (uncapped).
  std::uint32_t vcpus = 2;
  SwapBinding swap = SwapBinding::kHostPartition;
  Bytes per_vm_swap_capacity = 0;  ///< 0: 2× memory.
  std::size_t host = 0;            ///< Index of the host the VM starts on.
  /// Fraction of prefilled pages whose content is all zeroes (free-page pools,
  /// zeroed allocations). 0 keeps zero tracking off entirely.
  double zero_page_fraction = 0.0;
};

/// Everything the testbed knows about one VM.
struct VmHandle {
  vm::VirtualMachine* machine = nullptr;
  workload::Workload* load = nullptr;          ///< Null until attached.
  vmd::VmdSwapDevice* per_vm_swap = nullptr;   ///< Null for host binding.
  vmd::VmdClient* vmd_client = nullptr;        ///< Null for host binding.
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {});

  host::Cluster& cluster() { return cluster_; }
  std::size_t host_count() const { return hosts_.size(); }
  host::Host* host_at(std::size_t i) { return hosts_[i]; }
  /// Rack of host `i` (0 for every host on the flat topology default).
  std::uint32_t rack_of_host(std::size_t i) const { return hosts_[i]->rack(); }
  /// Whether the cluster network is a real (leaf-spine) rack topology —
  /// rack-aware placement and per-rack lane grouping only engage then.
  bool rack_topology() const {
    return config_.cluster.network.topology.kind ==
           net::TopologyKind::kLeafSpine;
  }
  /// Host the VM currently resides on (placement is tracked via the hosts'
  /// attach lists, so this follows migrations). Null if on none.
  host::Host* host_of(const vm::VirtualMachine* machine);
  net::NodeId client_node() const { return client_node_; }

  std::size_t vmd_server_count() const { return vmd_servers_.size(); }
  vmd::VmdServer* vmd_server_at(std::size_t i) { return vmd_servers_[i].get(); }

  /// Creates a VM on host `spec.host` (no workload yet).
  VmHandle& create_vm(const VmSpec& spec);

  std::size_t vm_count() const { return vms_.size(); }
  VmHandle& vm_at(std::size_t i) { return *vms_[i]; }

  /// Binds a workload to the VM (it will run whenever the VM runs).
  void attach_workload(VmHandle& handle,
                       std::unique_ptr<workload::Workload> load);

  /// Builds a YCSB client for the VM — served over the cluster network from
  /// the client node, random stream `<vm name>/ycsb` — and attaches it.
  /// The dataset is not loaded yet.
  workload::YcsbWorkload* attach_ycsb(VmHandle& handle,
                                      const workload::YcsbConfig& config);

  /// Creates (but does not start) a migration of `handle`'s VM from the host
  /// it currently resides on to an explicit `destination` (any other fleet
  /// host). `dest_reservation` of 0 keeps the current cgroup reservation.
  /// Agile requires the VM to use a per-VM swap device.
  std::unique_ptr<migration::MigrationManager> make_migration_to(
      Technique technique, VmHandle& handle, host::Host* destination,
      Bytes dest_reservation = 0, migration::MigrationConfig config = {});

  /// Shorthand used everywhere in the benches.
  Rng make_rng(std::string_view tag) { return cluster_.make_rng(tag); }

  /// Deterministic host→lane affinity plan for parallel event lanes (see
  /// sim/lanes.hpp). On a rack topology, hosts sharing a rack are unioned
  /// onto one lane (intra-rack traffic then never crosses a lane barrier);
  /// hosts coupled by an in-flight migration (demand faults reach back into
  /// source-side state) are unioned likewise — a cross-rack migration
  /// merges the two rack groups. When any VMD server runs a disk tier or is
  /// within the safety margin of full — where placement would become
  /// order-dependent — the whole fleet collapses onto lane 0 (sequential
  /// semantics). Installed on the cluster at construction; public for
  /// tests.
  std::vector<std::uint32_t> plan_lanes(std::size_t host_count,
                                        std::size_t lanes);

  /// Live (constructed, not yet destroyed) migrations in registration order
  /// — the deterministic iteration set for fleet health collection.
  const std::vector<migration::MigrationManager*>& live_migrations() const {
    return live_migrations_;
  }

 private:
  /// Registers a migration in the lane-affinity registry; the manager
  /// deregisters itself on destruction (it must not outlive the Testbed).
  std::unique_ptr<migration::MigrationManager> register_migration(
      std::unique_ptr<migration::MigrationManager> migration);

  TestbedConfig config_;
  host::Cluster cluster_;
  std::vector<host::Host*> hosts_;
  net::NodeId client_node_;
  std::vector<std::unique_ptr<vmd::VmdServer>> vmd_servers_;
  std::vector<std::unique_ptr<vmd::VmdClient>> vmd_clients_;
  std::vector<std::unique_ptr<vmd::VmdSwapDevice>> vmd_devices_;
  std::vector<std::unique_ptr<VmHandle>> vms_;
  std::vector<std::shared_ptr<sim::PeriodicTask>> heartbeats_;
  /// Live (constructed, not yet destroyed) migrations for plan_lanes.
  std::vector<migration::MigrationManager*> live_migrations_;
};

/// Samples a workload's throughput (ops/s) once a second into a TimeSeries —
/// the probe behind every timeline figure.
class ThroughputProbe {
 public:
  ThroughputProbe(host::Cluster* cluster, const workload::Workload* load,
                  std::string name, SimTime interval = sec(1));
  ~ThroughputProbe();

  const metrics::TimeSeries& series() const { return series_; }

 private:
  host::Cluster* cluster_;
  const workload::Workload* load_;
  SimTime interval_;
  std::uint64_t last_ops_ = 0;
  std::shared_ptr<sim::PeriodicTask> task_;
  metrics::TimeSeries series_;
};

}  // namespace agile::core
