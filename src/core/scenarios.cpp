#include "core/scenarios.hpp"

#include <algorithm>

namespace agile::core::scenarios {

namespace {

SwapBinding binding_for(Technique technique) {
  bool portable = technique == Technique::kAgile ||
                  technique == Technique::kScatterGather;
  return portable ? SwapBinding::kPerVmDevice : SwapBinding::kHostPartition;
}

// Datasets are loaded before the paper's measurement window opens; drain the
// write-behind backlog the bulk load left on the SSDs so t=0 starts clean.
void drain_ssd(Testbed& bed) {
  for (std::size_t i = 0; i < bed.host_count(); ++i) {
    bed.host_at(i)->ssd()->advance(sec(36000));
  }
}

// The paper's two-host bed: source and destination alike, each with `ram`
// of which the host OS takes `host_os`.
TestbedConfig two_host_bed(std::uint64_t seed, Bytes ram, Bytes host_os) {
  TestbedConfig cfg;
  cfg.cluster.seed = seed;
  for (host::HostConfig& host_cfg : cfg.hosts) {
    host_cfg.ram = ram;
    host_cfg.host_os_bytes = host_os;
  }
  return cfg;
}

// Engages the scenario's stats registry and a collector that scrapes its bed
// (and `orchestrator`, if any) every `options.stats_interval`.
template <typename Scenario>
void start_stats(Scenario& scenario, MigrationOrchestrator* orchestrator) {
  scenario.registry = std::make_unique<stats::Registry>();
  scenario.collector = std::make_unique<FleetStatsCollector>(
      scenario.bed.get(), scenario.registry.get());
  scenario.collector->set_orchestrator(orchestrator);
  scenario.collector->start(scenario.options.stats_interval);
}

}  // namespace

Consolidation make_consolidation(const ConsolidationOptions& options) {
  Consolidation scenario;
  scenario.options = options;

  scenario.bed = std::make_unique<Testbed>(
      two_host_bed(options.seed, options.host_ram, 200_MiB));
  Testbed& bed = *scenario.bed;

  for (std::uint32_t i = 0; i < options.vm_count; ++i) {
    VmSpec spec;
    spec.name = "vm" + std::to_string(i);
    spec.memory = options.vm_memory;
    spec.reservation = options.reservation;
    spec.vcpus = 2;
    spec.swap = binding_for(options.technique);
    VmHandle& h = bed.create_vm(spec);
    scenario.handles.push_back(&h);

    workload::Workload* load = nullptr;
    if (options.app == AppKind::kYcsb) {
      workload::YcsbConfig ycfg;
      ycfg.dataset_bytes = options.dataset;
      ycfg.guest_os_bytes = options.guest_os;
      ycfg.active_bytes = options.initial_active;
      ycfg.read_fraction = options.read_fraction;
      load = bed.attach_ycsb(h, ycfg);
    } else {
      workload::OltpConfig ocfg;
      ocfg.dataset_bytes = options.dataset;
      ocfg.guest_os_bytes = options.guest_os;
      auto oltp = std::make_unique<workload::OltpWorkload>(
          h.machine, &bed.cluster().network(), bed.client_node(), ocfg,
          bed.make_rng(spec.name + "/oltp"));
      load = oltp.get();
      bed.attach_workload(h, std::move(oltp));
    }
    scenario.loads.push_back(load);
    scenario.probes.push_back(
        std::make_unique<ThroughputProbe>(&bed.cluster(), load, spec.name));
  }
  return scenario;
}

void Consolidation::load_all() {
  for (workload::Workload* load : loads) load->load(0);
  drain_ssd(*bed);
}

void Consolidation::schedule_ramp(SimTime ramp_start, SimTime ramp_step) {
  if (options.app != AppKind::kYcsb) return;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    auto* ycsb = static_cast<workload::YcsbWorkload*>(loads[i]);
    Bytes target = options.ramped_active;
    bed->cluster().simulation().schedule_at(
        ramp_start + static_cast<SimTime>(i) * ramp_step,
        [ycsb, target] { ycsb->set_active_bytes(target); });
  }
}

void Consolidation::schedule_migration(SimTime at) {
  migration =
      bed->make_migration_to(options.technique, *handles[0], bed->host_at(1));
  migration::MigrationManager* mig = migration.get();
  bed->cluster().simulation().schedule_at(at, [mig] { mig->start(); });
}

metrics::TimeSeries Consolidation::average_throughput() const {
  metrics::TimeSeries avg("avg_throughput");
  if (probes.empty()) return avg;
  const metrics::TimeSeries& first = probes[0]->series();
  for (std::size_t i = 0; i < first.size(); ++i) {
    double t = first[i].t;
    double sum = 0;
    for (const auto& probe : probes) sum += probe->series().value_at(t);
    avg.add(t, sum / static_cast<double>(probes.size()));
  }
  return avg;
}

SingleVm make_single_vm(const SingleVmOptions& options) {
  SingleVm scenario;
  scenario.options = options;
  if (options.trace) {
    // Installed before the Testbed so VM-creation entity names land in it.
    scenario.session = std::make_unique<trace::TraceSession>();
  }

  constexpr Bytes kHostOs = 500_MiB;
  TestbedConfig cfg = two_host_bed(options.seed, options.host_ram, kHostOs);
  if (options.link_bits_per_sec > 0) {
    cfg.cluster.network.link_bits_per_sec = options.link_bits_per_sec;
  }
  if (options.flow_max_bits_per_sec > 0) {
    cfg.cluster.network.flow_max_bits_per_sec = options.flow_max_bits_per_sec;
  }
  scenario.bed = std::make_unique<Testbed>(cfg);
  Testbed& bed = *scenario.bed;

  Bytes reservation =
      std::min(options.vm_memory, options.host_ram - kHostOs);
  VmSpec spec;
  spec.name = "vm0";
  spec.memory = options.vm_memory;
  spec.reservation = reservation;
  spec.vcpus = 2;
  spec.swap = binding_for(options.technique);
  spec.zero_page_fraction = options.zero_page_fraction;
  scenario.handle = &bed.create_vm(spec);

  if (options.busy) {
    // "Busy VM runs a Redis server with a dataset almost as large as the
    // memory size leaving only 500MB of free memory."
    AGILE_CHECK_MSG(options.vm_memory > options.free_margin + options.guest_os,
                    "busy VM too small for dataset + margin");
    workload::YcsbConfig ycfg;
    ycfg.dataset_bytes =
        options.vm_memory - options.free_margin - options.guest_os;
    ycfg.guest_os_bytes = options.guest_os;
    ycfg.active_bytes = ycfg.dataset_bytes;
    ycfg.read_fraction = options.read_fraction;
    scenario.ycsb = bed.attach_ycsb(*scenario.handle, ycfg);
  }
  if (options.stats) start_stats(scenario, nullptr);
  return scenario;
}

void SingleVm::prepare() {
  if (ycsb != nullptr) {
    ycsb->load(0);
  } else {
    // An idle VM's memory is still in use (page cache etc.): the baselines
    // must transfer it all, which is what makes Fig. 7/8 linear in VM size.
    handle->machine->memory().prefill(handle->machine->page_count(), 0);
  }
  drain_ssd(*bed);
  bed->cluster().run_for_seconds(5);
}

void SingleVm::run_migration(double limit_s) {
  migration::MigrationConfig mcfg;
  mcfg.num_streams = options.num_streams;
  mcfg.compression = options.compression;
  if (options.send_window > 0) mcfg.send_window = options.send_window;
  migration = bed->make_migration_to(options.technique, *handle,
                                     bed->host_at(1), /*dest_reservation=*/0,
                                     mcfg);
  migration->start();
  double deadline = bed->cluster().now_seconds() + limit_s;
  while (!migration->completed() && bed->cluster().now_seconds() < deadline) {
    bed->cluster().run_for_seconds(1.0);
  }
}

WssTracking make_wss_tracking(const WssTrackingOptions& options) {
  WssTracking scenario;
  scenario.options = options;

  scenario.bed = std::make_unique<Testbed>(two_host_bed(
      options.seed, options.host_ram, host::HostConfig().host_os_bytes));
  Testbed& bed = *scenario.bed;

  VmSpec spec;
  spec.name = "vm0";
  spec.memory = options.vm_memory;
  spec.reservation = options.initial_reservation;
  spec.vcpus = 2;
  spec.swap = SwapBinding::kPerVmDevice;  // the tool reads per-VM iostat
  scenario.handle = &bed.create_vm(spec);

  workload::YcsbConfig ycfg;
  ycfg.dataset_bytes = options.dataset;
  ycfg.guest_os_bytes = options.guest_os;
  ycfg.active_bytes = options.dataset;
  ycfg.read_fraction = 0.95;
  scenario.ycsb = bed.attach_ycsb(*scenario.handle, ycfg);

  scenario.controller = std::make_unique<wss::ReservationController>(
      &bed.cluster(), scenario.handle->machine, options.wss);
  scenario.probe = std::make_unique<ThroughputProbe>(&bed.cluster(),
                                                     scenario.ycsb, "ycsb");
  return scenario;
}

void WssTracking::load() {
  ycsb->load(0);
  drain_ssd(*bed);
}

Fleet make_fleet(const FleetOptions& options) {
  AGILE_CHECK(options.host_count >= 2 && options.vm_count >= 1);
  AGILE_CHECK(options.hot_vms <= options.vm_count);
  Fleet scenario;
  scenario.options = options;

  TestbedConfig cfg;
  cfg.cluster.seed = options.seed;
  cfg.cluster.lanes = options.lanes;
  cfg.vmd_server_capacity = options.vmd_server_capacity;
  std::uint32_t hosts_per_rack = 0;
  if (options.racks > 0) {
    AGILE_CHECK_MSG(options.host_count % options.racks == 0,
                    "host_count must divide evenly into racks");
    hosts_per_rack = options.host_count / options.racks;
    cfg.cluster.network.topology.kind = net::TopologyKind::kLeafSpine;
    cfg.cluster.network.topology.racks = options.racks;
    cfg.cluster.network.topology.hosts_per_rack = hosts_per_rack;
    cfg.cluster.network.topology.oversubscription = options.oversubscription;
  }
  if (options.hot_per_rack) {
    AGILE_CHECK_MSG(options.racks > 0 && options.spread_initial &&
                        options.hot_vms % options.racks == 0,
                    "hot_per_rack needs racks, spread_initial, and a hot set "
                    "divisible by racks");
  }
  cfg.hosts.clear();  // host0..hostN-1 replace the default pair
  for (std::uint32_t i = 0; i < options.host_count; ++i) {
    host::HostConfig host_cfg = named_host("host" + std::to_string(i));
    host_cfg.ram = i == 0 ? options.source_ram : options.dest_ram;
    host_cfg.host_os_bytes = options.host_os;
    if (hosts_per_rack > 0) host_cfg.rack = i / hosts_per_rack;
    cfg.hosts.push_back(host_cfg);
  }
  scenario.bed = std::make_unique<Testbed>(cfg);
  Testbed& bed = *scenario.bed;

  for (std::uint32_t i = 0; i < options.vm_count; ++i) {
    VmSpec spec;
    spec.name = "vm" + std::to_string(i);
    spec.memory = options.vm_memory;
    spec.reservation = options.reservation;
    spec.vcpus = 2;
    // Orchestrated VMs always carry a per-VM VMD namespace: the reservation
    // controller reads its iostat window, whatever engine later moves them.
    spec.swap = SwapBinding::kPerVmDevice;
    // Consolidated start (everyone on host 0) unless the scaling benches ask
    // for an even spread.
    spec.host = options.spread_initial ? i % options.host_count : 0;
    VmHandle& h = bed.create_vm(spec);
    scenario.handles.push_back(&h);

    workload::YcsbConfig ycfg;
    ycfg.dataset_bytes = options.dataset;
    ycfg.guest_os_bytes = options.guest_os;
    ycfg.active_bytes = options.initial_active;
    ycfg.read_fraction = options.read_fraction;
    ycfg.concurrency = options.ycsb_concurrency;
    scenario.ycsbs.push_back(bed.attach_ycsb(h, ycfg));
  }

  MigrationOrchestratorConfig ocfg;
  ocfg.watermarks = options.watermarks;
  ocfg.wss = options.wss;
  ocfg.technique = options.technique;
  ocfg.per_link_in_flight_cap = options.per_link_cap;
  ocfg.rack_aware_placement = options.rack_aware_placement;
  scenario.orchestrator =
      std::make_unique<MigrationOrchestrator>(&bed, ocfg);
  for (VmHandle* h : scenario.handles) scenario.orchestrator->track(h);
  if (options.rebalance) {
    scenario.rebalancer = std::make_unique<FleetRebalancer>(
        &bed, scenario.orchestrator.get(), options.rebalancer_config);
  }
  if (options.stats) {
    start_stats(scenario, scenario.orchestrator.get());
    // After the collector (which registers the fleet's static metric set):
    // the rebalancer's counters append in a fixed order.
    if (scenario.rebalancer != nullptr) {
      scenario.rebalancer->bind_stats(scenario.registry.get());
    }
  }
  return scenario;
}

void Fleet::load_all() {
  for (workload::YcsbWorkload* y : ycsbs) y->load(0);
  drain_ssd(*bed);
  // The hot set: first hot_vms VMs, or — per-rack hotspots — the VMs homed
  // on the first hot_vms/racks hosts of each rack, in VM index order.
  std::vector<std::uint32_t> hot;
  if (options.hot_per_rack && options.racks > 0) {
    const std::uint32_t per_rack = options.host_count / options.racks;
    const std::uint32_t per_rack_hot = options.hot_vms / options.racks;
    for (std::uint32_t i = 0;
         i < ycsbs.size() && hot.size() < options.hot_vms; ++i) {
      const std::uint32_t home = i % options.host_count;
      if (home % per_rack < per_rack_hot) hot.push_back(i);
    }
  } else {
    for (std::uint32_t i = 0; i < options.hot_vms; ++i) hot.push_back(i);
  }
  for (std::uint32_t i : hot) {
    workload::YcsbWorkload* y = ycsbs[i];
    Bytes target = options.hot_active;
    // Host-bound: the hotspot mutates the workload, so it must run on the
    // lane that owns the VM's host (a plain schedule_at would race with that
    // host's phase work under AGILE_SIM_LANES > 1). The VM cannot have moved
    // before `hot_at` — the hotspot itself is what first creates pressure.
    std::size_t home = options.spread_initial ? i % options.host_count : 0;
    bed->cluster().schedule_on_host(
        home, options.hot_at, [y, target] { y->set_active_bytes(target); });
  }
}

std::size_t Fleet::host_index_of(const VmHandle* handle) const {
  for (std::size_t i = 0; i < bed->host_count(); ++i) {
    if (bed->host_at(i)->has_vm(handle->machine)) return i;
  }
  return static_cast<std::size_t>(-1);
}

}  // namespace agile::core::scenarios
