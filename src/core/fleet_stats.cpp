#include "core/fleet_stats.hpp"

#include <string>

#include "core/migration_orchestrator.hpp"

namespace agile::core {

namespace {

/// Completion-time buckets (ms): sub-second through multi-hour.
const std::vector<std::int64_t>& time_bounds() {
  static const std::vector<std::int64_t> b = {
      500, 1000, 2000, 5000, 10000, 30000, 60000, 120000, 300000, 900000};
  return b;
}

/// Downtime buckets (ms): the paper's sub-second claims need resolution at
/// the low end.
const std::vector<std::int64_t>& downtime_bounds() {
  static const std::vector<std::int64_t> b = {1,   5,    10,   50,  100,
                                              300, 1000, 3000, 10000};
  return b;
}

/// Swap-in-rate buckets (bytes/s) around the controller's τ = 4 KB/s.
const std::vector<std::int64_t>& swap_rate_bounds() {
  static const std::vector<std::int64_t> b = {
      0, 1024, 4096, 16384, 65536, 1 << 20, 16 << 20, 256 << 20};
  return b;
}

}  // namespace

FleetStatsCollector::FleetStatsCollector(Testbed* bed,
                                         stats::Registry* registry)
    : bed_(bed), registry_(registry) {
  AGILE_CHECK(bed_ != nullptr && registry_ != nullptr);
}

FleetStatsCollector::~FleetStatsCollector() { stop(); }

void FleetStatsCollector::set_orchestrator(
    MigrationOrchestrator* orchestrator) {
  AGILE_CHECK_MSG(task_ == nullptr, "set_orchestrator before start()");
  orchestrator_ = orchestrator;
}

void FleetStatsCollector::register_static_metrics() {
  host_cells_.resize(bed_->host_count());
  for (std::size_t h = 0; h < bed_->host_count(); ++h) {
    host::Host* host = bed_->host_at(h);
    const stats::Labels l = {{"host", host->name()}};
    HostCells& c = host_cells_[h];
    c.ram_used = registry_->gauge("agile_host_ram_used_bytes", l,
                                  "Host OS + resident pages of attached VMs");
    c.vm_count =
        registry_->gauge("agile_host_vm_count", l, "VMs attached to the host");
    c.net_tx = registry_->counter("agile_host_net_tx_bytes_total", l,
                                  "Bytes sent from the host NIC");
    c.net_rx = registry_->counter("agile_host_net_rx_bytes_total", l,
                                  "Bytes received at the host NIC");
    c.link_util_pct = registry_->gauge(
        "agile_host_link_utilization_pct", l,
        "NIC send utilization over the last scrape window (percent)");
    if (orchestrator_ != nullptr) {
      c.watermark_distance = registry_->gauge(
          "agile_host_watermark_distance_bytes", l,
          "High watermark minus committed working sets (negative: over)");
    }
  }
  vm_cells_.resize(bed_->vm_count());
  for (std::size_t v = 0; v < bed_->vm_count(); ++v) {
    VmHandle& handle = bed_->vm_at(v);
    vm_index_[handle.machine] = v;
    const stats::Labels l = {{"vm", handle.machine->name()}};
    VmCells& c = vm_cells_[v];
    c.resident = registry_->gauge("agile_vm_resident_pages", l,
                                  "Pages resident in host RAM");
    c.swapped = registry_->gauge("agile_vm_swapped_pages", l,
                                 "Pages on the swap device");
    c.remote = registry_->gauge("agile_vm_remote_pages", l,
                                "Pages still owned by a remote source");
    c.zero =
        registry_->gauge("agile_vm_zero_pages", l, "Known all-zero pages");
    c.reservation = registry_->gauge("agile_vm_reservation_bytes", l,
                                     "cgroup memory reservation");
    c.major_faults = registry_->counter("agile_vm_major_faults_total", l,
                                        "Swap-ins caused by guest access");
    c.swap_ins = registry_->counter("agile_vm_swap_ins_total", l,
                                    "All swap-ins (access + migration)");
    c.swap_outs = registry_->counter("agile_vm_swap_outs_total", l,
                                     "Dirty evictions written to swap");
  }
  vmd_cells_.resize(bed_->vmd_server_count());
  for (std::size_t i = 0; i < bed_->vmd_server_count(); ++i) {
    const stats::Labels l = {{"server", std::to_string(i)}};
    VmdCells& c = vmd_cells_[i];
    c.used = registry_->gauge("agile_vmd_used_bytes", l,
                              "VMD memory tier bytes in use");
    c.free = registry_->gauge("agile_vmd_free_bytes", l,
                              "VMD memory tier bytes free");
    c.memory_pages = registry_->gauge("agile_vmd_memory_pages", l,
                                      "Pages held in the memory tier");
    c.disk_pages = registry_->gauge("agile_vmd_disk_pages", l,
                                    "Pages spilled to the disk tier");
  }
  // Per-link-tier gauges, tier enum order. Only on a rack topology: the
  // flat default predates these metrics and its stats goldens must stay
  // byte-identical.
  const net::Network& net = bed_->cluster().network();
  if (net.topology().kind == net::TopologyKind::kLeafSpine) {
    for (std::size_t t = 0; t < net::kLinkTierCount; ++t) {
      const auto tier = static_cast<net::LinkTier>(t);
      if (net.tier_totals(tier).links == 0) continue;
      const stats::Labels l = {{"tier", net::tier_name(tier)}};
      TierCells c;
      c.tier = tier;
      c.bytes_total = registry_->counter(
          "agile_net_tier_bytes_total", l,
          "Flow + background bytes carried by the tier's links");
      c.util_pct = registry_->gauge(
          "agile_net_tier_utilization_pct", l,
          "Tier utilization over the last scrape window (percent)");
      c.peak_util_pct = registry_->gauge(
          "agile_net_tier_peak_utilization_pct", l,
          "Most utilized link of the tier, last quantum (percent)");
      tier_cells_.push_back(c);
    }
  }
  migration_time_ms_ = registry_->histogram(
      "agile_migration_total_time_ms", time_bounds(), {},
      "Completed migration total time (start to source release)");
  migration_downtime_ms_ = registry_->histogram(
      "agile_migration_downtime_ms", downtime_bounds(), {},
      "Completed migration downtime (suspend to resume)");
  migrations_completed_ = registry_->counter(
      "agile_migrations_completed_total", {}, "Migrations run to completion");
  scrapes_ = registry_->counter("agile_stats_scrapes_total", {},
                                "Scrape rounds taken");
  if (orchestrator_ != nullptr) {
    orchestrator_->bind_stats(registry_);
    for (std::size_t i = 0; i < orchestrator_->tracked_count(); ++i) {
      VmHandle* handle = orchestrator_->tracked_at(i);
      const stats::Labels l = {{"vm", handle->machine->name()}};
      orchestrator_->controller_at(i)->bind_stats(
          registry_->gauge("agile_wss_estimate_bytes", l,
                           "Working-set estimate (= reservation set)"),
          registry_->counter("agile_wss_adjustments_total", l,
                             "Reservation adjustments applied"),
          registry_->histogram("agile_wss_swap_in_rate_bps", swap_rate_bounds(),
                               l, "Observed swap-in rate at each adjustment"));
    }
  }
}

void FleetStatsCollector::start(SimTime interval) {
  AGILE_CHECK_MSG(task_ == nullptr, "collector already started");
  AGILE_CHECK(interval > 0);
  interval_ = interval;
  register_static_metrics();
  task_ = bed_->cluster().start_scrape(
      interval,
      [this](std::size_t index, host::Host& host) {
        collect_host(index, host);
      },
      [this](SimTime now) { finalize(now); });
}

void FleetStatsCollector::stop() {
  if (task_ != nullptr) {
    task_->cancel();
    task_.reset();
  }
}

void FleetStatsCollector::collect_host(std::size_t index, host::Host& host) {
  HostCells& c = host_cells_[index];
  c.ram_used->set(static_cast<std::int64_t>(host.memory_in_use()));
  c.vm_count->set(static_cast<std::int64_t>(host.vm_count()));
  // Per-VM gauges for the VMs resident here. A VM is attached to exactly one
  // host, so each cell has one writer this window regardless of lane plan.
  for (std::size_t i = 0; i < host.vm_count(); ++i) {
    vm::VirtualMachine* machine = host.vm_at(i);
    auto it = vm_index_.find(machine);
    if (it == vm_index_.end()) continue;  // not a testbed VM
    VmCells& vc = vm_cells_[it->second];
    const mem::GuestMemory& mem = machine->memory();
    vc.resident->set(static_cast<std::int64_t>(mem.resident_pages()));
    vc.swapped->set(static_cast<std::int64_t>(mem.swapped_pages()));
    vc.remote->set(static_cast<std::int64_t>(mem.remote_pages()));
    vc.zero->set(static_cast<std::int64_t>(mem.zero_pages()));
    vc.reservation->set(static_cast<std::int64_t>(mem.reservation()));
    const mem::MemStats& ms = mem.stats();
    vc.major_faults->set(ms.major_faults);
    vc.swap_ins->set(ms.swap_ins);
    vc.swap_outs->set(ms.swap_outs);
  }
}

FleetStatsCollector::MigrationTrack& FleetStatsCollector::track_for(
    const std::string& vm_name) {
  auto it = migrations_.find(vm_name);
  if (it != migrations_.end()) return it->second;
  MigrationTrack& t = migrations_[vm_name];
  const stats::Labels l = {{"vm", vm_name}};
  t.phase = registry_->gauge("agile_migration_phase", l,
                             "Engine phase code (engine-specific ordering)");
  t.pages_owed = registry_->gauge("agile_migration_pages_owed", l,
                                  "Pages the engine still owes over the wire");
  t.pages_remote = registry_->gauge("agile_migration_pages_remote", l,
                                    "Destination pages still remote");
  t.backlog = registry_->gauge("agile_migration_wire_backlog_bytes", l,
                               "Unsent bytes queued on the stream group");
  t.bytes_wire = registry_->gauge("agile_migration_bytes_transferred", l,
                                  "Cumulative bytes on the migration channel");
  t.transfer_rate = registry_->gauge(
      "agile_migration_transfer_rate_bps", l,
      "Wire bytes per second over the last scrape window");
  t.eta = registry_->gauge("agile_migration_eta_usec", l,
                           "Model-derived time to drain the page debt (-1 "
                           "unknown)");
  t.projected_downtime = registry_->gauge(
      "agile_migration_projected_downtime_usec", l,
      "Modeled stop-and-copy downtime (actual once switched over)");
  return t;
}

void FleetStatsCollector::update_migration_health(SimTime now) {
  for (migration::MigrationManager* m : bed_->live_migrations()) {
    if (!m->started()) continue;
    MigrationTrack& t = track_for(m->machine()->name());
    if (t.start_time != m->metrics().start_time) {
      // A new migration of the same VM reuses the gauges but restarts the
      // model and the completion latch.
      t.start_time = m->metrics().start_time;
      t.model = stats::MigrationHealthModel{};
      t.completion_recorded = false;
    }
    const stats::MigrationObservation obs = m->sample_health(now);
    const stats::MigrationHealth health = t.model.update(obs);
    t.phase->set(m->phase_code());
    t.pages_owed->set(static_cast<std::int64_t>(obs.pages_owed));
    t.pages_remote->set(static_cast<std::int64_t>(obs.pages_remote));
    t.backlog->set(static_cast<std::int64_t>(obs.backlog_bytes));
    t.bytes_wire->set(static_cast<std::int64_t>(obs.bytes_transferred));
    t.transfer_rate->set(health.transfer_rate_bps);
    t.eta->set(health.eta_usec);
    t.projected_downtime->set(health.projected_downtime_usec);
    if (m->completed() && !t.completion_recorded) {
      t.completion_recorded = true;
      migrations_completed_->inc();
      migration_time_ms_->observe(m->metrics().total_time() / 1000);
      migration_downtime_ms_->observe(m->metrics().downtime / 1000);
    }
  }
}

void FleetStatsCollector::finalize(SimTime now) {
  scrapes_->inc();
  for (std::size_t i = 0; i < vmd_cells_.size(); ++i) {
    vmd::VmdServer* server = bed_->vmd_server_at(i);
    VmdCells& c = vmd_cells_[i];
    c.used->set(static_cast<std::int64_t>(server->used_bytes()));
    c.free->set(static_cast<std::int64_t>(server->free_bytes()));
    c.memory_pages->set(static_cast<std::int64_t>(server->memory_pages()));
    c.disk_pages->set(static_cast<std::int64_t>(server->disk_pages()));
  }
  const net::Network& net = bed_->cluster().network();
  const double link_rate = net.link_bytes_per_sec();
  for (std::size_t h = 0; h < host_cells_.size(); ++h) {
    HostCells& c = host_cells_[h];
    const net::NodeStats& ns = net.stats(bed_->host_at(h)->node());
    c.net_tx->set(ns.tx_bytes);
    c.net_rx->set(ns.rx_bytes);
    // Send-side utilization over the scrape window, in whole percent
    // (integer math keeps the export exact).
    const std::uint64_t tx_delta =
        ns.tx_bytes >= c.prev_tx ? ns.tx_bytes - c.prev_tx : 0;
    c.prev_tx = ns.tx_bytes;
    c.prev_rx = ns.rx_bytes;
    const double window_capacity =
        link_rate * to_seconds(interval_);
    std::int64_t pct = 0;
    if (window_capacity > 0) {
      pct = static_cast<std::int64_t>(
          static_cast<double>(tx_delta) * 100.0 / window_capacity);
    }
    c.link_util_pct->set(pct);
  }
  for (TierCells& c : tier_cells_) {
    const net::TierTotals totals = net.tier_totals(c.tier);
    c.bytes_total->set(static_cast<std::int64_t>(totals.bytes_total));
    const Bytes delta =
        totals.bytes_total >= c.prev_bytes ? totals.bytes_total - c.prev_bytes
                                           : 0;
    c.prev_bytes = totals.bytes_total;
    const double window_capacity =
        totals.capacity_bytes_per_sec * to_seconds(interval_);
    std::int64_t pct = 0;
    if (window_capacity > 0) {
      pct = static_cast<std::int64_t>(static_cast<double>(delta) * 100.0 /
                                      window_capacity);
    }
    c.util_pct->set(pct);
    c.peak_util_pct->set(
        static_cast<std::int64_t>(totals.peak_utilization * 100.0));
  }
  if (orchestrator_ != nullptr) {
    // Watermark distance: high watermark minus committed working sets
    // (tracked estimates of resident VMs + in-flight admission
    // reservations + host OS). Negative means the host is over.
    for (std::size_t h = 0; h < host_cells_.size(); ++h) {
      host::Host* host = bed_->host_at(h);
      Bytes committed = host->config().host_os_bytes;
      for (std::size_t i = 0; i < orchestrator_->tracked_count(); ++i) {
        VmHandle* handle = orchestrator_->tracked_at(i);
        if (host->has_vm(handle->machine)) {
          committed += orchestrator_->controller_at(i)->wss_estimate();
        }
      }
      committed += orchestrator_->reserved_bytes_at(host);
      const double high =
          orchestrator_->config().watermarks.high *
          static_cast<double>(host->ram());
      host_cells_[h].watermark_distance->set(
          static_cast<std::int64_t>(high) -
          static_cast<std::int64_t>(committed));
    }
  }
  update_migration_health(now);
  registry_->record_snapshot(now);
}

}  // namespace agile::core
