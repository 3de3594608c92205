#include "migration/migration.hpp"

#include <algorithm>
#include <cmath>

#include "trace/trace.hpp"
#include "util/log.hpp"

namespace agile::migration {

const char* compression_name(Compression c) {
  switch (c) {
    case Compression::kOff: return "off";
    case Compression::kFast: return "fast";
    case Compression::kHeavy: return "heavy";
  }
  return "?";
}

MigrationManager::MigrationManager(host::Cluster* cluster,
                                   MigrationParams params,
                                   MigrationConfig config)
    : cluster_(cluster), params_(params), config_(config) {
  AGILE_CHECK(cluster_ != nullptr);
  AGILE_CHECK(params_.machine != nullptr);
  AGILE_CHECK(params_.source != nullptr && params_.dest != nullptr);
  AGILE_CHECK(params_.dest_swap != nullptr);
  AGILE_CHECK(params_.dest_reservation > 0);
  AGILE_CHECK_MSG(params_.source->has_vm(params_.machine),
                  "VM is not running on the source host");
  AGILE_CHECK_MSG(config_.num_streams >= 1 &&
                      config_.num_streams <= StreamGroup::kMaxStreams,
                  "num_streams out of range");
  AGILE_CHECK(config_.compress_fast_ratio > 0 && config_.compress_fast_ratio <= 1.0);
  AGILE_CHECK(config_.compress_heavy_ratio > 0 && config_.compress_heavy_ratio <= 1.0);
  // Resolve the compression model once: the page body shrinks by the class
  // ratio (header framing does not compress), the sender's thread pays the
  // class cost on top of the copy cost. Off keeps both identical to the
  // uncompressed path, bit for bit.
  double ratio = 1.0;
  SimTime compress_cost = 0;
  switch (config_.compression) {
    case Compression::kOff:
      break;
    case Compression::kFast:
      ratio = config_.compress_fast_ratio;
      compress_cost = config_.compress_fast_cost;
      break;
    case Compression::kHeavy:
      ratio = config_.compress_heavy_ratio;
      compress_cost = config_.compress_heavy_cost;
      break;
  }
  Bytes body = config_.compression == Compression::kOff
                   ? kPageSize
                   : static_cast<Bytes>(
                         std::ceil(static_cast<double>(kPageSize) * ratio));
  wire_page_bytes_ = config_.page_header + body;
  page_send_cost_ = config_.page_copy_cost + compress_cost;
}

void MigrationManager::account_full_pages(std::uint64_t n) {
  metrics_.pages_sent_full += n;
  metrics_.bytes_transferred += n * wire_page_bytes_;
  if (wire_page_bytes_ == full_page_bytes()) return;  // compression off
  metrics_.compressed_bytes_saved += n * (full_page_bytes() - wire_page_bytes_);
  // Sampled only while compressing, so default traces stay byte-identical.
  AGILE_TRACE_COUNTER("wire", "compressed_bytes_saved", trace_id(),
                      metrics_.compressed_bytes_saved);
}

bool MigrationManager::zero_elidable(PageIndex p) const {
  return source_mem_->is_zero_page(p);
}

SimTime MigrationManager::take_budget(SimTime dt) {
  const SimTime budget = dt - debt_;
  debt_ = budget < 0 ? -budget : 0;
  return budget;
}

MigrationManager::Stretch MigrationManager::take_stretch(PageIndex p,
                                                         PageIndex run_end,
                                                         SimTime& budget,
                                                         Bytes backlog,
                                                         std::uint32_t tick) {
  const Bytes desc = config_.descriptor_bytes;
  const SimTime cost = config_.page_copy_cost;
  Stretch s;
  if (source_mem_->state(p) == mem::PageState::kUntouched) {
    // Descriptor run: every page costs the same and nothing can change a
    // page's class mid-run (descriptors trigger no swap-ins), so the whole
    // run is one batch, capped by the thread budget (ceil: the per-page loop
    // sent while budget was still positive) and the remaining send window.
    std::uint64_t n = source_mem_->state_run_end(p, run_end) - p;
    n = std::min(n, (static_cast<std::uint64_t>(budget) + cost - 1) / cost);
    n = std::min(n, (config_.send_window - backlog + desc - 1) / desc);
    budget -= static_cast<SimTime>(n) * cost;
    s.end = p + n;
  } else if (zero_elidable(p)) {
    // Zero-page elision run: touched pages whose content is all zeroes
    // travel as descriptors and install as untouched (the canonical zero
    // page). Classification is read-only, so no page changes class mid-run;
    // swapped zero pages skip the swap-in (no data is read).
    PageIndex q = p;
    while (q < run_end && budget > 0 &&
           backlog + (q - p) * desc < config_.send_window && zero_elidable(q)) {
      budget -= cost;
      ++q;
    }
    s.end = q;
    metrics_.pages_zero_elided += q - p;
  } else {
    // Full-copy stretch (resident or swapped pages). A swap-in can evict
    // other pages of this very VM — possibly inside this run — so class and
    // cost are re-read page by page; the messages still share one batch.
    PageIndex q = p;
    while (q < run_end && budget > 0 &&
           backlog + (q - p) * wire_page_bytes() < config_.send_window) {
      const mem::PageState st = source_mem_->state(q);
      AGILE_CHECK_MSG(st != mem::PageState::kRemote,
                      "sending an already-released page");
      if (st == mem::PageState::kUntouched) break;
      if (zero_elidable(q)) break;  // next stretch elides to a descriptor
      SimTime spent = page_send_cost();
      if (st == mem::PageState::kSwapped) {
        // Must be back in memory before it can be sent.
        spent += source_mem_->swap_in_for_transfer(q, tick);
        ++s.swap_ins;
      }
      budget -= spent;
      ++q;
    }
    s.end = q;
    s.full = true;
    account_full_pages(q - p);
    return s;
  }
  metrics_.pages_sent_descriptor += s.end - p;
  metrics_.bytes_transferred += (s.end - p) * desc;
  return s;
}

SimTime MigrationManager::fault_rpc(Bytes response) {
  net::Network& net = cluster_->network();
  const net::NodeId dst = params_.dest->node();
  const net::NodeId src = params_.source->node();
  const SimTime latency = net.rpc_latency(dst, src, response);
  net.consume_background(dst, src, config_.descriptor_bytes);  // request
  net.consume_background(src, dst, response);
  metrics_.bytes_transferred += response;
  return latency;
}

void MigrationManager::route_remote_faults(
    vm::VirtualMachine::RemoteFaultHandler handler) {
  params_.machine->set_remote_fault_handler(std::move(handler));
  if (on_switchover_) on_switchover_();
}

void MigrationManager::set_phase(int code, const char* name) {
  if (phase_code_ == code) return;
  phase_code_ = code;
  phase_name_ = name;
  AGILE_TRACE_INSTANT("migration", name, trace_id(),
                      static_cast<double>(code));
}

stats::MigrationObservation MigrationManager::sample_health(
    SimTime now) const {
  stats::MigrationObservation obs;
  obs.now = now;
  obs.bytes_transferred = metrics_.bytes_transferred;
  obs.pages_remote = dest_mem_ != nullptr ? dest_mem_->remote_pages()
                                          : page_count();
  obs.pages_owed = pages_owed();
  obs.backlog_bytes = wire_backlog();
  obs.wire_page_bytes = wire_page_bytes_;
  obs.cpu_state_bytes = config_.cpu_state_bytes;
  obs.switched_over = metrics_.switchover_time >= 0;
  obs.downtime_usec = metrics_.downtime;
  return obs;
}

MigrationManager::~MigrationManager() {
  if (on_destroy_) on_destroy_(this);
  if (hook_id_ != 0) cluster_->remove_hook(hook_id_);
}

void MigrationManager::start() {
  AGILE_CHECK_MSG(!started_, "migration already started");
  started_ = true;
  metrics_.start_time = cluster_->simulation().now();

  AGILE_TRACE_SPAN_BEGIN("migration", "migrate", trace_id());

  source_mem_ = &params_.machine->memory();

  mem::GuestMemoryConfig dest_cfg;
  dest_cfg.size = params_.machine->config().memory;
  dest_cfg.reservation = params_.dest_reservation;
  dest_mem_owned_ = std::make_unique<mem::GuestMemory>(
      dest_cfg, params_.dest_swap,
      cluster_->make_rng(params_.machine->name() + "/dest-mem"));
  dest_mem_owned_->mark_all_remote();
  dest_mem_ = dest_mem_owned_.get();
  // The destination process's memory traces on the same lane as the VM but a
  // separate track, so source evictions and dest installs don't interleave.
  dest_mem_owned_->set_trace_identity("mem.dest", trace_id());

  stream_ = std::make_unique<StreamGroup>(
      &cluster_->network(), params_.source->node(), params_.dest->node(),
      trace_id(), config_.num_streams);

  hook_id_ = cluster_->add_control_hook(
      [this](SimTime now, SimTime dt, std::uint32_t tick) {
        if (!metrics_.completed) on_tick(now, dt, tick);
      });

  AGILE_LOG_INFO("%s migration of %s: %s -> %s starting", technique(),
                 params_.machine->name().c_str(),
                 params_.source->name().c_str(), params_.dest->name().c_str());
}

void MigrationManager::begin_suspend() {
  AGILE_CHECK(suspend_time_ < 0);
  params_.machine->suspend();
  suspend_time_ = cluster_->simulation().now();
}

void MigrationManager::complete_switchover(std::uint32_t tick) {
  AGILE_CHECK_MSG(suspend_time_ >= 0, "switchover without suspension");
  AGILE_CHECK(metrics_.switchover_time < 0);
  (void)tick;

  vm::VirtualMachine* machine = params_.machine;
  params_.source->detach_vm(machine);
  params_.dest->attach_vm(machine, params_.load);
  // The destination process's memory becomes the VM's memory; the source
  // process's copy stays with the manager to serve push/demand traffic.
  source_mem_owned_ = machine->swap_memory(std::move(dest_mem_owned_));
  source_mem_ = source_mem_owned_.get();
  machine->resume();

  SimTime now = cluster_->simulation().now();
  metrics_.switchover_time = now;
  metrics_.downtime = now - suspend_time_;
  AGILE_TRACE_INSTANT("migration", "switchover", trace_id(),
                      static_cast<double>(metrics_.downtime));
  AGILE_LOG_INFO("%s migration of %s: resumed at destination (downtime %.0f ms)",
                 technique(), machine->name().c_str(),
                 static_cast<double>(metrics_.downtime) / 1000.0);
}

void MigrationManager::finish() {
  AGILE_CHECK(!metrics_.completed);
  params_.machine->clear_remote_fault_handler();
  source_mem_->teardown(/*free_slots=*/true);
  metrics_.completed = true;
  metrics_.end_time = cluster_->simulation().now();
  if (hook_id_ != 0) {
    cluster_->remove_hook(hook_id_);
    hook_id_ = 0;
  }
  // `stream_` stays alive until the manager is destroyed: finish() is often
  // reached from inside one of the stream's own delivery callbacks, and late
  // duplicate deliveries may still be in flight.
  AGILE_TRACE_SPAN_END("migration", "migrate", trace_id());
  AGILE_LOG_INFO("%s migration of %s: complete in %.1f s (%.1f MiB on wire)",
                 technique(), params_.machine->name().c_str(),
                 to_seconds(metrics_.total_time()),
                 to_mib(metrics_.bytes_transferred));
  if (on_complete_) on_complete_();
}

}  // namespace agile::migration
