#include "host/cluster.hpp"

#include <algorithm>
#include <cstdlib>

#include "trace/trace.hpp"
#include "util/log.hpp"

namespace agile::host {

namespace {
// Lets the logger and tracer stamp simulated time. Thread-local because the
// parallel bench runner drives one Cluster per worker thread; each thread's
// log lines and trace events carry its own cluster's virtual time. Inside a
// lane event the stamp is the event's own time (the coordinator clock may
// still be behind the window).
thread_local sim::Simulation* g_active_sim = nullptr;
// Saved previous value around a lane execution on this thread (the
// coordinator runs one lane inline, so a plain null-reset would wipe it).
thread_local sim::Simulation* g_saved_sim = nullptr;
std::int64_t active_sim_now() {
  if (g_active_sim == nullptr) return 0;
  return sim::LaneCoordinator::thread_event_time(g_active_sim->now());
}

std::uint32_t resolve_lane_count(std::uint32_t configured) {
  if (configured >= 1) return configured;
  if (const char* env = std::getenv("AGILE_SIM_LANES")) {
    long v = std::strtol(env, nullptr, 10);
    if (v >= 1 && v <= 256) return static_cast<std::uint32_t>(v);
  }
  return 1;
}
}  // namespace

Cluster::Cluster(ClusterConfig config)
    : config_(config), net_(config.network),
      lane_count_(resolve_lane_count(config.lanes)) {
  AGILE_CHECK(config_.quantum > 0);
  g_active_sim = &sim_;
  log::set_time_source(&active_sim_now);
  trace::set_time_source(&active_sim_now);
  if (lane_count_ > 1) {
    lane_pool_ = std::make_unique<util::ThreadPool>(lane_count_ - 1);
    sim::LaneCoordinator::Config lane_cfg;
    lane_cfg.lanes = lane_count_;
    lane_cfg.pool = lane_pool_.get();
    lanes_ = std::make_unique<sim::LaneCoordinator>(lane_cfg);
    net_.bind_lanes(lanes_.get());
    // Lane threads need this cluster's clock for log/trace stamps. The time
    // sources are thread-local, so pool workers start with none installed —
    // without this hook their trace events would all stamp ts=0. Restore
    // whatever the thread had (the coordinator thread runs one lane inline
    // and already carries this cluster's source).
    lanes_->set_thread_hooks(
        [this](std::size_t) {
          g_saved_sim = g_active_sim;
          g_active_sim = &sim_;
          log::set_time_source(&active_sim_now);
          trace::set_time_source(&active_sim_now);
        },
        [](std::size_t) {
          g_active_sim = g_saved_sim;
          if (g_saved_sim == nullptr) {
            log::set_time_source(nullptr);
            trace::set_time_source(nullptr);
          }
        });
  }
  quantum_task_ = sim_.schedule_periodic(
      config_.quantum, [this](SimTime now) { quantum(now); });
}

Cluster::~Cluster() {
  quantum_task_->cancel();
  if (g_active_sim == &sim_) {
    g_active_sim = nullptr;
    log::set_time_source(nullptr);
    trace::set_time_source(nullptr);
  }
}

Host* Cluster::add_host(HostConfig config) {
  hosts_.push_back(std::make_unique<Host>(&net_, std::move(config)));
  if (lanes_) lanes_->ensure_channels(hosts_.size());
  return hosts_.back().get();
}

void Cluster::schedule_on_host(std::size_t host, SimTime t, sim::EventFn fn) {
  AGILE_CHECK(host < hosts_.size());
  if (!lanes_) {
    sim_.schedule_at(t, std::move(fn));
    return;
  }
  lanes_->post(host, t, std::move(fn));
}

vm::VirtualMachine* Cluster::adopt_vm(
    std::unique_ptr<vm::VirtualMachine> machine) {
  vms_.push_back(std::move(machine));
  return vms_.back().get();
}

workload::Workload* Cluster::adopt_workload(
    std::unique_ptr<workload::Workload> load) {
  workloads_.push_back(std::move(load));
  return workloads_.back().get();
}

std::uint64_t Cluster::add_control_hook(Hook hook) {
  control_hooks_.push_back({next_hook_id_, std::move(hook)});
  return next_hook_id_++;
}

std::uint64_t Cluster::add_observer_hook(Hook hook) {
  observer_hooks_.push_back({next_hook_id_, std::move(hook)});
  return next_hook_id_++;
}

void Cluster::remove_hook(std::uint64_t id) {
  auto drop = [id](std::vector<HookEntry>& hooks) {
    hooks.erase(std::remove_if(hooks.begin(), hooks.end(),
                               [id](const HookEntry& h) { return h.id == id; }),
                hooks.end());
  };
  drop(control_hooks_);
  drop(observer_hooks_);
}

void Cluster::parallel_phase(SimTime now,
                             const std::function<void(Host&)>& phase) {
  // One lane event per host: the (time, channel, seq) merge contract then
  // reproduces the sequential host-index iteration order exactly, for the
  // phase work and for any trace events it records.
  for (std::size_t h = 0; h < hosts_.size(); ++h) {
    Host* host = hosts_[h].get();
    lanes_->schedule(h, now, [&phase, host] { phase(*host); });
  }
  lanes_->advance_to(now);
}

void Cluster::install_lane_plan() {
  lanes_->ensure_channels(hosts_.size());
  lanes_->set_plan(lane_planner_
                       ? lane_planner_(hosts_.size(), lane_count_)
                       : [&] {
                           std::vector<std::uint32_t> plan(hosts_.size());
                           for (std::size_t i = 0; i < plan.size(); ++i) {
                             plan[i] = static_cast<std::uint32_t>(
                                 i % lane_count_);
                           }
                           return plan;
                         }());
}

void Cluster::quantum(SimTime now) {
  ++tick_index_;
  const SimTime dt = config_.quantum;
  if (lanes_) install_lane_plan();
  const std::uint32_t tick = tick_index_;
  if (lanes_) {
    parallel_phase(now,
                   [dt, tick](Host& h) { h.run_workloads(dt, tick); });
  } else {
    for (auto& h : hosts_) h->run_workloads(dt, tick_index_);
  }
  // Hooks may unregister themselves (or others) while running; iterate over
  // a snapshot of ids and re-check liveness.
  auto run_hooks = [&](std::vector<HookEntry>& hooks) {
    std::vector<std::uint64_t> ids;
    ids.reserve(hooks.size());
    for (const HookEntry& h : hooks) ids.push_back(h.id);
    for (std::uint64_t id : ids) {
      auto it = std::find_if(hooks.begin(), hooks.end(),
                             [id](const HookEntry& h) { return h.id == id; });
      if (it != hooks.end()) it->fn(now, dt, tick_index_);
    }
  };
  run_hooks(control_hooks_);
  if (lanes_) {
    parallel_phase(now, [dt](Host& h) { h.run_maintenance(dt); });
  } else {
    for (auto& h : hosts_) h->run_maintenance(dt);
  }
  net_.advance(dt);
  run_hooks(observer_hooks_);
}

void Cluster::scrape(SimTime now, const ScrapePerHost& per_host,
                     const ScrapeFinalize& finalize) {
  if (lanes_) {
    // The scrape may fire between quanta (interval not a multiple of the
    // quantum) or before the first one, so install the plan itself rather
    // than relying on the last quantum's.
    install_lane_plan();
    for (std::size_t h = 0; h < hosts_.size(); ++h) {
      Host* host = hosts_[h].get();
      lanes_->schedule(h, now, [&per_host, h, host] { per_host(h, *host); });
    }
    lanes_->advance_to(now);
  } else {
    for (std::size_t h = 0; h < hosts_.size(); ++h) per_host(h, *hosts_[h]);
  }
  if (finalize) finalize(now);
}

std::shared_ptr<sim::PeriodicTask> Cluster::start_scrape(
    SimTime interval, ScrapePerHost per_host, ScrapeFinalize finalize) {
  AGILE_CHECK(interval > 0);
  return sim_.schedule_periodic(
      interval, [this, per_host = std::move(per_host),
                 finalize = std::move(finalize)](SimTime now) {
        scrape(now, per_host, finalize);
      });
}

void Cluster::run_until(SimTime t) {
  if (!lanes_) {
    sim_.run_until(t);
    return;
  }
  // Lane-aware driver: between coordinator events, open a lane window up to
  // the next coordinator event time (the conservative lookahead horizon —
  // cross-host effects only materialize at coordinator events, i.e. network
  // quantum edges). Lane events sharing a coordinator event's timestamp run
  // before it, mirroring the sequential heap order for host-bound one-shots
  // scheduled ahead of time.
  AGILE_CHECK(t >= sim_.now());
  sim_.clear_stop();
  while (!sim_.stopped()) {
    SimTime next = sim_.next_event_time();
    if (next < 0 || next > t) break;
    lanes_->advance_to(next);
    if (!sim_.step()) break;
  }
  if (!sim_.stopped()) {
    lanes_->advance_to(t);
    sim_.run_until(t);
  }
}

}  // namespace agile::host
