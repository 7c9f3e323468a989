// Multi-tenant QoS scenarios: mixed tenant traffic (latency-sensitive
// pointer chase, STREAM-style bandwidth hogs, a RowHammer adversary)
// interleaved into one N-stream request flow, measured per stream. These
// are repository extensions beyond the paper's single-tenant case studies:
// the software memory controller makes scheduling a C++ policy swap, so
// an ATLAS-style QoS scheduler and static bank partitioning are exactly the
// kind of experiment EasyDRAM exists to make cheap.
//
// Every tenant's working set must be memory-resident for the scheduler to
// matter, so these scenarios scale the cache hierarchy down with the
// CI-sized footprints (real multi-tenant working sets dwarf any LLC).

#include <algorithm>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "cli/measure.hpp"
#include "cli/scenario.hpp"
#include "cli/thread_pool.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "cpu/trace.hpp"
#include "sys/system.hpp"
#include "workloads/mixed.hpp"

namespace easydram::cli {
namespace {

using workloads::TenantKind;
using workloads::TenantSpec;

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kTenantSpacing = 64 * 1024 * 1024;

/// One modeled-latency distribution (emulated processor cycles).
struct StreamLatency {
  std::int64_t requests = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

StreamLatency summarize(const std::vector<std::int64_t>& samples) {
  StreamLatency s;
  s.requests = static_cast<std::int64_t>(samples.size());
  if (samples.empty()) return s;
  std::vector<double> xs(samples.begin(), samples.end());
  // The drain order of the sample vector is engine-dependent; sorting
  // makes every reduction a pure function of the (invariant) multiset.
  std::sort(xs.begin(), xs.end());
  s.mean = mean(xs);
  s.p50 = percentile(xs, 50.0);
  s.p95 = percentile(xs, 95.0);
  s.p99 = percentile(xs, 99.0);
  return s;
}

/// Everything one trace run yields for the QoS studies.
struct QosRun {
  std::vector<StreamLatency> streams;
  smc::ApiStats stats;
  smc::mitigation::MitigationStats mitigation;
};

QosRun run_records(const sys::SystemConfig& cfg,
                   std::vector<cpu::TraceRecord> records,
                   std::size_t n_streams) {
  sys::EasyDramSystem sysm(cfg);
  cpu::VectorTrace trace(std::move(records));
  sysm.run(trace);
  QosRun r;
  const auto& samples = sysm.stream_latency_samples();
  static const std::vector<std::int64_t> kEmpty;
  r.streams.reserve(n_streams);
  for (std::size_t s = 0; s < n_streams; ++s) {
    r.streams.push_back(summarize(s < samples.size() ? samples[s] : kEmpty));
  }
  r.stats = sysm.smc_stats();
  r.mitigation = sysm.mitigation_stats();
  return r;
}

sys::SystemConfig qos_config(std::uint64_t seed, smc::SchedulerKind sched,
                             smc::MappingKind mapping =
                                 smc::MappingKind::kLinear) {
  sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
  cfg.variation.seed = seed;
  cfg.sched = sched;
  cfg.mapping = mapping;
  cfg.track_stream_latency = true;
  cfg.caches.l1 = {4 * 1024, 4, 64};
  cfg.caches.l2 = {16 * 1024, 8, 64};
  return cfg;
}

/// The policy sweep: the scenario's validated default list, unless --sched
/// forces a single policy.
std::vector<smc::SchedulerKind> sweep_policies(
    const RunOptions& opts, std::initializer_list<smc::SchedulerKind> defaults) {
  if (opts.sched.has_value()) return {*opts.sched};
  return defaults;
}

std::string policy_name(smc::SchedulerKind kind) {
  return std::string(smc::make_scheduler(kind)->name());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// max/min slowdown — 1.0 is perfectly fair, large is starvation.
double unfairness(std::span<const double> slowdowns) {
  double lo = 0.0;
  double hi = 0.0;
  for (const double s : slowdowns) {
    if (s <= 0.0) continue;
    if (lo == 0.0 || s < lo) lo = s;
    if (s > hi) hi = s;
  }
  return ratio(hi, lo);
}

Json stream_json(const TenantSpec& spec, const StreamLatency& lat,
                 double slowdown = 0.0) {
  Json j = Json::object();
  j["stream"] = static_cast<std::int64_t>(spec.stream);
  j["kind"] = workloads::to_string(spec.kind);
  j["requests"] = lat.requests;
  j["mean_cycles"] = lat.mean;
  j["p50_cycles"] = lat.p50;
  j["p95_cycles"] = lat.p95;
  j["p99_cycles"] = lat.p99;
  if (slowdown > 0.0) j["slowdown_vs_alone"] = slowdown;
  return j;
}

void add_sched_counters(Json& j, const smc::ApiStats& stats) {
  j["sched_picks"] = stats.sched_picks;
  j["sched_row_hits"] = stats.sched_row_hits;
  j["sched_row_conflicts"] = stats.sched_row_conflicts;
  j["sched_entries_scanned"] = stats.sched_entries_scanned;
}

// --- qos_mixed_tenants ----------------------------------------------------

std::vector<TenantSpec> four_tenants() {
  std::vector<TenantSpec> t(4);
  t[0].kind = TenantKind::kPointerChase;
  t[0].footprint_bytes = 32 * kKiB;
  t[1].kind = TenantKind::kStreamCopy;
  t[1].footprint_bytes = 64 * kKiB;
  t[2].kind = TenantKind::kStreamCopy;
  t[2].footprint_bytes = 64 * kKiB;
  t[3].kind = TenantKind::kHammer;
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i].stream = static_cast<std::uint32_t>(i);
    t[i].base_addr = i * kTenantSpacing;
  }
  return t;
}

/// Per-stream latency/fairness of the 4-tenant mix under each policy, with
/// slowdown-vs-alone from per-tenant solo runs on the identical system.
Json run_qos_mixed_tenants(const RunOptions& opts) {
  const std::vector<smc::SchedulerKind> policies = sweep_policies(
      opts, {smc::SchedulerKind::kFrfcfs, smc::SchedulerKind::kAtlas});
  const std::vector<TenantSpec> tenants = four_tenants();

  struct Task {
    QosRun mixed;
    std::vector<double> slowdown;  ///< Per tenant, mixed mean / solo mean.
  };
  const std::size_t per_rep = policies.size();
  const std::size_t n_tasks = static_cast<std::size_t>(opts.iters) * per_rep;
  ThreadPool pool(opts.threads);
  const auto all = parallel_map(pool, n_tasks, [&](std::size_t task) {
    const std::size_t rep = task / per_rep;
    const smc::SchedulerKind policy = policies[task % per_rep];
    const sys::SystemConfig cfg =
        qos_config(rep_seed(opts, static_cast<int>(rep)), policy);
    const smc::LinearMapper mapper(cfg.geometry);
    workloads::MixedTrace mix = workloads::make_mixed_trace(tenants, mapper);

    Task t;
    t.mixed = run_records(cfg, std::move(mix.interleaved), tenants.size());
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      const QosRun solo = run_records(cfg, mix.solo[i], tenants.size());
      t.slowdown.push_back(ratio(t.mixed.streams[tenants[i].stream].mean,
                                 solo.streams[tenants[i].stream].mean));
    }
    return t;
  });

  TextTable table;
  table.set_header({"Policy", "chase p50", "chase p95", "chase p99",
                    "chase slowdown", "max slowdown", "unfairness"});
  Json rows = Json::array();
  for (std::size_t pi = 0; pi < policies.size(); ++pi) {
    const Task& t = all[pi];  // Repetition 0 provides the detail rows.
    const double unfair = unfairness(t.slowdown);
    table.add_row({policy_name(policies[pi]),
                   fmt_fixed(t.mixed.streams[0].p50, 0),
                   fmt_fixed(t.mixed.streams[0].p95, 0),
                   fmt_fixed(t.mixed.streams[0].p99, 0),
                   fmt_fixed(t.slowdown[0], 2) + "x",
                   fmt_fixed(*std::max_element(t.slowdown.begin(),
                                               t.slowdown.end()),
                             2) +
                       "x",
                   fmt_fixed(unfair, 2)});
    Json j = Json::object();
    j["policy"] = policy_name(policies[pi]);
    j["sched"] = smc::to_string(policies[pi]);
    Json streams = Json::array();
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      streams.push_back(stream_json(tenants[i],
                                    t.mixed.streams[tenants[i].stream],
                                    t.slowdown[i]));
    }
    j["streams"] = std::move(streams);
    j["unfairness_max_over_min"] = unfair;
    add_sched_counters(j, t.mixed.stats);
    rows.push_back(std::move(j));
  }

  // Per-repetition aggregate: unfairness under the sweep's first policy
  // (FR-FCFS by default — the baseline the QoS policies are judged against).
  std::vector<double> unfair_rep;
  for (int rep = 0; rep < opts.iters; ++rep) {
    unfair_rep.push_back(
        unfairness(all[static_cast<std::size_t>(rep) * per_rep].slowdown));
  }

  if (opts.verbose) {
    table.print(std::cout);
    std::cout << "\nExpected shape: FR-FCFS serves the copy tenants' row-hit\n"
                 "trains first, so the pointer chase (one dependent miss at a\n"
                 "time) eats the queueing delay — its slowdown and the\n"
                 "max/min unfairness are the baseline's worst numbers. ATLAS\n"
                 "ranks the tenants by attained service, so the chase\n"
                 "outranks the hogs: its p95 and the unfairness drop.\n";
  }

  Json out = Json::object();
  Json tj = Json::array();
  for (const TenantSpec& spec : tenants) {
    Json j = Json::object();
    j["stream"] = static_cast<std::int64_t>(spec.stream);
    j["kind"] = workloads::to_string(spec.kind);
    j["footprint_bytes"] = static_cast<std::int64_t>(spec.footprint_bytes);
    j["passes"] = spec.passes;
    tj.push_back(std::move(j));
  }
  out["tenants"] = std::move(tj);
  out["policies"] = std::move(rows);
  out["baseline_unfairness_per_rep"] = rep_metric_json(unfair_rep);
  return out;
}

// --- qos_tenant_scaling ---------------------------------------------------

std::vector<TenantSpec> scaling_tenants(std::size_t n) {
  std::vector<TenantSpec> t(n);
  t[0].kind = TenantKind::kPointerChase;
  t[0].footprint_bytes = 32 * kKiB;
  for (std::size_t i = 1; i < n; ++i) {
    t[i].kind = TenantKind::kStreamCopy;
    t[i].footprint_bytes = 32 * kKiB;
  }
  for (std::size_t i = 0; i < n; ++i) {
    t[i].stream = static_cast<std::uint32_t>(i);
    t[i].base_addr = i * kTenantSpacing;
  }
  return t;
}

/// Victim (pointer-chase) tail latency as the hog count grows, under one
/// policy (FR-FCFS unless --sched forces another). No solo baselines — the
/// axis is the tenant count, and the per-stream mean spread stands in for
/// fairness.
Json run_qos_tenant_scaling(const RunOptions& opts) {
  const smc::SchedulerKind policy =
      sweep_policies(opts, {smc::SchedulerKind::kFrfcfs}).front();
  const std::size_t counts[] = {2, 4, 8};

  const std::size_t per_rep = std::size(counts);
  const std::size_t n_tasks = static_cast<std::size_t>(opts.iters) * per_rep;
  ThreadPool pool(opts.threads);
  const auto all = parallel_map(pool, n_tasks, [&](std::size_t task) {
    const std::size_t rep = task / per_rep;
    const std::size_t n = counts[task % per_rep];
    const sys::SystemConfig cfg =
        qos_config(rep_seed(opts, static_cast<int>(rep)), policy);
    const smc::LinearMapper mapper(cfg.geometry);
    workloads::MixedTrace mix =
        workloads::make_mixed_trace(scaling_tenants(n), mapper);
    return run_records(cfg, std::move(mix.interleaved), n);
  });

  TextTable table;
  table.set_header(
      {"Tenants", "Policy", "chase p95", "chase mean", "mean spread"});
  Json rows = Json::array();
  for (std::size_t ci = 0; ci < std::size(counts); ++ci) {
    const QosRun& r = all[ci];
    double lo = 0.0;
    double hi = 0.0;
    for (const StreamLatency& s : r.streams) {
      if (s.mean <= 0.0) continue;
      if (lo == 0.0 || s.mean < lo) lo = s.mean;
      if (s.mean > hi) hi = s.mean;
    }
    const double spread = ratio(hi, lo);
    table.add_row({std::to_string(counts[ci]), policy_name(policy),
                   fmt_fixed(r.streams[0].p95, 0),
                   fmt_fixed(r.streams[0].mean, 0), fmt_fixed(spread, 2)});
    Json j = Json::object();
    j["tenants"] = static_cast<std::int64_t>(counts[ci]);
    j["policy"] = policy_name(policy);
    j["sched"] = smc::to_string(policy);
    j["victim_p95_cycles"] = r.streams[0].p95;
    j["victim_mean_cycles"] = r.streams[0].mean;
    j["stream_mean_spread"] = spread;
    add_sched_counters(j, r.stats);
    rows.push_back(std::move(j));
  }

  // Per-rep aggregate: victim p95 at the widest mix over the narrowest.
  std::vector<double> tail_growth;
  for (int rep = 0; rep < opts.iters; ++rep) {
    const std::size_t base = static_cast<std::size_t>(rep) * per_rep;
    tail_growth.push_back(ratio(all[base + per_rep - 1].streams[0].p95,
                                all[base].streams[0].p95));
  }

  if (opts.verbose) {
    table.print(std::cout);
    std::cout << "\nExpected shape: the victim's p95 and mean grow with\n"
                 "every added hog (more row-hit trains to lose to), and so\n"
                 "does the spread of the per-stream means.\n";
  }

  Json out = Json::object();
  out["points"] = std::move(rows);
  out["victim_p95_widest_over_narrowest_per_rep"] =
      rep_metric_json(tail_growth);
  return out;
}

// --- qos_mitigation -------------------------------------------------------

std::vector<TenantSpec> victim_adversary_tenants() {
  std::vector<TenantSpec> t(2);
  t[0].kind = TenantKind::kPointerChase;
  t[0].footprint_bytes = 32 * kKiB;
  t[1].kind = TenantKind::kHammer;
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i].stream = static_cast<std::uint32_t>(i);
    t[i].base_addr = i * kTenantSpacing;
  }
  return t;
}

/// Who pays for RowHammer mitigation in a multi-tenant mix: a chase victim
/// against a hammer adversary, PARA off/on, under one policy (FR-FCFS
/// unless --sched forces another). PARA's targeted refreshes are triggered
/// by the adversary's ACT storm but are served by the shared controller —
/// the question is whether the victim's latency absorbs them.
Json run_qos_mitigation(const RunOptions& opts) {
  const smc::SchedulerKind policy =
      sweep_policies(opts, {smc::SchedulerKind::kFrfcfs}).front();
  const std::vector<TenantSpec> tenants = victim_adversary_tenants();
  const bool para_points[] = {false, true};

  struct Task {
    QosRun mixed;
    double victim_slowdown = 0.0;
  };
  const std::size_t per_rep = std::size(para_points);
  const std::size_t n_tasks = static_cast<std::size_t>(opts.iters) * per_rep;
  ThreadPool pool(opts.threads);
  const auto all = parallel_map(pool, n_tasks, [&](std::size_t task) {
    const std::size_t rep = task / per_rep;
    const bool para = para_points[task % per_rep];
    sys::SystemConfig cfg =
        qos_config(rep_seed(opts, static_cast<int>(rep)), policy);
    if (para) {
      cfg.mitigation.kind = smc::mitigation::MitigationKind::kPara;
      cfg.mitigation.seed = rep_seed(opts, static_cast<int>(rep));
    }
    const smc::LinearMapper mapper(cfg.geometry);
    workloads::MixedTrace mix = workloads::make_mixed_trace(tenants, mapper);
    Task t;
    t.mixed = run_records(cfg, std::move(mix.interleaved), tenants.size());
    const QosRun solo = run_records(cfg, mix.solo[0], tenants.size());
    t.victim_slowdown =
        ratio(t.mixed.streams[0].mean, solo.streams[0].mean);
    return t;
  });

  TextTable table;
  table.set_header({"Mitigation", "Policy", "victim p95", "victim slowdown",
                    "adversary mean", "victim refreshes"});
  Json rows = Json::array();
  for (std::size_t mi = 0; mi < std::size(para_points); ++mi) {
    const Task& t = all[mi];
    table.add_row({para_points[mi] ? "PARA" : "none", policy_name(policy),
                   fmt_fixed(t.mixed.streams[0].p95, 0),
                   fmt_fixed(t.victim_slowdown, 2) + "x",
                   fmt_fixed(t.mixed.streams[1].mean, 0),
                   std::to_string(t.mixed.mitigation.neighbor_refreshes)});
    Json j = Json::object();
    j["mitigation"] = para_points[mi] ? "para" : "none";
    j["policy"] = policy_name(policy);
    j["sched"] = smc::to_string(policy);
    j["victim"] =
        stream_json(tenants[0], t.mixed.streams[0], t.victim_slowdown);
    j["adversary"] = stream_json(tenants[1], t.mixed.streams[1]);
    j["neighbor_refreshes"] = t.mixed.mitigation.neighbor_refreshes;
    j["mitigation_triggers"] = t.mixed.mitigation.triggers;
    add_sched_counters(j, t.mixed.stats);
    rows.push_back(std::move(j));
  }

  std::vector<double> para_tax;
  for (int rep = 0; rep < opts.iters; ++rep) {
    const std::size_t base = static_cast<std::size_t>(rep) * per_rep;
    // Victim p95 with PARA over without.
    para_tax.push_back(ratio(all[base + 1].mixed.streams[0].p95,
                             all[base].mixed.streams[0].p95));
  }

  if (opts.verbose) {
    table.print(std::cout);
    std::cout << "\nExpected shape: the adversary's ACT storm triggers PARA's\n"
                 "targeted refreshes, which queue at the shared controller\n"
                 "like any other work. The victim's slowdown vs running\n"
                 "alone grows when mitigation turns on: its mean absorbs\n"
                 "part of that tax (its p95 may not move).\n";
  }

  Json out = Json::object();
  out["points"] = std::move(rows);
  out["victim_para_tax_first_policy_per_rep"] = rep_metric_json(para_tax);
  return out;
}

// --- qos_bank_partition ---------------------------------------------------

/// Scheduler-free isolation: the same 4-tenant mix under the
/// line-interleaved mapping (tenants share every bank) vs static bank
/// partitioning (each tenant's slice owns a quarter of the banks), both
/// under plain FR-FCFS. Partitioning makes cross-tenant row conflicts
/// structurally impossible — visible in the victim's tail and in the
/// controller's row-conflict counter.
Json run_qos_bank_partition(const RunOptions& opts) {
  const smc::SchedulerKind policy =
      sweep_policies(opts, {smc::SchedulerKind::kFrfcfs}).front();
  const smc::MappingKind mappings[] = {smc::MappingKind::kLineInterleaved,
                                       smc::MappingKind::kBankPartition};

  // Place each tenant at the base of its own quarter of the physical
  // space: under bankpart that is exactly one bank partition; under the
  // line mapping the same addresses stripe over every bank (the contended
  // baseline).
  const dram::Geometry geo;  // The paper's 1x1 default, as qos_config uses.
  const std::uint64_t quarter = geo.capacity_bytes() / 4;
  std::vector<TenantSpec> tenants(4);
  tenants[0].kind = TenantKind::kPointerChase;
  tenants[0].footprint_bytes = 32 * kKiB;
  for (std::size_t i = 1; i < tenants.size(); ++i) {
    tenants[i].kind = TenantKind::kStreamCopy;
    tenants[i].footprint_bytes = 64 * kKiB;
  }
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    tenants[i].stream = static_cast<std::uint32_t>(i);
    tenants[i].base_addr = i * quarter;
  }

  const std::size_t per_rep = std::size(mappings);
  const std::size_t n_tasks = static_cast<std::size_t>(opts.iters) * per_rep;
  ThreadPool pool(opts.threads);
  const auto all = parallel_map(pool, n_tasks, [&](std::size_t task) {
    const std::size_t rep = task / per_rep;
    const smc::MappingKind mapping = mappings[task % per_rep];
    sys::SystemConfig cfg =
        qos_config(rep_seed(opts, static_cast<int>(rep)), policy, mapping);
    const auto mapper =
        smc::make_mapper(mapping, cfg.geometry, cfg.bank_partitions);
    workloads::MixedTrace mix = workloads::make_mixed_trace(tenants, *mapper);
    return run_records(cfg, std::move(mix.interleaved), tenants.size());
  });

  TextTable table;
  table.set_header({"Mapping", "chase p50", "chase p95", "row hits",
                    "row conflicts"});
  Json rows = Json::array();
  for (std::size_t mi = 0; mi < std::size(mappings); ++mi) {
    const QosRun& r = all[mi];
    table.add_row({std::string(smc::to_string(mappings[mi])),
                   fmt_fixed(r.streams[0].p50, 0),
                   fmt_fixed(r.streams[0].p95, 0),
                   std::to_string(r.stats.sched_row_hits),
                   std::to_string(r.stats.sched_row_conflicts)});
    Json j = Json::object();
    j["mapping"] = smc::to_string(mappings[mi]);
    j["policy"] = policy_name(policy);
    Json streams = Json::array();
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      streams.push_back(stream_json(tenants[i], r.streams[i]));
    }
    j["streams"] = std::move(streams);
    add_sched_counters(j, r.stats);
    rows.push_back(std::move(j));
  }

  std::vector<double> isolation;
  for (int rep = 0; rep < opts.iters; ++rep) {
    const std::size_t base = static_cast<std::size_t>(rep) * per_rep;
    isolation.push_back(
        ratio(all[base].streams[0].p95, all[base + 1].streams[0].p95));
  }

  if (opts.verbose) {
    table.print(std::cout);
    std::cout << "\nExpected shape: line interleaving strews every tenant\n"
                 "over every bank, so the hogs keep closing the rows the\n"
                 "chase is about to need; bank partitioning pins each tenant\n"
                 "to its own banks, cutting cross-tenant row conflicts to\n"
                 "zero by construction — no scheduler cooperation needed.\n";
  }

  Json out = Json::object();
  out["partitions"] = static_cast<std::int64_t>(4);
  out["points"] = std::move(rows);
  out["victim_p95_line_over_bankpart_per_rep"] = rep_metric_json(isolation);
  return out;
}

}  // namespace

void register_qos_scenarios(ScenarioRegistry& r) {
  r.add({"qos_mixed_tenants",
         "4-tenant mixed traffic: per-stream tails and fairness per policy",
         "EasyDRAM (DSN 2025), extension: multi-tenant QoS",
         &run_qos_mixed_tenants});
  r.add({"qos_tenant_scaling",
         "Victim tail latency at 2/4/8 tenants under FR-FCFS",
         "EasyDRAM (DSN 2025), extension: multi-tenant QoS",
         &run_qos_tenant_scaling});
  r.add({"qos_mitigation",
         "Chase victim vs hammer adversary with PARA off/on",
         "EasyDRAM (DSN 2025), extension: multi-tenant QoS",
         &run_qos_mitigation});
  r.add({"qos_bank_partition",
         "Tenant isolation: line-interleaved vs static bank partitions",
         "EasyDRAM (DSN 2025), extension: multi-tenant QoS",
         &run_qos_bank_partition});
}

}  // namespace easydram::cli
