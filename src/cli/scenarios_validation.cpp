// Validation and ablation scenarios: the §6 time-scaling validation study
// and three ablations beyond the paper (row-batch draining, scheduling
// policy, software vs hardware memory controller).

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "cli/measure.hpp"
#include "cli/scenario.hpp"
#include "cli/thread_pool.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "smc/scheduler.hpp"
#include "workloads/lmbench.hpp"
#include "workloads/polybench.hpp"

namespace easydram::cli {
namespace {

// --- validation_timescale -------------------------------------------------

Json run_validation(const RunOptions& opts) {
  struct Entry {
    std::string name;
    bool polybench = true;  // False = lmbench.
  };
  std::vector<Entry> entries;
  for (const auto& kernel : workloads::all_kernels()) {
    entries.push_back({std::string(kernel.name)});
  }
  entries.push_back({"lmbench-lat-mem-rd", false});

  struct Point {
    std::int64_t ref_cycles = 0;
    std::int64_t ts_cycles = 0;
    double err_pct = 0;
  };
  const std::size_t n = entries.size();
  ThreadPool pool(opts.threads);
  const auto all = parallel_map(
      pool, static_cast<std::size_t>(opts.iters) * n, [&](std::size_t task) {
        const std::size_t rep = task / n;
        const Entry& e = entries[task % n];
        const std::uint64_t seed = rep_seed(opts, static_cast<int>(rep));
        const std::vector<cpu::TraceRecord> records =
            e.polybench ? workloads::generate_kernel(e.name)
                        : workloads::make_lmbench_chase(2 << 20, 4);

        sys::SystemConfig ts_cfg = sys::validation_time_scaling();
        ts_cfg.variation.seed = seed;
        sys::EasyDramSystem ts(ts_cfg);
        cpu::SpanTrace t1(records);
        const auto r_ts = ts.run(t1);

        sys::SystemConfig ref_cfg = sys::validation_reference();
        ref_cfg.variation.seed = seed;
        sys::EasyDramSystem ref(ref_cfg);
        cpu::SpanTrace t2(records);
        const auto r_ref = ref.run(t2);

        Point p;
        p.ref_cycles = r_ref.cycles;
        p.ts_cycles = r_ts.cycles;
        p.err_pct = 100.0 *
                    std::abs(static_cast<double>(r_ts.cycles - r_ref.cycles)) /
                    static_cast<double>(r_ref.cycles);
        return p;
      });

  TextTable t;
  t.set_header({"Workload", "Reference 1GHz (cycles)",
                "TS 100MHz->1GHz (cycles)", "Error (%)"});
  Summary err_summary;
  std::vector<double> errors;
  Json rows = Json::array();
  for (std::size_t i = 0; i < n; ++i) {
    const Point& p = all[i];  // Repetition 0.
    err_summary.add(p.err_pct);
    errors.push_back(p.err_pct);
    t.add_row({entries[i].name, std::to_string(p.ref_cycles),
               std::to_string(p.ts_cycles), fmt_fixed(p.err_pct, 4)});
    Json j = Json::object();
    j["workload"] = entries[i].name;
    j["reference_cycles"] = p.ref_cycles;
    j["time_scaled_cycles"] = p.ts_cycles;
    j["error_pct"] = p.err_pct;
    rows.push_back(std::move(j));
  }

  if (opts.verbose) {
    t.print(std::cout);
    std::cout << "\nAverage error: " << fmt_fixed(err_summary.mean(), 4)
              << "% (paper: <0.1%)\nMaximum error: "
              << fmt_fixed(err_summary.max(), 4) << "% (paper: <1%)\n";
  }

  Json out = Json::object();
  out["workloads"] = std::move(rows);
  Json summary = Json::object();
  summary["error_pct_mean"] = err_summary.mean();
  summary["error_pct_max"] = err_summary.max();
  summary["error_pct_p50"] = p50(errors);
  summary["error_pct_p95"] = p95(errors);
  summary["paper_bound_avg_pct"] = 0.1;
  summary["paper_bound_max_pct"] = 1.0;
  // Per-repetition aggregate: the worst-case error of each rep's chip.
  std::vector<double> rep_max;
  for (int rep = 0; rep < opts.iters; ++rep) {
    double worst = 0;
    for (std::size_t i = 0; i < n; ++i) {
      worst = std::max(worst, all[static_cast<std::size_t>(rep) * n + i].err_pct);
    }
    rep_max.push_back(worst);
  }
  summary["error_pct_max_per_rep"] = rep_metric_json(rep_max);
  out["summary"] = std::move(summary);
  return out;
}

// --- ablation_batch_limit -------------------------------------------------

Json run_batch_limit(const RunOptions& opts) {
  static constexpr std::size_t kLimits[] = {16, 4, 1};
  const std::size_t n = std::size(kLimits);
  ThreadPool pool(opts.threads);
  const auto all = parallel_map(
      pool, static_cast<std::size_t>(opts.iters) * n, [&](std::size_t task) {
        sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
        cfg.variation.seed = rep_seed(opts, static_cast<int>(task / n));
        cfg.row_batch_limit = kLimits[task % n];
        return run_kernel_cycles(cfg, "gesummv").count;
      });

  TextTable t;
  t.set_header({"row_batch_limit", "cycles", "vs limit=16"});
  const auto base = static_cast<double>(all[0]);  // limit=16, repetition 0.
  Json rows = Json::array();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t cycles = all[i];
    t.add_row({std::to_string(kLimits[i]), std::to_string(cycles),
               fmt_fixed(100.0 * (static_cast<double>(cycles) / base - 1.0), 1) +
                   "%"});
    Json j = Json::object();
    j["row_batch_limit"] = kLimits[i];
    j["cycles"] = cycles;
    j["overhead_vs_16_pct"] =
        100.0 * (static_cast<double>(cycles) / base - 1.0);
    rows.push_back(std::move(j));
  }
  if (opts.verbose) t.print(std::cout);

  Json out = Json::object();
  out["workload"] = "gesummv";
  out["limits"] = std::move(rows);
  // Per-repetition aggregate: overhead of limit=1 over limit=16.
  std::vector<double> overhead;
  for (int rep = 0; rep < opts.iters; ++rep) {
    const std::size_t b = static_cast<std::size_t>(rep) * n;
    overhead.push_back(100.0 * (static_cast<double>(all[b + 2]) /
                                    static_cast<double>(all[b]) -
                                1.0));
  }
  out["overhead_limit1_pct_per_rep"] = rep_metric_json(overhead);
  return out;
}

// --- ablation_scheduler ---------------------------------------------------

Json run_scheduler(const RunOptions& opts) {
  constexpr smc::SchedulerKind kPolicies[] = {smc::SchedulerKind::kFcfs,
                                              smc::SchedulerKind::kFrfcfs};
  const std::size_t n = std::size(kPolicies);
  ThreadPool pool(opts.threads);
  const auto all = parallel_map(
      pool, static_cast<std::size_t>(opts.iters) * n, [&](std::size_t task) {
        sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
        cfg.variation.seed = rep_seed(opts, static_cast<int>(task / n));
        cfg.sched = kPolicies[task % n];
        return run_kernel_cycles(cfg, "mvt").count;
      });

  TextTable t;
  t.set_header({"policy", "cycles"});
  Json rows = Json::array();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string name(smc::make_scheduler(kPolicies[i])->name());
    t.add_row({name, std::to_string(all[i])});
    Json j = Json::object();
    j["policy"] = name;
    j["cycles"] = all[i];
    rows.push_back(std::move(j));
  }
  if (opts.verbose) t.print(std::cout);

  Json out = Json::object();
  out["workload"] = "mvt";
  out["policies"] = std::move(rows);
  // Per-repetition aggregate: FCFS slowdown relative to FR-FCFS.
  std::vector<double> ratios;
  for (int rep = 0; rep < opts.iters; ++rep) {
    const std::size_t b = static_cast<std::size_t>(rep) * n;
    ratios.push_back(static_cast<double>(all[b]) /
                     static_cast<double>(all[b + 1]));
  }
  out["fcfs_over_frfcfs_per_rep"] = rep_metric_json(ratios);
  return out;
}

// --- ablation_hardware_mc -------------------------------------------------

Json run_hardware_mc(const RunOptions& opts) {
  ThreadPool pool(opts.threads);
  const auto all = parallel_map(
      pool, static_cast<std::size_t>(opts.iters) * 2, [&](std::size_t task) {
        sys::SystemConfig cfg = sys::jetson_nano_time_scaling();
        cfg.variation.seed = rep_seed(opts, static_cast<int>(task / 2));
        if (task % 2 == 1) {
          cfg.hardware_mc = true;
          cfg.mc_sched_latency = Cycles{8};
        }
        return run_kernel_cycles(cfg, "trisolv").count;
      });

  TextTable t;
  t.set_header({"controller", "cycles"});
  Json rows = Json::array();
  for (std::size_t i = 0; i < 2; ++i) {
    const char* name = i == 0 ? "software (SMC cycles charged)"
                              : "hardware (8-cycle pipeline)";
    t.add_row({name, std::to_string(all[i])});
    Json j = Json::object();
    j["controller"] = i == 0 ? "software" : "hardware";
    j["cycles"] = all[i];
    rows.push_back(std::move(j));
  }
  if (opts.verbose) t.print(std::cout);

  Json out = Json::object();
  out["workload"] = "trisolv";
  out["controllers"] = std::move(rows);
  // Per-repetition aggregate: software-over-hardware cycle ratio.
  std::vector<double> ratios;
  for (int rep = 0; rep < opts.iters; ++rep) {
    ratios.push_back(
        static_cast<double>(all[static_cast<std::size_t>(rep) * 2]) /
        static_cast<double>(all[static_cast<std::size_t>(rep) * 2 + 1]));
  }
  out["software_over_hardware_per_rep"] = rep_metric_json(ratios);
  return out;
}

}  // namespace

void register_validation_scenarios(ScenarioRegistry& r) {
  r.add({"validation_timescale",
         "Time-scaling validation: 28 PolyBench kernels + lmbench, error vs "
         "a 1 GHz reference",
         "EasyDRAM (DSN 2025), Section 6", &run_validation});
  r.add({"ablation_batch_limit",
         "Row-hit batch draining limit sweep (gesummv cycles)",
         "EasyDRAM (DSN 2025), extension: row-batch limit ablation",
         &run_batch_limit});
  r.add({"ablation_scheduler",
         "Scheduling policy comparison: FCFS vs FR-FCFS (mvt)",
         "EasyDRAM (DSN 2025), extension: scheduling policy ablation",
         &run_scheduler});
  r.add({"ablation_hardware_mc",
         "Software vs fixed-function hardware memory controller (trisolv)",
         "EasyDRAM (DSN 2025), extension: hardware controller ablation",
         &run_hardware_mc});
}

}  // namespace easydram::cli
