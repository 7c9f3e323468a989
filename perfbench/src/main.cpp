// perfbench: runs one benchmark workload for a fixed host-time budget
// and prints its metrics. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics (tracing off); --trace 1 reports
// the per-layer metrics from traced repetitions, the isolated ns/op of each
// layer and the reconciliation of the two.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--spans-out FILE]

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kMinReps = 3;  ///< Fewest repetitions a median is taken over.

struct Workload {
  std::string_view name;
  Rep (*run)(Context&);
};

constexpr Workload kWorkloads[] = {
    {"polybench_fig14", &run_polybench_fig14},
    {"rw_burst", &run_rw_burst},
    {"rowclone_trcd", &run_rowclone_trcd},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload {polybench_fig14|rw_burst|rowclone_trcd}"
               " --seed N --seconds S --trace 0|1 [--spans-out FILE]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v);
      } else if (flag == "--spans-out") {
        a.spans_out = v;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds must be in (0, 600]");
  return a;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

template <typename F>
double median_of(const std::vector<Rep>& reps, F&& f) {
  std::vector<double> xs;
  for (const Rep& r : reps) xs.push_back(f(r));
  return median(xs);
}

double percentile_ns(std::vector<std::uint32_t> xs, double q) {
  if (xs.empty()) return 0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1));
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k), xs.end());
  return xs[k];
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_table(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-28s %18.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_result(const Checker& check, const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": " + std::string(check.failed() == 0 ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(check.attempted()) +
                    ", \"failed\": " + std::to_string(check.failed()) + ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + ms[i].name + "\": {\"value\": " +
           number(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  std::printf("%s}}\n", out.c_str());
}

struct Reps {
  std::vector<Rep> untraced, traced;
  /// Per-layer values of each traced repetition, by metric name.
  std::map<std::string, std::vector<double>> layers;
  std::unique_ptr<SpanRecorder> last_recorder;  ///< Spans of the last traced rep.
};

std::map<std::string, double> layer_values(const Rep& r, const SpanRecorder& rec);

/// Runs repetitions until the budget is spent (at least kMinReps). With
/// --trace 1, repetitions alternate untraced/traced so both halves see the
/// same host conditions.
Reps run_reps(const Workload& w, const Args& a, Checker& check) {
  Reps out;
  const std::int64_t start = now_ns();
  const bool alternate = a.trace == 1;
  for (std::size_t i = 0;; ++i) {
    Context ctx;
    ctx.seed = a.seed;
    ctx.check = &check;
    if (alternate && i % 2 == 1) {
      auto rec = std::make_unique<SpanRecorder>();
      ctx.rec = rec.get();
      {
        SpanRecorder::Scope rep_span(ctx.rec, "rep");
        out.traced.push_back(w.run(ctx));
      }
      for (const auto& [name, v] : layer_values(out.traced.back(), *rec)) {
        out.layers[name].push_back(v);
      }
      out.last_recorder = std::move(rec);
    } else {
      out.untraced.push_back(w.run(ctx));
    }
    const double elapsed = ns_to_s(now_ns() - start);
    const double per_rep = elapsed / static_cast<double>(i + 1);
    const bool enough = out.untraced.size() >= kMinReps &&
                        (!alternate || out.traced.size() >= kMinReps);
    if (enough && elapsed + per_rep > a.seconds) break;
  }
  return out;
}

/// Every repetition ran the same inputs, so every modeled fingerprint must
/// match, traced or not: the timing decorator must not change the model.
void check_fingerprints(Checker& check, const std::vector<Rep>& untraced,
                        const std::vector<Rep>& traced) {
  const std::uint64_t ref = untraced.front().fingerprint;
  for (const Rep& r : untraced) check.expect(r.fingerprint == ref, "fingerprint differs across reps");
  for (const Rep& r : traced) {
    check.expect(r.fingerprint == ref, "traced fingerprint differs from untraced");
  }
}

std::vector<Metric> end_to_end(const std::vector<Rep>& reps) {
  return {
      {"run_s", median_of(reps, [](const Rep& r) { return r.run_s; }), "s"},
      {"setup_s", median_of(reps, [](const Rep& r) { return r.setup_s; }), "s"},
      {"sim_instr_per_s",
       median_of(reps, [](const Rep& r) {
         return ratio(static_cast<double>(r.counts.instructions), r.easydram_s);
       }),
       "instr/s"},
      {"requests_per_s",
       median_of(reps, [](const Rep& r) {
         return ratio(static_cast<double>(r.counts.requests), r.easydram_s);
       }),
       "req/s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
}

struct ReconTerm {
  std::string_view layer;
  double count;
  double ns_per_op;
  double seconds() const { return count * ns_per_op * 1e-9; }
};

/// Per-layer metrics of one traced repetition.
std::map<std::string, double> layer_values(const Rep& r, const SpanRecorder& rec) {
  const Counts& c = r.counts;
  const CallStats& sub = rec.calls(Call::kSubmit);
  const CallStats& wt = rec.calls(Call::kWait);
  const double l1 = static_cast<double>(c.l1_hits + c.l1_misses);
  const double l2 = static_cast<double>(c.l2_hits + c.l2_misses);
  return {
      {"workloads.gen_s", r.gen_s},
      {"cpu.self_s", rec.self_s("cpu.Core::run")},
      {"cpu.cache_accesses", l1 + l2},
      {"cpu.l1_hit_ratio", ratio(static_cast<double>(c.l1_hits), l1)},
      {"cpu.l2_hit_ratio", ratio(static_cast<double>(c.l2_hits), l2)},
      {"sys.construct_s", r.construct_s},
      {"sys.backend_s", ns_to_s(sub.total_ns + wt.total_ns) + rec.total_s("sys.drain")},
      {"sys.requests", static_cast<double>(c.requests)},
      {"sys.submit_ns_p50", percentile_ns(sub.samples_ns, 0.50)},
      {"sys.submit_ns_p99", percentile_ns(sub.samples_ns, 0.99)},
      {"sys.submit_samples", static_cast<double>(sub.samples_ns.size())},
      {"sys.wait_ns_p50", percentile_ns(wt.samples_ns, 0.50)},
      {"sys.wait_ns_p99", percentile_ns(wt.samples_ns, 0.99)},
      {"sys.wait_samples", static_cast<double>(wt.samples_ns.size())},
      {"smc.sched_picks", static_cast<double>(c.sched_picks)},
      {"smc.scan_per_pick",
       ratio(static_cast<double>(c.sched_entries_scanned), static_cast<double>(c.sched_picks))},
      {"smc.row_hit_ratio",
       ratio(static_cast<double>(c.sched_row_hits), static_cast<double>(c.sched_picks))},
      {"smc.batches", static_cast<double>(c.batches)},
      {"smc.commands_per_batch",
       ratio(static_cast<double>(c.commands), static_cast<double>(c.batches))},
      {"smc.scrub_reads", static_cast<double>(c.scrub_reads)},
      {"smc.rowclone_alloc_s", r.rowclone_alloc_s},
      {"smc.rowclone_trials", static_cast<double>(c.rowclone_trials)},
      {"smc.trcd_characterize_s", r.characterize_s},
      {"bender.commands", static_cast<double>(c.commands)},
      {"bender.setup_commands", static_cast<double>(c.setup_commands)},
      {"ramulator.run_s", r.ramulator_s},
      {"ramulator.instr_per_s", ratio(static_cast<double>(c.ram_instructions), r.ramulator_s)},
  };
}

/// Σ count × ns/op over the layers a request crosses, using the traced
/// run's counts and the isolated microbenchmark figures. dram.issue_ns and
/// dram.variation_lookup_ns are left out: Bender's per-command figure
/// already contains the device issue, and variation lookups are not counted.
std::vector<ReconTerm> recon_terms(const Counts& c, const std::map<std::string, double>& ns) {
  const auto f = [](std::int64_t v) { return static_cast<double>(v); };
  return {
      {"cpu cache", f(c.l1_hits + c.l1_misses + c.l2_hits + c.l2_misses),
       ns.at("cpu.cache_access_ns")},
      {"sys completion ring", f(c.requests), ns.at("sys.ring_put_consume_ns")},
      {"smc request table", f(c.requests), ns.at("smc.table_insert_remove_ns")},
      {"smc to_dram", f(c.requests), ns.at("smc.to_dram_ns")},
      {"smc scheduler (per 32 scanned)", f(c.sched_entries_scanned) / 32.0, ns.at("smc.pick_ns")},
      {"smc flush_commands", f(c.batches), ns.at("smc.flush_commands_ns")},
      {"bender+dram (per command)", f(c.commands), ns.at("bender.execute_ns") / 10.0},
      {"smc ecc encode (per word)", f(c.ecc_writes) * 8, ns.at("smc.ecc_encode_ns")},
      {"smc ecc decode (per word)", f(c.ecc_reads) * 8, ns.at("smc.ecc_decode_ns")},
      {"smc bloom query", f(c.bloom_reads), ns.at("smc.bloom_query_ns")},
  };
}

int run(const Args& a) {
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (cand.name == a.workload) w = &cand;
  }
  if (w == nullptr) usage("unknown workload " + a.workload);

  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool release = build_type == "Release";
#else
  const bool release = false;
#endif
  if (!release) {
    std::cerr << "perfbench: refusing to run: the library was built as '" << build_type
              << "', not an optimized Release build, so host timings would be meaningless.\n";
    return 3;
  }
  std::printf("host {\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d}\n",
              std::thread::hardware_concurrency(), PERFBENCH_COMPILER, build_type.c_str(),
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.trace);

  Checker check;
  Reps reps = run_reps(*w, a, check);
  const std::vector<Rep>& untraced = reps.untraced;
  const std::vector<Rep>& traced = reps.traced;
  check_fingerprints(check, untraced, traced);

  std::vector<Metric> metrics;
  if (a.trace == 0) {
    metrics = end_to_end(untraced);
    std::printf("%s: %zu reps, fingerprint %016llx\n", a.workload.c_str(), untraced.size(),
                static_cast<unsigned long long>(untraced.front().fingerprint));
    print_table(metrics);
  } else {
    std::map<std::string, double> ns;
    for (const MicroResult& m : run_microbenchmarks(a.seed)) ns[std::string(m.name)] = m.ns_per_op;

    // Reconcile against the untraced EasyDRAM share of run_s: the Ramulator
    // baseline is timed directly and is not one of EasyDRAM's layers.
    const double easy_s =
        median_of(untraced, [](const Rep& r) { return r.run_s - r.ramulator_s; });
    const std::vector<ReconTerm> terms = recon_terms(traced.back().counts, ns);
    double explained = 0;
    for (const ReconTerm& t : terms) explained += t.seconds();
    const double run_untraced = median_of(untraced, [](const Rep& r) { return r.run_s; });
    const double run_traced = median_of(traced, [](const Rep& r) { return r.run_s; });

    auto unit_of = [](const std::string& n) -> std::string {
      if (n.ends_with("_ns") || n.ends_with("_p50") || n.ends_with("_p99")) return "ns";
      if (n.ends_with("_per_s")) return "instr/s";
      if (n.ends_with("_s")) return "s";
      if (n.ends_with("_ratio") || n.ends_with("_per_pick") || n.ends_with("_per_batch")) {
        return "ratio";
      }
      return "count";
    };
    for (const auto& [name, xs] : reps.layers) metrics.push_back({name, median(xs), unit_of(name)});
    for (const auto& [name, v] : ns) metrics.push_back({name, v, "ns"});
    metrics.push_back({"recon.explained_share", ratio(explained, easy_s), "ratio"});
    metrics.push_back({"recon.glue_s", easy_s - explained, "s"});
    metrics.push_back({"trace_overhead", ratio(run_traced, run_untraced) - 1.0, "ratio"});

    std::printf("%s: %zu untraced + %zu traced reps, fingerprint %016llx\n", a.workload.c_str(),
                untraced.size(), traced.size(),
                static_cast<unsigned long long>(untraced.front().fingerprint));
    print_table(metrics);
    std::printf("\nreconciliation (%s): EasyDRAM host time %.4f s (untraced run_s %.4f s"
                " minus ramulator %.4f s)\n",
                a.workload.c_str(), easy_s, run_untraced, run_untraced - easy_s);
    std::printf("  %-32s %14s %10s %10s %8s\n", "layer", "count", "ns/op", "seconds", "share");
    for (const ReconTerm& t : terms) {
      std::printf("  %-32s %14.0f %10.2f %10.4f %7.1f%%\n", std::string(t.layer).c_str(),
                  t.count, t.ns_per_op, t.seconds(), 100 * ratio(t.seconds(), easy_s));
    }
    std::printf("  %-32s %14s %10s %10.4f %7.1f%%\n", "explained (sum)", "", "", explained,
                100 * ratio(explained, easy_s));
    std::printf("  %-32s %14s %10s %10.4f %7.1f%%\n", "glue (unexplained)", "", "",
                easy_s - explained, 100 * ratio(easy_s - explained, easy_s));
    if (!a.spans_out.empty()) {
      if (reps.last_recorder->write_chrome_trace(a.spans_out)) {
        std::printf("spans of the last traced rep: %s (%zu spans)\n", a.spans_out.c_str(),
                    reps.last_recorder->span_count());
      } else {
        std::fprintf(stderr, "perfbench: cannot write %s\n", a.spans_out.c_str());
      }
    }
  }

  std::printf("failed_ops_share %.6g (%lld failed of %lld attempted)\n",
              ratio(static_cast<double>(check.failed()), static_cast<double>(check.attempted())),
              static_cast<long long>(check.failed()), static_cast<long long>(check.attempted()));
  for (const std::string& m : check.messages()) std::printf("FAILED: %s\n", m.c_str());
  print_result(check, metrics);
  return check.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
