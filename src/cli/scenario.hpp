#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cli/json.hpp"
#include "smc/addr_map.hpp"
#include "smc/scheduler.hpp"

namespace easydram::cli {

/// Options shared by every experiment scenario. Defaults reproduce the
/// paper-shape outputs of the original standalone benches: seed matches the
/// dram::VariationConfig default, one repetition, sequential execution, and
/// the paper's 1-channel/1-rank row-linear memory system.
struct RunOptions {
  std::uint64_t seed = 0x5AFA2125ULL;
  int iters = 1;    ///< Independent repetitions aggregated into the summary.
  int threads = 1;  ///< Host threads for the scenario's sweep tasks.
  bool verbose = true;  ///< Print the human-readable tables to stdout.

  /// Memory-system shape (--channels/--ranks/--mapping). The paper
  /// figure/table scenarios always run the 1x1 defaults they were validated
  /// against; the memory-system scenarios (channel_scaling,
  /// rank_interleaving) honor these as sweep upper bounds / extra points.
  std::uint32_t channels = 1;
  std::uint32_t ranks = 1;
  smc::MappingKind mapping = smc::MappingKind::kLinear;

  /// Forced scheduling policy (--sched). Unset by default: scenarios keep
  /// their validated per-experiment policies and the envelope omits the
  /// key, so every pre-existing golden output is unchanged. When set, the
  /// qos_* scenarios run only this policy and other scenarios that build
  /// stock systems honor it via SystemConfig::sched.
  std::optional<smc::SchedulerKind> sched;
};

/// Deterministic per-repetition seed stream. Repetition 0 keeps the
/// caller's seed so `--iters 1` (the default) reproduces the single-run
/// output; later repetitions draw statistically independent streams, each
/// in 0 .. 2^63-1 so it can be fed back through `--seed`.
std::uint64_t rep_seed(const RunOptions& opts, int rep);

/// Aggregate of one headline metric across the run's repetitions: the
/// per-rep values plus mean/stddev/p50/p95. Every scenario folds at least
/// one such aggregate into its payload, so `--iters N` always contributes
/// to the JSON (per-sweep detail rows still describe repetition 0).
Json rep_metric_json(std::span<const double> per_rep);

/// One registered experiment: a figure/table reproducer or an ablation.
/// `run` executes the sweep under the given options and returns the
/// machine-readable result payload (it may also print tables when
/// opts.verbose). Scenarios are pure functions of RunOptions: a fixed
/// (seed, iters) pair yields an identical payload at any --threads value,
/// except where a scenario explicitly measures the host clock (fig14).
struct Scenario {
  std::string_view name;
  std::string_view summary;
  std::string_view paper_ref;
  Json (*run)(const RunOptions& opts);
};

/// Name-keyed registry of every scenario, populated at first use from the
/// per-module registration hooks (explicit calls, not static initializers,
/// so scenarios survive static-library dead stripping).
class ScenarioRegistry {
 public:
  static ScenarioRegistry& instance();

  void add(const Scenario& s);
  const Scenario* find(std::string_view name) const;
  std::span<const Scenario> all() const { return scenarios_; }

 private:
  ScenarioRegistry();

  std::vector<Scenario> scenarios_;  ///< Sorted by name.
};

/// Runs one scenario and wraps its payload in the standard envelope
/// (scenario, paper_ref, seed, iters, threads, results).
Json run_scenario(const Scenario& s, const RunOptions& opts);

/// main() of the `easydram_cli` tool: runs every `--scenario` given (at
/// least one is required). Flags: --scenario NAME, --list, --seed N,
/// --iters N, --threads N, --out PATH, --quiet, --help.
int scenario_main(int argc, char** argv);

}  // namespace easydram::cli
