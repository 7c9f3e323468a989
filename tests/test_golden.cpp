// Golden-hash regression test: every deterministic scenario's JSON payload
// is digested and compared against a checked-in hash, turning the
// repository's "bit-identical outputs" claims into an enforced invariant
// instead of a manual diff. fig14_sim_speed is excluded by design — its
// Ramulator column reads the host clock — and runs as the cli_fig14 CTest
// (tools/CMakeLists.txt) instead.
//
// Each kGolden entry is one parameterized test, Golden/Digest.Matches/NAME,
// and one CTest entry, test_golden.Golden/Digest.Matches/NAME
// (tests/CMakeLists.txt), so `ctest -j` spreads the scenarios over the
// cores. The `test_golden` CTest entry runs the rest of this file.
//
// When a change *intentionally* alters scenario output, print the new
// table, verify the diff is expected, and update kGolden below. In one
// process, in table order:
//   EASYDRAM_PRINT_GOLDEN=1 build/tests/test_golden --gtest_filter='Golden/*'
// or through CTest in parallel, collecting the per-test lines (kGolden is
// sorted by name, so `sort` restores table order):
//   cd build && EASYDRAM_PRINT_GOLDEN=1 ctest -j4 -V -R '^test_golden\.' |
//     grep -o '{"[a-z0-9_]*", 0x[0-9A-F]*ull},' | sort

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "cli/scenario.hpp"

namespace easydram::cli {
namespace {

/// FNV-1a 64-bit: tiny, dependency-free, and stable across platforms for
/// byte-identical input (which is exactly the claim under test).
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

struct GoldenEntry {
  const char* scenario;
  std::uint64_t hash;
};

/// Digests of each scenario's run_scenario() JSON under the default
/// RunOptions (seed 0x5AFA2125, iters 1, threads 1) — the same document
/// `easydram_cli --scenario NAME --quiet --out f.json` writes.
constexpr GoldenEntry kGolden[] = {
    {"ablation_batch_limit", 0xF3912E8F67B4C61Eull},
    {"ablation_hardware_mc", 0x0C665225E5291A1Cull},
    {"ablation_rowclone_interleaving", 0x8A71D2EC7FB6D60Bull},
    {"ablation_scheduler", 0x846714D7E96158B1ull},
    {"channel_scaling", 0xC91348487B0729C2ull},
    {"ecc_vs_hammer", 0x22933A1122B58EAEull},
    {"fault_sweep", 0xAFBC440AD7F11E97ull},
    {"fig10_rowclone_noflush", 0x90B9DA5F28F443FFull},
    {"fig11_rowclone_clflush", 0x589F05103398A380ull},
    {"fig12_trcd_heatmap", 0x006FB08859876E4Full},
    {"fig13_trcd_speedup", 0xD8AE6DB2AF811381ull},
    {"fig2_breakdown", 0xD070C9DB79A7858Aull},
    {"fig8_latency_profile", 0x0BEC113C08C4FC67ull},
    {"latency_sweep", 0xA62476266726E912ull},
    {"mitigation_overhead", 0x44FF6F4B882509B9ull},
    {"qos_bank_partition", 0xC6CC1895D784AB1Aull},
    {"qos_mitigation", 0x54C9C48E590C3CDEull},
    {"qos_mixed_tenants", 0xD25AD07B22F6B0D9ull},
    {"qos_tenant_scaling", 0xA223E1920C14B771ull},
    {"quickstart", 0x030BF38B297270D9ull},
    {"raidr_baseline", 0xF41CB380C1C0612Cull},
    {"raidr_misbinning", 0xEB18E22701594F4Eull},
    {"raidr_savings", 0xA27DF139B4AC7DEAull},
    {"raidr_vs_mitigation", 0xC92AB453CEB6CD09ull},
    {"rank_interleaving", 0x6B607F7263283940ull},
    {"rowhammer_baseline", 0x26297656C3C21DA7ull},
    {"rowhammer_graphene", 0x58C1ADC7E933FD8Cull},
    {"rowhammer_para", 0x97C61FB1735CA39Aull},
    {"scrub_raidr", 0xD4EAED7D14A4DB4Eull},
    {"stream_sweep", 0x59D22BAE68461BAFull},
    {"table1_platforms", 0x0F61635A17B1D40Cull},
    {"validation_timescale", 0x76793482AB8533D5ull},
};

std::uint64_t scenario_hash(const char* name) {
  const Scenario* s = ScenarioRegistry::instance().find(name);
  EXPECT_NE(s, nullptr) << name;
  if (s == nullptr) return 0;
  RunOptions opts;
  opts.verbose = false;
  return fnv1a(run_scenario(*s, opts).dump_string());
}

class Digest : public ::testing::TestWithParam<GoldenEntry> {};

TEST_P(Digest, Matches) {
  const GoldenEntry& g = GetParam();
  const std::uint64_t h = scenario_hash(g.scenario);
  if (std::getenv("EASYDRAM_PRINT_GOLDEN") != nullptr) {
    printf("    {\"%s\", 0x%016llXull},\n", g.scenario,
           static_cast<unsigned long long>(h));
  }
  EXPECT_EQ(h, g.hash) << g.scenario
                       << ": scenario JSON changed. If intentional, rerun "
                          "with EASYDRAM_PRINT_GOLDEN=1 and update kGolden.";
}

INSTANTIATE_TEST_SUITE_P(Golden, Digest, ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<GoldenEntry>& info) {
                           return std::string(info.param.scenario);
                         });

/// Cross-thread determinism sweep: every multi-channel deterministic
/// scenario must emit a bit-identical `results` payload at any `--threads`
/// value. Only the `results` member is compared because the envelope
/// records the requested `threads` value verbatim.
TEST(GoldenHashTest, MultiChannelScenariosThreadCountInvariant) {
  const char* kMultiChannel[] = {"channel_scaling", "rank_interleaving"};
  for (const char* name : kMultiChannel) {
    const Scenario* s = ScenarioRegistry::instance().find(name);
    ASSERT_NE(s, nullptr) << name;
    RunOptions base;
    base.verbose = false;
    base.channels = 8;  // Widest sweep point: 8-channel systems.
    const std::string serial =
        run_scenario(*s, base)["results"].dump_string();
    for (const int threads : {2, 4}) {
      RunOptions opts = base;
      opts.threads = threads;
      EXPECT_EQ(run_scenario(*s, opts)["results"].dump_string(), serial)
          << name << " diverged at --threads " << threads;
    }
  }
}

/// Stream identity rides through the request table, completion ring, and
/// per-stream latency histograms — every one a candidate for
/// thread-count-dependent ordering. The QoS scenarios must stay
/// bit-identical at any `--threads` value, like everything else.
TEST(GoldenHashTest, QosScenariosThreadCountInvariant) {
  const char* kQos[] = {"qos_tenant_scaling", "qos_bank_partition"};
  for (const char* name : kQos) {
    const Scenario* s = ScenarioRegistry::instance().find(name);
    ASSERT_NE(s, nullptr) << name;
    RunOptions base;
    base.verbose = false;
    const std::string serial =
        run_scenario(*s, base)["results"].dump_string();
    {
      RunOptions opts = base;
      opts.threads = 4;
      EXPECT_EQ(run_scenario(*s, opts)["results"].dump_string(), serial)
          << name << " diverged at --threads 4";
    }
  }
}

/// The sweep scenarios shard iters x (kernel x size) tasks across the
/// sweep pool. Their bandwidth/latency curves (and so the monotonicity
/// booleans the curves feed) must be bit-identical at any `--threads`
/// value.
TEST(GoldenHashTest, StreamSweepScenariosThreadCountInvariant) {
  const char* kSweeps[] = {"stream_sweep", "latency_sweep"};
  for (const char* name : kSweeps) {
    const Scenario* s = ScenarioRegistry::instance().find(name);
    ASSERT_NE(s, nullptr) << name;
    RunOptions base;
    base.verbose = false;
    const std::string serial =
        run_scenario(*s, base)["results"].dump_string();
    {
      RunOptions opts = base;
      opts.threads = 4;
      EXPECT_EQ(run_scenario(*s, opts)["results"].dump_string(), serial)
          << name << " diverged at --threads 4";
    }
  }
}

/// Completeness: every registered scenario except fig14_sim_speed has
/// exactly one kGolden entry, no entry names a scenario the registry no
/// longer has, and the table stays sorted (the print workflow relies on
/// it). A new scenario forces a conscious decision about its determinism.
TEST(GoldenHashTest, EveryScenarioHasExactlyOneDigest) {
  const ScenarioRegistry& reg = ScenarioRegistry::instance();
  EXPECT_NE(reg.find("fig14_sim_speed"), nullptr);
  for (const Scenario& s : reg.all()) {
    if (s.name == "fig14_sim_speed") continue;
    const auto entries = std::count_if(
        std::begin(kGolden), std::end(kGolden),
        [&](const GoldenEntry& g) { return s.name == g.scenario; });
    EXPECT_EQ(entries, 1) << s.name << ": classify it in test_golden.cpp";
  }
  for (const GoldenEntry& g : kGolden) {
    EXPECT_NE(reg.find(g.scenario), nullptr)
        << g.scenario << ": stale kGolden entry";
  }
  EXPECT_TRUE(std::is_sorted(std::begin(kGolden), std::end(kGolden),
                             [](const GoldenEntry& a, const GoldenEntry& b) {
                               return std::string_view(a.scenario) < b.scenario;
                             }));
}

/// Bad command lines end in a usage error (exit 2) before any scenario
/// runs, never in a run or a ContractViolation from deep in the stack.
TEST(CliArgsTest, BadInputExitsWithUsageError) {
  const std::vector<std::vector<std::string>> kBadArgs = {
      {"--pump-workers", "2", "--scenario", "quickstart"},  // Removed flag.
      {"--perf"},                                           // Removed flag.
      {"--perf-reps", "3", "--scenario", "quickstart"},     // Removed flag.
      {"--threads", "0"},
      {"--channels", "65"},
      {"--sched", "nope"},
      {"--sched", "auto", "--scenario", "quickstart"},  // Removed token.
      {"--sched", "bliss", "--scenario", "quickstart"},  // Removed token.
      {"--sched", "parbs", "--scenario", "quickstart"},  // Removed token.
      {"--sched", "tcm", "--scenario", "quickstart"},    // Removed token.
      {"--iters"},
      {"--scenario", "nosuch"},
      {"--seed", "-5", "--scenario", "quickstart"},  // Would wrap.
      {"--seed", "99999999999999999999999", "--scenario",  // Overflow.
       "quickstart"},
      {"--seed", "9223372036854775808", "--scenario", "quickstart"},  // 2^63.
  };
  for (const auto& args : kBadArgs) {
    std::vector<std::string> storage{"easydram_cli", "--quiet"};
    storage.insert(storage.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : storage) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::string joined;
    for (const std::string& a : args) joined += " " + a;
    EXPECT_EQ(scenario_main(static_cast<int>(storage.size()), argv.data()), 2)
        << "easydram_cli" << joined;
  }
}

/// The largest accepted seed round-trips into the JSON envelope unchanged.
TEST(CliArgsTest, SeedAcceptsTheFullSignedRange) {
  const std::string out = testing::TempDir() + "cli_seed_max.json";
  std::vector<std::string> storage{"easydram_cli", "--quiet", "--seed",
                                   "9223372036854775807", "--scenario",
                                   "quickstart", "--out", out};
  std::vector<char*> argv;
  for (std::string& a : storage) argv.push_back(a.data());
  argv.push_back(nullptr);
  ASSERT_EQ(scenario_main(static_cast<int>(storage.size()), argv.data()), 0);
  std::ifstream in(out);
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::remove(out.c_str());
  EXPECT_NE(doc.find("\"seed\": 9223372036854775807"), std::string::npos)
      << doc;
}

/// A derived per-rep seed is a valid reproducer: it is in the range
/// `--seed` accepts, and running it as the base seed of a one-rep run
/// yields the same row.
TEST(CliArgsTest, PerRepSeedReproducesItsRow) {
  const Scenario* s = ScenarioRegistry::instance().find("quickstart");
  ASSERT_NE(s, nullptr);
  RunOptions opts;
  opts.verbose = false;
  opts.iters = 3;
  const Json three = run_scenario(*s, opts);
  const Json& reps = three.at("results").at("reps");
  ASSERT_EQ(reps.size(), 3u);
  for (std::size_t i = 0; i < reps.size(); ++i) {
    EXPECT_GE(reps.at(i).at("seed").as_int(), 0) << "rep " << i;
  }

  const std::string seed = std::to_string(reps.at(2).at("seed").as_int());
  const std::string out = testing::TempDir() + "cli_rep_seed.json";
  std::vector<std::string> storage{"easydram_cli", "--quiet",  "--seed",
                                   seed,           "--iters",  "1",
                                   "--scenario",   "quickstart", "--out",
                                   out};
  std::vector<char*> argv;
  for (std::string& a : storage) argv.push_back(a.data());
  argv.push_back(nullptr);
  ASSERT_EQ(scenario_main(static_cast<int>(storage.size()), argv.data()), 0)
      << "--seed " << seed << " rejected";
  std::ifstream in(out);
  const std::string doc((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::remove(out.c_str());

  opts.seed = std::stoull(seed);
  opts.iters = 1;
  const Json one = run_scenario(*s, opts);
  EXPECT_EQ(doc, one.dump_string());
  EXPECT_EQ(one.at("results").at("reps").at(0).dump_string(),
            reps.at(2).dump_string());
}

}  // namespace
}  // namespace easydram::cli
