#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "cpu/trace.hpp"

namespace easydram::workloads {

/// One PolyBench kernel expressed as a memory-trace generator.
///
/// Each generator reproduces the exact loop nest and array access pattern
/// of the PolyBench 4.2 kernel; dataset sizes are reduced from the paper's
/// "large" configuration so whole-suite runs finish in seconds. The
/// substitution preserves the loop structure and the relative memory
/// intensity spread across kernels, which is what the evaluation figures
/// depend on. Call generate_kernel rather than `generate` directly: it
/// pre-reserves the exact record count.
struct PolybenchKernel {
  std::string_view name;
  std::vector<cpu::TraceRecord> (*generate)();
};

/// All 28 kernels used by the §6 validation study.
std::span<const PolybenchKernel> all_kernels();

/// The kernel subset of Figs. 13/14.
std::span<const std::string_view> fig13_names();

/// Generates the trace of the named kernel. Throws ContractViolation for
/// unknown names.
std::vector<cpu::TraceRecord> generate_kernel(std::string_view name);

/// Exact record count of `name`'s generated trace (0 for unknown names):
/// the capacity generate_kernel pre-reserves. Pinned to the generators by
/// a test so the table cannot silently drift.
std::size_t kernel_record_count(std::string_view name);

}  // namespace easydram::workloads
