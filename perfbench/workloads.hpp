// The benchmark's workloads: what each one solves, on which backend,
// and how a seed turns into the inputs the program receives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "ode/brusselator.hpp"
#include "ode/trajectory.hpp"
#include "trace/execution_trace.hpp"

namespace perfbench {

enum class Backend { kSim, kThread };

/// One engine configuration a workload times: its main configuration or
/// the paired reference it is compared against.
struct Variant {
  std::string label;
  aiac::core::EngineConfig config;
  std::size_t processors = 1;
};

struct Workload {
  /// Compute threads a variant occupies: processors x intra threads on the
  /// threaded backend, 1 for the single-threaded simulator.
  std::size_t lanes(const Variant& v) const {
    return backend == Backend::kSim ? 1 : v.processors * v.config.intra_threads;
  }

  std::string name;
  Backend backend = Backend::kSim;
  Variant main;
  Variant baseline;
  /// Inputs drawn per run; solves cycle through them.
  std::size_t instances = 1;
  /// When non-zero, an untraced run solves at least this many inputs,
  /// even past --seconds, and the end-to-end metrics average exactly
  /// these: they then depend on the seed alone, not on the host's speed.
  std::size_t fixed_inputs = 0;
  /// Max-norm bound on |solve - sequential reference| for a correct solve.
  double error_bound = 0.0;
  /// A solve slower than this (wall seconds) counts as failed.
  double deadline_s = 0.0;
  /// Quantile of the main solve times printed as the tail: the highest
  /// one that leaves at least ten main solves beyond it in a normal run.
  double tail_quantile = 0.5;
};

/// sim-fig5, sim-newton or pool-intra2; throws
/// std::invalid_argument for any other name.
Workload make_workload(const std::string& name);

/// The inputs of one run, all derived from the seed: Brusselator
/// instances (one per input, or one shared by all on sim-fig5), their
/// sequential reference solutions, and on sim-fig5 the seeds of the
/// grids' machine-load traces.
struct Inputs {
  std::vector<aiac::ode::Brusselator> problems;
  std::vector<aiac::ode::Trajectory> references;
  std::vector<std::uint64_t> grid_seeds;

  const aiac::ode::Brusselator& problem(std::size_t i) const {
    return problems[i % problems.size()];
  }
  const aiac::ode::Trajectory& reference(std::size_t i) const {
    return references[i % references.size()];
  }
};

/// Everything before the first solve can begin: the benchmark's set-up.
Inputs make_inputs(const Workload& workload, std::uint64_t seed);

struct Solve {
  aiac::core::EngineResult result;
  double wall_s = 0.0;
  double error = 0.0;  // max-norm distance to the reference
  bool ok = false;     // converged, within error_bound and deadline
};

/// Runs input `i` of `inputs` in `variant` through the workload's
/// backend entry point (core::run_simulated or core::run_threaded) and
/// checks the answer. `system` is the problem itself
/// or a probe wrapping it; `trace` is null for untraced solves.
Solve run_solve(const Workload& workload, const Variant& variant,
                const Inputs& inputs, std::size_t i,
                const aiac::ode::OdeSystem& system,
                aiac::trace::ExecutionTrace* trace);

}  // namespace perfbench
