// google-benchmark micro-benchmarks of the substrates: the numerical
// kernels (Brusselator RHS, scalar/block Newton, banded LU), the
// simulation kernel, the load-balancing primitives, and the runtime
// mailboxes. These bound the cost model constants used by the
// virtual-time engine (see NewtonOptions::check_cost).
#include <benchmark/benchmark.h>

#include <vector>

#include "des/simulator.hpp"
#include "lb/iterative_schemes.hpp"
#include "linalg/banded_matrix.hpp"
#include "linalg/stationary.hpp"
#include "ode/brusselator.hpp"
#include "ode/newton.hpp"
#include "ode/waveform_block.hpp"
#include "runtime/mailbox.hpp"
#include "util/rng.hpp"

namespace {

using namespace aiac;

void BM_BrusselatorRhsFull(benchmark::State& state) {
  ode::Brusselator::Params p;
  p.grid_points = static_cast<std::size_t>(state.range(0));
  const ode::Brusselator sys(p);
  std::vector<double> y(sys.dimension()), dydt(sys.dimension());
  sys.initial_state(y);
  for (auto _ : state) {
    sys.rhs_full(0.0, y, dydt);
    benchmark::DoNotOptimize(dydt.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sys.dimension()));
}
BENCHMARK(BM_BrusselatorRhsFull)->Arg(64)->Arg(512);

void BM_BandedLuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  linalg::BandedMatrix a(n, 2, 2);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = r > 2 ? r - 2 : 0; c <= std::min(n - 1, r + 2); ++c)
      a.ref(r, c) = r == c ? rng.uniform(4, 6) : rng.uniform(-1, 1);
  std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    linalg::BandedLu lu(a);
    auto x = b;
    lu.solve(x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_BandedLuSolve)->Arg(32)->Arg(256);

void BM_ScalarNewtonStep(benchmark::State& state) {
  ode::Brusselator::Params p;
  p.grid_points = 16;
  const ode::Brusselator sys(p);
  std::vector<double> y(sys.dimension());
  sys.initial_state(y);
  std::vector<double> window(sys.window_size());
  sys.extract_window(y, 5, window);
  for (auto _ : state) {
    const auto r =
        ode::scalar_implicit_euler_solve(sys, 5, window[2], window, 0.1, 0.1);
    benchmark::DoNotOptimize(r.value);
  }
}
BENCHMARK(BM_ScalarNewtonStep);

void BM_BlockNewtonStep(benchmark::State& state) {
  ode::Brusselator::Params p;
  p.grid_points = static_cast<std::size_t>(state.range(0));
  const ode::Brusselator sys(p);
  const std::size_t n = sys.dimension();
  std::vector<double> prev(n), ghost(2, 0.0);
  sys.initial_state(prev);
  for (auto _ : state) {
    auto next = prev;
    const auto r = ode::block_implicit_euler_step(sys, 0, prev, next, ghost,
                                                  ghost, 0.1, 0.1);
    benchmark::DoNotOptimize(r.newton_iterations);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BlockNewtonStep)->Arg(16)->Arg(128);

void BM_WaveformBlockIteration(benchmark::State& state) {
  ode::Brusselator::Params p;
  p.grid_points = 64;
  const ode::Brusselator sys(p);
  ode::WaveformBlockConfig config;
  config.first = 0;
  config.count = sys.dimension();
  config.num_steps = static_cast<std::size_t>(state.range(0));
  config.t_end = 1.0;
  ode::WaveformBlock block(sys, config);
  for (auto _ : state) {
    const auto stats = block.iterate();
    benchmark::DoNotOptimize(stats.work);
  }
}
BENCHMARK(BM_WaveformBlockIteration)->Arg(20)->Arg(100);

void BM_ConvergedIterationFastPath(benchmark::State& state) {
  // After convergence an iteration must be near-free (the fast path the
  // virtual-time cost model charges step_skip_cost for).
  ode::Brusselator::Params p;
  p.grid_points = 64;
  const ode::Brusselator sys(p);
  ode::WaveformBlockConfig config;
  config.first = 0;
  config.count = sys.dimension();
  config.num_steps = 50;
  config.t_end = 1.0;
  ode::WaveformBlock block(sys, config);
  while (block.iterate().residual > 1e-12) {
  }
  for (auto _ : state) {
    const auto stats = block.iterate();
    benchmark::DoNotOptimize(stats.work);
  }
}
BENCHMARK(BM_ConvergedIterationFastPath);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    des::Simulator sim;
    int counter = 0;
    for (std::uint32_t i = 0; i < 1000; ++i)
      sim.schedule_at(static_cast<double>(i), 0, i);
    sim.run([&counter](std::uint32_t, std::uint32_t) { ++counter; });
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

// The queue at a steady population of pending events (range 0), each
// executed event scheduling one successor. With range 1 set the delays
// are random (the virtual-time engine's shape at depth ~32); otherwise
// every successor lands after all pending events (a deep in-order
// schedule). Items are executed events, so ns/item is the queue's
// schedule + pop + dispatch cost at that depth.
void BM_SimulatorSteadyDepth(benchmark::State& state) {
  const auto depth = static_cast<std::uint32_t>(state.range(0));
  const bool random = state.range(1) != 0;
  util::Rng rng(3);
  std::vector<double> delays(4096);
  for (double& d : delays)
    d = random ? rng.uniform(0.0, 1.0) : static_cast<double>(depth);
  constexpr std::uint64_t kEvents = 100000;
  for (auto _ : state) {
    des::Simulator sim;
    std::size_t next = 0;
    for (std::uint32_t i = 0; i < depth; ++i)
      sim.schedule_at(random ? delays[next++ & 4095] : i, 0, i);
    std::uint64_t left = kEvents;
    sim.run([&](std::uint32_t kind, std::uint32_t arg) {
      if (left-- == 0) return sim.stop();
      sim.schedule_after(delays[next++ & 4095], kind, arg);
    });
    benchmark::DoNotOptimize(next);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kEvents));
}
BENCHMARK(BM_SimulatorSteadyDepth)->Args({32, 1})->Args({1000, 0});

void BM_MailboxPushPop(benchmark::State& state) {
  runtime::Mailbox<int> box;
  for (auto _ : state) {
    box.push(1);
    benchmark::DoNotOptimize(box.try_pop());
  }
}
BENCHMARK(BM_MailboxPushPop);

void BM_DiffusionSweep(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto graph = lb::ProcessorGraph::chain(nodes);
  util::Rng rng(2);
  std::vector<double> loads(nodes);
  for (auto& l : loads) l = rng.uniform(0, 100);
  for (auto _ : state) {
    loads = lb::diffusion_step(graph, loads, 0.25);
    benchmark::DoNotOptimize(loads.data());
  }
}
BENCHMARK(BM_DiffusionSweep)->Arg(16)->Arg(256);

void BM_JacobiSweepCsr(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = linalg::CsrMatrix::laplacian_1d(n, 2.5, -1.0);
  std::vector<double> b(n, 1.0), x0(n, 0.0);
  linalg::IterativeOptions opts;
  opts.max_iterations = 10;
  opts.tolerance = 0.0;
  for (auto _ : state) {
    const auto r = linalg::jacobi(a, b, x0, opts);
    benchmark::DoNotOptimize(r.residual);
  }
}
BENCHMARK(BM_JacobiSweepCsr)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
