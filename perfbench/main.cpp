// End-to-end benchmark of the simulated and threaded backends.
//
//   perfbench --workload <sim-fig5|sim-newton|pool-intra2>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Sets the workload's inputs up from the seed, then runs closed-loop
// solves for the given number of seconds, checking every answer against
// the sequential reference. With --trace 0 every solve runs untraced and
// the end-to-end metrics are reported; with --trace 1 untraced and traced
// solves alternate and the per-layer metrics are reported, together with
// the tracing overhead between the two. The last line of standard output
// is one JSON object; the exit code is non-zero if any solve failed.
// See README.md in this directory for the metric definitions.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/wire.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace ode = aiac::ode;
namespace wire = aiac::net;

// Set-up runs at least this many times, and until it has taken this many
// seconds in all: a sub-millisecond set-up needs more samples for a
// steady median.
constexpr std::size_t kSetupRepeats = 9;
constexpr double kSetupMinS = 0.1;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have[2] = *end == '\0' && a.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
      have[3] = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  for (bool h : have)
    if (!h) usage("all four flags are required, with valid values");
  return a;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- Metrics -----------------------------------------------------------

struct Metric {
  const char* name;
  const char* unit;
  const char* better;
};

// End-to-end metrics, all measured from untraced solves.
constexpr Metric kEndToEnd[] = {
    {"solve_s", "s", "lower"},
    {"baseline_solve_s", "s", "lower"},
    {"setup_s", "s", "lower"},
    {"time_to_solution_s", "s", "lower"},
    {"speedup", "ratio", "higher"},
    {"peak_rss_mb", "MB", "lower"},
};

// Per-layer metrics, medians over the traced solves of a run.
constexpr Metric kPerLayer[] = {
    {"ode.calls", "count", "lower"},
    {"ode.busy_s", "s", "lower"},
    {"ode.newton_work", "work", "lower"},
    {"algo.iterations", "count", "lower"},
    {"algo.work_per_iteration", "work", "lower"},
    {"algo.data_frames", "count", "lower"},
    {"algo.control_frames", "count", "lower"},
    {"algo.control_per_data", "ratio", "lower"},
    {"lb.migrations", "count", "lower"},
    {"lb.components_migrated", "count", "lower"},
    {"lb.idle_frac", "ratio", "lower"},
    {"lb.imbalance", "ratio", "lower"},
    {"core.outside_ode_s", "s", "lower"},
    {"pool.parallel_eff", "ratio", "higher"},
    {"pool.busy_spread", "ratio", "lower"},
    {"net.wire_bytes", "B", "lower"},
    {"net.frames_full", "count", "lower"},
    {"net.frames_delta", "count", "higher"},
    {"net.rows_suppressed", "count", "higher"},
    {"net.delta_frac", "ratio", "higher"},
    {"net.bytes_per_frame", "B", "lower"},
    {"net.launch_s", "s", "lower"},
    {"net.codec_ns_full", "ns", "lower"},
    {"net.codec_ns_delta", "ns", "lower"},
    {"trace_overhead", "ratio", "lower"},
};

/// Metric values of one run; a name mapped to nullopt is absent: the
/// backend cannot supply it, which is different from measuring zero.
using Values = std::map<std::string, std::optional<double>>;

/// Per-layer values of one traced solve.
Values layer_values(const Workload& w, const Solve& s,
                    const aiac::trace::ExecutionTrace& trace,
                    const std::vector<LaneStats>& lanes) {
  const auto& r = s.result;
  Values v;
  // Totals over every lane; launch window and busy spread over the lanes
  // that evaluated the system inside the solve.
  double busy = 0.0, calls = 0.0;
  double first = 0.0, last = 0.0, min_busy = 0.0, max_busy = 0.0;
  bool any = false;
  for (const auto& lane : lanes) {
    calls += static_cast<double>(lane.calls);
    busy += lane.busy_s;
    if (!lane.solving) continue;
    first = any ? std::min(first, lane.first_s) : lane.first_s;
    last = any ? std::max(last, lane.last_s) : lane.last_s;
    min_busy = any ? std::min(min_busy, lane.busy_s) : lane.busy_s;
    max_busy = any ? std::max(max_busy, lane.busy_s) : lane.busy_s;
    any = true;
  }
  const double lane_seconds = static_cast<double>(w.lanes(w.main)) * s.wall_s;
  v["ode.calls"] = calls;
  v["ode.busy_s"] = busy;
  v["ode.newton_work"] = r.total_work;
  v["algo.iterations"] = static_cast<double>(r.total_iterations);
  v["algo.work_per_iteration"] =
      r.total_iterations > 0
          ? std::optional(r.total_work / static_cast<double>(r.total_iterations))
          : std::nullopt;
  v["algo.data_frames"] = static_cast<double>(r.data_messages);
  v["algo.control_frames"] = static_cast<double>(r.control_messages);
  v["algo.control_per_data"] =
      r.data_messages > 0 ? std::optional(static_cast<double>(r.control_messages) /
                                          static_cast<double>(r.data_messages))
                          : std::nullopt;
  v["lb.migrations"] = static_cast<double>(r.migrations);
  v["lb.components_migrated"] = static_cast<double>(r.components_migrated);

  // Per-rank busy time from the engine's iteration records (virtual time
  // on the simulator). The threaded engine records none, so there the two
  // balance metrics are absent.
  v["lb.idle_frac"] = std::nullopt;
  v["lb.imbalance"] = std::nullopt;
  if (!trace.iterations().empty() && trace.processor_count() > 0) {
    double sum = 0.0, peak = 0.0;
    for (std::size_t rank = 0; rank < trace.processor_count(); ++rank) {
      const double b = trace.busy_time(rank);
      sum += b;
      peak = std::max(peak, b);
    }
    const double mean = sum / static_cast<double>(trace.processor_count());
    v["lb.idle_frac"] = trace.mean_idle_fraction();
    if (mean > 0.0) v["lb.imbalance"] = peak / mean - 1.0;
  }

  v["core.outside_ode_s"] = lane_seconds - busy;
  v["pool.parallel_eff"] = lane_seconds > 0.0 ? busy / lane_seconds : 0.0;
  v["pool.busy_spread"] =
      min_busy > 0.0 ? std::optional(max_busy / min_busy) : std::nullopt;

  double full = 0, delta = 0, sent = 0, suppressed = 0, bytes = 0;
  for (const auto& c : trace.comms()) {
    full += static_cast<double>(c.frames_full);
    delta += static_cast<double>(c.frames_delta);
    sent += static_cast<double>(c.frames_sent);
    suppressed += static_cast<double>(c.rows_suppressed);
    bytes += static_cast<double>(c.bytes_sent);
  }
  v["net.wire_bytes"] = static_cast<double>(r.bytes_sent);
  v["net.frames_full"] = full;
  v["net.frames_delta"] = delta;
  v["net.rows_suppressed"] = suppressed;
  v["net.delta_frac"] =
      full + delta > 0 ? std::optional(delta / (full + delta)) : std::nullopt;
  v["net.bytes_per_frame"] =
      sent > 0 ? std::optional(bytes / sent) : std::nullopt;
  // Wall time of the solve call outside the window in which any lane was
  // computing: thread or process launch, mesh set-up, result assembly.
  v["net.launch_s"] = any ? std::optional(s.wall_s - (last - first))
                          : std::nullopt;
  return v;
}

// ---- Codec replay ----------------------------------------------------------

/// Nanoseconds per frame to encode a boundary frame (scatter-gather, CRC
/// computed), copy it into a receive buffer, extract it (CRC verified) and
/// decode it: both sides of the wire, as net::SocketTransport runs them.
/// `carried` < 0 replays a full frame, otherwise a delta frame carrying
/// that many rows.
double replay_codec_ns(std::size_t row_count, std::size_t points, int carried) {
  ode::BoundaryMessage full;
  full.global_first = 100;
  full.row_count = row_count;
  full.points = points;
  full.sender_iteration = 7;
  full.sender_components = 120;
  full.sender_residual = 3.5e-9;
  full.sender_load = 1.25;
  full.rows.resize(row_count * points);
  for (std::size_t i = 0; i < full.rows.size(); ++i)
    full.rows[i] = 1.0 + 1e-3 * static_cast<double>(i);
  ode::BoundaryDeltaMessage delta;
  if (carried >= 0) {
    delta.global_first = full.global_first;
    delta.row_count = row_count;
    delta.points = points;
    delta.sender_iteration = 8;
    delta.sender_components = full.sender_components;
    delta.sender_residual = full.sender_residual;
    delta.sender_load = full.sender_load;
    delta.base_epoch = 7;
    for (int r = 0; r < carried; ++r)
      delta.row_indices.push_back(static_cast<std::size_t>(r));
    delta.rows.assign(static_cast<std::size_t>(carried) * points, 2.0);
  }

  wire::FrameHeaderArray header{};
  std::vector<std::uint8_t> payload, rx;
  payload.reserve(1 << 16);
  rx.reserve(1 << 16);
  ode::BoundaryMessage inbox;
  ode::BoundaryDeltaMessage delta_inbox;
  const auto round_trip = [&] {
    payload.clear();
    if (carried < 0)
      wire::encode_boundary_sg(full, header, payload);
    else
      wire::encode_boundary_delta_sg(delta, header, payload);
    rx.assign(header.begin(), header.end());
    rx.insert(rx.end(), payload.begin(), payload.end());
    wire::FrameView view;
    if (wire::try_extract_frame(rx, view) != wire::DecodeStatus::kOk)
      throw std::runtime_error("codec replay: frame rejected");
    const bool decoded = carried < 0
                             ? wire::decode_boundary(view.payload, inbox)
                             : wire::decode_boundary_delta(view.payload, delta_inbox);
    if (!decoded) throw std::runtime_error("codec replay: decode failed");
  };
  for (int i = 0; i < 200; ++i) round_trip();  // warm the buffers
  std::vector<double> batches;
  constexpr int kFrames = 2000;
  for (int b = 0; b < 9; ++b) {
    const double t0 = now_s();
    for (int i = 0; i < kFrames; ++i) round_trip();
    batches.push_back((now_s() - t0) * 1e9 / kFrames);
  }
  return median(batches);
}

// ---- Host-speed calibration ----------------------------------------------
//
// The host's speed drifts: on the 4-vCPU VM the baseline was recorded on,
// every wall time of a run moved together by up to ~30% within twenty
// minutes, with nothing else running in the VM. A fixed kernel of the
// benchmark's own, timed on the benchmark's thread before every solve and
// set-up, follows that drift. The end-to-end wall times are scaled by
// kCalibrationReferenceS / (this run's median kernel time), so they read
// as seconds on the host at its reference speed. The kernel calls nothing
// in the program, so a change to the program moves those metrics in full.

/// Median kernel time on the host the baseline was recorded on.
constexpr double kCalibrationReferenceS = 2.0e-3;

/// Seconds one calibration kernel took: implicit Euler steps of a
/// tridiagonal reaction-diffusion system solved by the Thomas algorithm,
/// the mix of multiply-adds, divisions and dependent chains of the
/// solver's banded Newton steps, on data that stays in L1.
double calibration_kernel_s() {
  constexpr std::size_t kN = 512;
  constexpr int kSteps = 300;
  constexpr double kDiffusion = 0.4, kDt = 0.01;
  std::vector<double> u(kN), cp(kN), dp(kN);
  for (std::size_t i = 0; i < kN; ++i)
    u[i] = 1.0 + 0.5 * static_cast<double>(i % 7) / 7.0;
  const double t0 = now_s();
  for (int step = 0; step < kSteps; ++step) {
    // (1 + dt*(2D + k(u))) u_i - dt*D (u_{i-1} + u_{i+1}) = u_i + dt
    const double off = -kDt * kDiffusion;
    for (std::size_t i = 0; i < kN; ++i) {
      const double diag = 1.0 + kDt * (2.0 * kDiffusion + 0.5 * u[i] * u[i]);
      const double rhs = u[i] + kDt;
      const double denom = i == 0 ? diag : diag - off * cp[i - 1];
      cp[i] = off / denom;
      dp[i] = i == 0 ? rhs / denom : (rhs - off * dp[i - 1]) / denom;
    }
    u[kN - 1] = dp[kN - 1];
    for (std::size_t i = kN - 1; i-- > 0;) u[i] = dp[i] - cp[i] * u[i + 1];
  }
  const double elapsed = now_s() - t0;
  // Keep the result observable so the loops cannot be dropped.
  volatile double sink = u[kN / 2];
  (void)sink;
  return elapsed;
}

// ---- Output ----------------------------------------------------------------

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Values& values, const Metric* metrics,
                  std::size_t count) {
  // Human-readable lines first, every metric with unit and direction.
  for (std::size_t i = 0; i < count; ++i) {
    const auto& m = metrics[i];
    const auto& v = values.at(m.name);
    if (v)
      std::printf("  %-26s %16.6g %-6s (%s is better)\n", m.name, *v, m.unit,
                  m.better);
    else
      std::printf("  %-26s %16s %-6s (absent: this backend cannot supply it)\n",
                  m.name, "absent", m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < count; ++i) {
    const auto& m = metrics[i];
    const auto& v = values.at(m.name);
    // The result format takes a number for every metric: an absent one is
    // written as -1, which no metric here can measure.
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name, v ? *v : -1.0, m.unit);
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload);
  const double t_start = now_s();
  std::printf("workload %s  seed %llu  %s  %.0f s\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced", args.seconds);

  // Set-up, repeated: the median is reported, the last inputs are used.
  std::vector<double> setup_times, calibration;
  Inputs inputs;
  double setup_total = 0.0;
  while (setup_times.size() < kSetupRepeats || setup_total < kSetupMinS) {
    // Calibrate the first few only, so the set-up phase does not
    // outweigh the solves' samples.
    if (setup_times.size() < kSetupRepeats)
      calibration.push_back(calibration_kernel_s());
    const double t0 = now_s();
    inputs = make_inputs(w, args.seed);
    setup_times.push_back(now_s() - t0);
    setup_total += setup_times.back();
  }

  std::size_t attempted = 0, failed = 0;
  double worst_error = 0.0;
  const auto checked = [&](Solve s) {
    ++attempted;
    worst_error = std::max(worst_error, s.error);
    if (!s.ok) {
      ++failed;
      // The engine's own audit of the residual at the halt decision tells
      // a premature halt (residual above tolerance) from a wrong answer.
      std::fprintf(stderr,
                   "FAILED solve: converged=%d error=%.3e wall=%.3fs "
                   "halt residual=%.3e %s\n",
                   s.result.converged ? 1 : 0, s.error, s.wall_s,
                   s.result.detection_max_residual,
                   s.result.failure_reason.c_str());
    }
    return s;
  };

  std::optional<OdeProbe> probe;
  if (args.trace) probe.emplace();

  // Warm-up pair (checked, not timed into the metrics): first-touch page
  // faults and lazily grown buffers land here, not in the first sample.
  checked(run_solve(w, w.main, inputs, 0, inputs.problem(0), nullptr));
  checked(run_solve(w, w.baseline, inputs, 0, inputs.problem(0), nullptr));

  std::vector<double> main_wall, base_wall, main_time, base_time, traced_wall;
  std::vector<Values> layers;
  const double deadline = now_s() + args.seconds;
  const std::size_t fixed = args.trace ? 0 : w.fixed_inputs;
  for (std::size_t i = 0; now_s() < deadline || i < fixed; ++i) {
    const auto& problem = inputs.problem(i);
    calibration.push_back(calibration_kernel_s());
    const Solve m = checked(run_solve(w, w.main, inputs, i, problem, nullptr));
    main_wall.push_back(m.wall_s);
    main_time.push_back(m.result.execution_time);
    if (!args.trace) {
      const Solve b =
          checked(run_solve(w, w.baseline, inputs, i, problem, nullptr));
      base_wall.push_back(b.wall_s);
      base_time.push_back(b.result.execution_time);
      continue;
    }
    aiac::trace::ExecutionTrace trace;
    probe->begin(problem);
    const Solve t = checked(run_solve(w, w.main, inputs, i, *probe, &trace));
    traced_wall.push_back(t.wall_s);
    layers.push_back(layer_values(w, t, trace, probe->lanes()));
  }

  Values values;
  std::printf("%zu main solves, worst error %.3e (bound %.1e), %.1f s total\n",
              main_wall.size(), worst_error, w.error_bound, now_s() - t_start);
  if (!args.trace) {
    // A fixed-input workload averages over the seed's fixed input set, as
    // the paper averages its series. Its unbalanced solve times spread
    // widely with the grids' load (a third of their mean), and the median
    // of such a set moves more from seed to seed than the mean does.
    // Elsewhere the median keeps a preempted solve from moving a metric.
    if (fixed > 0)
      for (auto* v : {&main_wall, &base_wall, &main_time, &base_time})
        v->resize(fixed);
    const auto center = [&](const std::vector<double>& v) {
      return fixed > 0 ? mean(v) : median(v);
    };
    const double host = kCalibrationReferenceS / median(calibration);
    std::printf("calibration kernel %.6g s (reference %.6g s), wall times "
                "scaled by %.4f; unscaled: solve %.6g s, baseline %.6g s, "
                "set-up %.6g s\n",
                median(calibration), kCalibrationReferenceS, host,
                center(main_wall), center(base_wall), median(setup_times));
    values["solve_s"] = center(main_wall) * host;
    values["baseline_solve_s"] = center(base_wall) * host;
    values["setup_s"] = median(setup_times) * host;
    // Virtual time on the simulator, wall time on the threaded backend.
    values["time_to_solution_s"] =
        center(main_time) * (w.backend == Backend::kSim ? 1.0 : host);
    values["speedup"] = center(base_time) / center(main_time);
    values["peak_rss_mb"] = peak_rss_mb();
    // The tail is printed, not gated: on a shared host it follows the
    // host's preemption spells more than the program (README.md).
    std::printf("solve_s tail p%.0f of %zu solves: %.6g s; main %s, "
                "baseline %s\n",
                100.0 * w.tail_quantile, main_wall.size(),
                quantile(main_wall, w.tail_quantile), w.main.label.c_str(),
                w.baseline.label.c_str());
    print_result(failed == 0, attempted, failed, values, kEndToEnd,
                 std::size(kEndToEnd));
    return failed == 0 ? 0 : 1;
  }

  for (const auto& metric : kPerLayer) {
    std::vector<double> samples;
    for (const auto& l : layers) {
      const auto it = l.find(metric.name);
      if (it != l.end() && it->second) samples.push_back(*it->second);
    }
    values[metric.name] =
        samples.empty() ? std::nullopt : std::optional(median(samples));
  }
  values["trace_overhead"] = median(traced_wall) / median(main_wall) - 1.0;
  // Codec replay at this workload's frame shape: the ghost rows of one
  // link over the whole time grid; the delta carries the mean number of
  // rows the traced solves' deltas carried (none on a quiet link).
  const auto& sys = inputs.problem(0);
  const std::size_t rows = sys.stencil_halfwidth();
  const std::size_t points = w.main.config.num_steps + 1;
  const double deltas = values["net.frames_delta"].value_or(0.0);
  const double carried =
      deltas > 0.0 ? static_cast<double>(rows) -
                         values["net.rows_suppressed"].value_or(0.0) / deltas
                   : 0.0;
  values["net.codec_ns_full"] = replay_codec_ns(rows, points, -1);
  values["net.codec_ns_delta"] = replay_codec_ns(
      rows, points, static_cast<int>(std::lround(std::max(carried, 0.0))));
  print_result(failed == 0, attempted, failed, values, kPerLayer,
               std::size(kPerLayer));
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    make_workload(args.workload);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
