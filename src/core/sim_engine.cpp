#include "core/sim_engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include <thread>

#include "algo/detection.hpp"
#include "algo/processor_core.hpp"
#include "algo/runtime_ifaces.hpp"
#include "algo/trace_sink.hpp"
#include "des/simulator.hpp"
#include "ode/boundary_delta.hpp"
#include "trace/execution_trace.hpp"
#include "runtime/worker_pool.hpp"
#include "util/log.hpp"

namespace aiac::core {

namespace {

using algo::Side;

/// The discrete-event driver: all algorithm state lives in the shared
/// algo::ProcessorCore / DetectionProtocol; this class only schedules
/// events, models message latency and computation duration on the grid,
/// and keeps the per-processor execution flags (computing / waiting /
/// dormant / halted) the event loop needs.
class SimEngine final : public algo::Transport,
                        public algo::ClockModel,
                        public algo::DetectionDriver {
 public:
  SimEngine(const ode::OdeSystem& system, grid::Grid& grid,
            const EngineConfig& config, trace::ExecutionTrace* trace)
      : system_(system), grid_(grid), config_(config), trace_(trace) {
    const std::size_t nprocs = grid.process_count();
    if (nprocs == 0) throw std::invalid_argument("SimEngine: no processors");

    algo::FleetConfig fc;
    fc.processors = nprocs;
    fc.partition = config.initial_partition;
    fc.speeds = config.processor_speeds;
    if (fc.speeds.empty() &&
        config.initial_partition == InitialPartition::kSpeedWeighted) {
      fc.speeds.resize(nprocs);
      for (std::size_t p = 0; p < nprocs; ++p)
        fc.speeds[p] = grid.machine_of(p).peak_speed();
    }
    fc.num_steps = config.num_steps;
    fc.t_end = config.t_end;
    fc.solve_mode = config.solve_mode;
    fc.newton = config.newton;
    fc.receive_filter = config.tolerance * config.receive_filter_factor;
    fc.tolerance = config.tolerance;
    fc.persistence = config.persistence;
    fc.estimator = config.estimator;
    fc.balancer = config.balancer;
    fc.intra_chunks = config.intra_threads;
    fleet_ = std::make_unique<algo::CoreFleet>(system, fc);

    // Intra-processor parallelism: the event loop runs one core at a
    // time on this thread, so a single shared pool serves every core's
    // chunk job. Workers are capped at hardware_concurrency - 1 (the
    // dispatching thread participates); when the cap leaves no room the
    // chunks run inline with identical results.
    if (config.intra_threads > 1) {
      const std::size_t hw = std::max<std::size_t>(
          1, std::thread::hardware_concurrency());
      const std::size_t workers =
          std::min(config.intra_threads - 1, hw - 1);
      if (workers > 0) {
        intra_pool_ = std::make_unique<runtime::WorkerPool>(workers);
        for (std::size_t p = 0; p < nprocs; ++p)
          fleet_->core(p).set_worker_pool(intra_pool_.get());
      }
    }

    procs_.resize(nprocs);
    // Wire-equivalent byte accounting (DESIGN.md §14): one planner per
    // directed link, identical to the socket backend's, so the byte
    // counters and the trace charge the size a delta-capable wire would
    // carry. The delay model and the delivered values stay on the full
    // message — virtual-time results are unchanged by the metric.
    if (config.delta_boundaries) {
      const ode::BoundaryDeltaSender::Config dc{
          config.tolerance * config.delta_threshold_factor,
          config.delta_refresh_period};
      delta_to_left_.assign(nprocs, ode::BoundaryDeltaSender(dc));
      delta_to_right_.assign(nprocs, ode::BoundaryDeltaSender(dc));
    }
    comms_to_left_.resize(nprocs);
    comms_to_right_.resize(nprocs);
    for (std::size_t p = 0; p < nprocs; ++p) {
      comms_to_left_[p].src = p;
      comms_to_left_[p].dst = p > 0 ? p - 1 : p;
      comms_to_right_[p].src = p;
      comms_to_right_[p].dst = p + 1 < nprocs ? p + 1 : p;
    }
    lb_link_busy_.assign(nprocs > 0 ? nprocs - 1 : 0, false);
    lb_link_inflight_.resize(nprocs > 0 ? nprocs - 1 : 0);
    link_clear_.assign(nprocs > 0 ? nprocs - 1 : 0, {0.0, 0.0});
    protocol_ = std::make_unique<algo::DetectionProtocol>(
        config.detection, nprocs, *this, *this);
    if (trace_) trace_->set_processor_count(nprocs);
  }

  EngineResult run() {
    for (std::size_t p = 0; p < procs_.size(); ++p) try_start(p);
    sim_.run([this](std::uint32_t kind, std::uint32_t arg) {
               on_event(static_cast<EventKind>(kind), arg);
             },
             /*max_events=*/200'000'000ULL);
    return assemble_result();
  }

  // ---- algo::ClockModel ---------------------------------------------

  double now() const override { return sim_.now(); }

  double work_to_seconds(std::size_t rank, double work, double start,
                         double resident) override {
    return grid_.compute_duration(rank, work, start, resident);
  }

  // ---- algo::Transport ----------------------------------------------

  /// The Transport entry for a caller-built message (ProcessorCore::
  /// emit_boundaries). The engine's own iteration path fills its slots in
  /// place instead (emit_boundaries below); both schedule alike.
  void send_boundary(std::size_t src, Side toward,
                     ode::BoundaryMessage msg) override {
    const std::size_t slot = acquire_slot(src, toward);
    slots_[slot].msg = std::move(msg);
    schedule_departure(slot);
  }

  void send_migration(std::size_t src, Side toward,
                      ode::MigrationPayload payload) override {
    const bool to_left = toward == Side::kLeft;
    const std::size_t dst = to_left ? src - 1 : src + 1;
    const std::size_t link = to_left ? src - 1 : src;
    const std::size_t amount = payload.owned_count;
    const double now_ = sim_.now();
    const double delay =
        grid_.message_delay(src, dst, payload.byte_size(), now_);
    const double arrival = link_delivery_time(src, dst, now_ + delay);
    algo::emit_message(trace_, src, dst, now_, arrival,
                       payload.byte_size(), trace::MessageKind::kLoadBalance);
    algo::emit_migration(trace_, src, dst, now_, amount);
    AIAC_DEBUG("lb") << "t=" << now_ << " proc " << src << " sends " << amount
                     << " components " << (to_left ? "left" : "right");

    // The payload waits on its link until it arrives (recoverable if we
    // stop mid-flight); lb_link_busy_ keeps one migration per link.
    lb_link_inflight_[link] = std::move(payload);
    schedule(arrival, EventKind::kMigrationArrival, link);
  }

  void post_control(std::size_t src, std::size_t dst,
                    std::function<void()> deliver) override {
    const double now_ = sim_.now();
    const double delay =
        src == dst
            ? 0.0
            : grid_.message_delay(src, dst, config_.control_message_bytes,
                                  now_);
    ++result_control_messages_;
    result_bytes_ += config_.control_message_bytes;
    if (src != dst)
      algo::emit_message(trace_, src, dst, now_, now_ + delay,
                         config_.control_message_bytes,
                         trace::MessageKind::kControl);
    const std::size_t slot = acquire_control_slot();
    control_[slot] = std::move(deliver);
    schedule(now_ + delay, EventKind::kControl, slot);
  }

  // ---- algo::DetectionDriver ----------------------------------------

  bool locally_converged(std::size_t rank) const override {
    return fleet_->core(rank).locally_converged();
  }

  bool node_idle(std::size_t rank) const override {
    return !procs_[rank].computing;
  }

  /// Coordinator verification: a node confirms only when nothing it has
  /// buffered could break its convergence report — no queued migration,
  /// and no delivered-but-unfolded boundary update that differs from the
  /// stored ghosts by more than the tolerance. Steady-state traffic
  /// (updates within tolerance of what the streak was built on) does not
  /// veto, so nodes that keep exchanging converged values can still halt.
  /// In-flight messages stay invisible, as for a real process; the
  /// verification round-trip is what makes winning that race unlikely.
  bool confirm_converged(std::size_t rank) const override {
    const algo::ProcessorCore& core = fleet_->core(rank);
    return core.locally_converged() && !core.has_pending_migrations() &&
           core.pending_input_disturbance() <= config_.tolerance;
  }

  void broadcast_halt() override {
    // The protocol guaranteed persistent local convergence, not interface
    // consistency; record what actually held at the halt instant.
    record_detection_audit();
    const double now_ = sim_.now();
    for (std::size_t p = 0; p < procs_.size(); ++p) {
      const double delay =
          p == 0 ? 0.0
                 : grid_.message_delay(0, p, config_.control_message_bytes,
                                       now_);
      ++result_control_messages_;
      result_bytes_ += config_.control_message_bytes;
      schedule(now_ + delay, EventKind::kHaltNotice, p);
    }
  }

 private:
  /// What a simulator event record means; its arg is the index named.
  enum class EventKind : std::uint32_t {
    kStart,             // rank: begin the next iteration
    kFinish,            // rank: the iteration in flight completes
    kDepart,            // boundary slot: the message leaves its sender
    kDeliver,           // boundary slot: the message reaches its receiver
    kMigrationArrival,  // link: lb_link_inflight_[link] arrives
    kHaltNotice,        // rank: the halt broadcast reaches it
    kControl,           // control slot: run the posted delivery
  };

  void schedule(double t, EventKind kind, std::size_t index) {
    sim_.schedule_at(t, static_cast<std::uint32_t>(kind),
                     static_cast<std::uint32_t>(index));
  }

  /// The one dispatch point of the event loop.
  void on_event(EventKind kind, std::size_t index) {
    switch (kind) {
      case EventKind::kStart: return start_iteration(index);
      case EventKind::kFinish: return finish_iteration(index);
      case EventKind::kDepart: return dispatch_boundary(index);
      case EventKind::kDeliver: return deliver_boundary(index);
      case EventKind::kMigrationArrival: return arrive_migration(index);
      case EventKind::kHaltNotice: return receive_halt(index);
      case EventKind::kControl: return deliver_control(index);
    }
  }

  void arrive_migration(std::size_t link) {
    if (stopped_) return;
    ode::MigrationPayload payload = std::move(*lb_link_inflight_[link]);
    lb_link_inflight_[link].reset();
    const bool to_left =
        payload.direction == ode::MigrationPayload::Direction::kToLeft;
    const std::size_t dst = to_left ? link : link + 1;
    fleet_->core(dst).enqueue_migration(to_left ? Side::kRight : Side::kLeft,
                                        std::move(payload));
    // The link stays busy until the receiver absorbs the payload at its
    // next iteration start, which serializes migrations per link.
    if (procs_[dst].waiting || procs_[dst].dormant) try_start(dst);
  }

  void receive_halt(std::size_t p) {
    procs_[p].halted = true;
    if (std::all_of(procs_.begin(), procs_.end(),
                    [](const Proc& q) { return q.halted; }))
      stop_all(/*converged=*/true);
  }

  void deliver_control(std::size_t slot) {
    // Moved out first: the delivery may post further control messages,
    // which can grow the table.
    std::function<void()> deliver = std::move(control_[slot]);
    control_[slot] = nullptr;
    release_control_slot(slot);
    if (stopped_) return;
    deliver();
  }

  /// A free control slot; the table grows only while the number of
  /// control messages in flight reaches a new high.
  std::size_t acquire_control_slot() {
    if (free_control_.empty()) {
      free_control_.push_back(control_.size());
      control_.emplace_back();
    }
    const std::size_t slot = free_control_.back();
    free_control_.pop_back();
    return slot;
  }

  void release_control_slot(std::size_t slot) {
    free_control_.push_back(slot);
  }

  /// Driver-side execution state; everything algorithmic is in the core.
  struct Proc {
    bool computing = false;
    bool waiting = false;  // sync schemes: blocked on neighbor data
    bool halted = false;

    // Mutual exclusion on data sends (paper's AIAC variant, Fig. 4).
    bool send_left_busy = false;
    bool send_right_busy = false;
    // A send skipped because the link was busy; retried when it clears
    // (the spinning loop of the real runtime would retry likewise).
    bool send_left_pending = false;
    bool send_right_pending = false;

    /// Event-driven idling: an AIAC processor whose iteration changed
    /// nothing and whose inbox is empty sleeps until the next message
    /// (iterating on unchanged data is a no-op; the paper's runtime spins
    /// through such iterations, with identical observable behaviour).
    bool dormant = false;

    /// The iteration in flight (computing == true), kept here until its
    /// finish event so the event captures only the rank.
    ode::WaveformBlock::IterationStats stats;
    double t_start = 0.0;
    std::size_t components = 0;
  };

  /// One boundary message from its send to its delivery (or its drop).
  struct BoundarySlot {
    ode::BoundaryMessage msg;
    std::size_t src = 0;
    std::size_t dst = 0;
    bool to_left = false;
  };

  bool ready_to_start(std::size_t p) const {
    if (config_.scheme == Scheme::kAIAC) return true;
    // Sync schemes: need both neighbors' data from our completed-iteration
    // count before starting the next one (iteration 1 needs nothing:
    // initial ghosts are the initial condition).
    const algo::ProcessorCore& core = fleet_->core(p);
    if (core.iteration() == 0) return true;
    if (core.has_neighbor(Side::kLeft) &&
        core.data_iteration(Side::kLeft) < core.iteration())
      return false;
    if (core.has_neighbor(Side::kRight) &&
        core.data_iteration(Side::kRight) < core.iteration())
      return false;
    return true;
  }

  void try_start(std::size_t p) {
    Proc& proc = procs_[p];
    if (proc.computing || proc.halted || stopped_) return;
    proc.dormant = false;
    if (!ready_to_start(p)) {
      proc.waiting = true;
      return;
    }
    proc.waiting = false;
    proc.computing = true;
    schedule(sim_.now(), EventKind::kStart, p);
  }

  void start_iteration(std::size_t p) {
    Proc& proc = procs_[p];
    if (proc.halted || stopped_) {
      proc.computing = false;
      return;
    }
    const double t_start = sim_.now();
    algo::ProcessorCore& core = fleet_->core(p);

    const auto begin = core.begin_iteration();
    if (begin.absorbed_from_left) lb_link_busy_[p - 1] = false;
    if (begin.absorbed_from_right) lb_link_busy_[p] = false;

    // The real numerics. Conceptually they occupy the virtual interval
    // [t_start, t_start + duration); messages delivered inside that window
    // are only visible to the *next* iteration, which is why the core
    // buffers them in its inbox rather than applying them directly.
    const std::size_t components = core.components();
    const auto stats = core.run_iteration();
    const double work = stats.work + config_.iteration_overhead_work;
    const double duration =
        work_to_seconds(p, work, t_start, static_cast<double>(components));

    // Stage the scheme's departure times, then let the core hand its
    // freshly stamped boundary data to the transport.
    const bool early = config_.scheme != Scheme::kSISC;
    staged_left_depart_ =
        t_start + (early ? config_.early_send_fraction * duration : duration);
    staged_right_depart_ = t_start + duration;
    emit_boundaries(p);

    proc.stats = stats;
    proc.t_start = t_start;
    proc.components = components;
    schedule(t_start + duration, EventKind::kFinish, p);
  }

  // ---- Boundary message slots ---------------------------------------
  //
  // Every boundary message in flight lives in a recycled slot from its
  // send to its delivery, and the events name it by index. The rows keep
  // their capacity across reuse, so the steady-state message path
  // allocates nothing.

  /// A free slot addressed src -> its `toward` neighbor. The table grows
  /// only while the number of messages in flight reaches a new high.
  std::size_t acquire_slot(std::size_t src, Side toward) {
    if (free_slots_.empty()) {
      free_slots_.push_back(slots_.size());
      slots_.emplace_back();
    }
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();
    BoundarySlot& s = slots_[slot];
    s.src = src;
    s.to_left = toward == Side::kLeft;
    s.dst = s.to_left ? src - 1 : src + 1;
    return slot;
  }

  void release_slot(std::size_t slot) { free_slots_.push_back(slot); }

  /// The core's boundary rows for each neighbor, filled into slots right
  /// after the numerics ran at virtual time t_start; the staged departure
  /// times implement the scheme's send discipline (SIAC/AIAC dispatch the
  /// leftward data early in the iteration, paper Fig. 2-4; SISC sends
  /// everything at the end).
  void emit_boundaries(std::size_t p) {
    const algo::ProcessorCore& core = fleet_->core(p);
    for (const Side side : {Side::kLeft, Side::kRight}) {
      if (!core.has_neighbor(side)) continue;
      const std::size_t slot = acquire_slot(p, side);
      core.fill_boundary(side, slots_[slot].msg);
      schedule_departure(slot);
    }
  }

  void schedule_departure(std::size_t slot) {
    const double depart =
        slots_[slot].to_left ? staged_left_depart_ : staged_right_depart_;
    schedule(depart, EventKind::kDepart, slot);
  }

  /// Per-directed-link FIFO: the grid's data channels are TCP streams, so
  /// a later send never overtakes an earlier one — even when the delay
  /// model says a small frame travels faster than the big one ahead of
  /// it. Without this clamp a boundary update could overtake a migration
  /// (or be overtaken by one), get dropped by the receiver's position
  /// check, and never be resent; a sender that then goes dormant leaves
  /// the fleet to halt on a stale interface no local test can see.
  double link_delivery_time(std::size_t src, std::size_t dst, double eta) {
    double& clear = link_clear_[std::min(src, dst)][src < dst ? 0 : 1];
    const double arrival = std::max(eta, clear);
    clear = arrival;
    return arrival;
  }

  void dispatch_boundary(std::size_t slot) {
    if (stopped_) return release_slot(slot);
    const BoundarySlot& out = slots_[slot];
    const std::size_t src = out.src;
    const std::size_t dst = out.dst;
    const bool to_left = out.to_left;
    const ode::BoundaryMessage& msg = out.msg;
    Proc& sender = procs_[src];
    // AIAC mutual exclusion: skip this send if the previous one on the
    // same link has not completed yet (paper Fig. 4 dashed lines).
    bool& busy = to_left ? sender.send_left_busy : sender.send_right_busy;
    if (config_.scheme == Scheme::kAIAC && busy) {
      // Remember to retry when the link clears, so a processor that goes
      // idle afterwards still propagates its final values.
      (to_left ? sender.send_left_pending : sender.send_right_pending) = true;
      return release_slot(slot);
    }
    busy = true;
    const double sent = sim_.now();
    // The delay model stays on the full message size so virtual-time
    // results are comparable across configurations; the counters and the
    // trace charge what the delta-capable wire would have carried, and
    // the receiver always gets the full-precision values.
    const double delay = grid_.message_delay(src, dst, msg.byte_size(), sent);
    const double arrival = link_delivery_time(src, dst, sent + delay);
    std::size_t wire_bytes = msg.byte_size();
    bool full = true;
    if (config_.delta_boundaries) {
      ode::BoundaryDeltaSender& planner =
          to_left ? delta_to_left_[src] : delta_to_right_[src];
      if (planner.plan(msg, delta_scratch_) ==
          ode::BoundaryDeltaSender::Plan::kDelta) {
        wire_bytes = delta_scratch_.byte_size();
        full = false;
      }
    }
    trace::CommsRecord& comms =
        to_left ? comms_to_left_[src] : comms_to_right_[src];
    ++comms.frames_sent;
    if (full)
      ++comms.frames_full;
    else
      ++comms.frames_delta;
    comms.bytes_sent += wire_bytes;
    ++result_data_messages_;
    result_bytes_ += wire_bytes;
    algo::emit_message(trace_, src, dst, sent, arrival, wire_bytes,
                       trace::MessageKind::kBoundaryData);
    schedule(arrival, EventKind::kDeliver, slot);
  }

  void deliver_boundary(std::size_t slot) {
    const std::size_t src = slots_[slot].src;
    const std::size_t dst = slots_[slot].dst;
    const bool to_left = slots_[slot].to_left;
    Proc& sender = procs_[src];
    (to_left ? sender.send_left_busy : sender.send_right_busy) = false;
    if (stopped_) return release_slot(slot);
    bool& pending =
        to_left ? sender.send_left_pending : sender.send_right_pending;
    if (pending) {
      pending = false;
      const Side side = to_left ? Side::kLeft : Side::kRight;
      const std::size_t fresh = acquire_slot(src, side);
      fleet_->core(src).fill_boundary(side, slots_[fresh].msg);
      dispatch_boundary(fresh);
    }
    // src = dst + 1 when to_left: the receiver gets data from its right.
    fleet_->core(dst).ingest_boundary(to_left ? Side::kRight : Side::kLeft,
                                      slots_[slot].msg);
    release_slot(slot);
    if (procs_[dst].waiting || procs_[dst].dormant) try_start(dst);
  }

  void finish_iteration(std::size_t p) {
    Proc& proc = procs_[p];
    proc.computing = false;
    if (stopped_) return;
    const ode::WaveformBlock::IterationStats& stats = proc.stats;
    const double t_start = proc.t_start;
    algo::ProcessorCore& core = fleet_->core(p);
    core.finish_iteration(stats, t_start, *this);
    const double now_ = sim_.now();
    algo::emit_iteration(trace_, p, core.iteration(), t_start, now_,
                         stats.work, stats.residual, proc.components);

    if (core.iteration() >= config_.max_iterations_per_processor ||
        now_ >= config_.max_virtual_time) {
      stop_all(/*converged=*/false);
      return;
    }

    if (config_.load_balancing) try_load_balance(p);

    if (config_.detection == DetectionMode::kOracle) {
      const auto snap =
          algo::oracle_probe(*fleet_, lb_in_flight(), config_.tolerance);
      if (snap.converged) {
        detection_gap_ = snap.max_gap;
        detection_max_residual_ = snap.max_residual;
        stop_all(/*converged=*/true);
        return;
      }
    } else {
      protocol_->on_iteration_end(p);
    }

    // Event-driven idling: nothing changed and nothing new arrived — sleep
    // until the next message instead of spinning through no-op iterations.
    const bool no_progress =
        stats.residual == 0.0 && stats.newton_iterations == 0;
    if (config_.scheme == Scheme::kAIAC && config_.event_driven_idle &&
        no_progress && core.inputs_quiescent() && core.locally_converged()) {
      proc.dormant = true;
      return;
    }

    try_start(p);
    // A sync-scheme neighbor may have been waiting for this iteration's
    // data; its start is triggered by the delivery events.
  }

  // ---- Load balancing -----------------------------------------------

  void try_load_balance(std::size_t p) {
    algo::ProcessorCore& core = fleet_->core(p);
    if (!core.lb_trigger_due()) return;
    const bool left_busy = p > 0 && lb_link_busy_[p - 1];
    const bool right_busy = p + 1 < procs_.size() && lb_link_busy_[p];
    const auto decision = core.plan_migration(left_busy, right_busy);
    if (decision.action == lb::BalanceDecision::Action::kNone) return;

    const bool to_left =
        decision.action == lb::BalanceDecision::Action::kSendLeft;
    const Side side = to_left ? Side::kLeft : Side::kRight;
    auto payload = core.extract_migration(side, decision.amount);
    if (!payload) return;
    lb_link_busy_[to_left ? p - 1 : p] = true;
    send_migration(p, side, std::move(*payload));
  }

  bool lb_in_flight() const {
    return std::any_of(lb_link_busy_.begin(), lb_link_busy_.end(),
                       [](bool busy) { return busy; });
  }

  // ---- Halting ------------------------------------------------------

  void record_detection_audit() {
    const algo::OracleSnapshot snap = algo::measured_audit(*fleet_);
    detection_gap_ = snap.max_gap;
    detection_max_residual_ = snap.max_residual;
  }

  void stop_all(bool converged) {
    if (stopped_) return;
    stopped_ = true;
    result_converged_ = converged;
    execution_time_ = sim_.now();
    sim_.stop();
  }

  // ---- Result assembly ----------------------------------------------

  EngineResult assemble_result() {
    // Recover migrations caught mid-flight by a stop, then drain queues,
    // so the solution trajectory covers every component exactly once.
    for (std::size_t link = 0; link < lb_link_inflight_.size(); ++link) {
      if (!lb_link_inflight_[link]) continue;
      auto& payload = *lb_link_inflight_[link];
      if (payload.direction == ode::MigrationPayload::Direction::kToLeft)
        fleet_->core(link).enqueue_migration(Side::kRight,
                                             std::move(payload));
      else
        fleet_->core(link + 1).enqueue_migration(Side::kLeft,
                                                 std::move(payload));
      lb_link_inflight_[link].reset();
    }
    for (std::size_t p = 0; p < procs_.size(); ++p)
      fleet_->core(p).drain_pending_migrations();

    EngineResult result;
    result.converged = result_converged_;
    result.execution_time = execution_time_ >= 0 ? execution_time_ : sim_.now();
    result.solution = ode::Trajectory(system_.dimension(), config_.num_steps);
    result.min_components_observed = procs_.empty() ? 0 : SIZE_MAX;
    for (std::size_t p = 0; p < procs_.size(); ++p) {
      const algo::ProcessorCore& core = fleet_->core(p);
      core.block().copy_local_into(result.solution);
      result.total_iterations += core.iteration();
      result.iterations_per_processor.push_back(core.iteration());
      result.final_components.push_back(core.components());
      result.total_work += core.total_work();
      result.migrations += core.migrations_out();
      result.components_migrated += core.components_out();
      result.bytes_sent += core.lb_bytes_out();
      result.min_components_observed =
          std::min(result.min_components_observed, core.min_components_seen());
      if (!std::isinf(core.last_residual()))
        result.final_max_residual =
            std::max(result.final_max_residual, core.last_residual());
    }
    if (trace_) {
      for (std::size_t p = 0; p < procs_.size(); ++p) {
        trace::CommsRecord& left = comms_to_left_[p];
        if (p > 0 && left.frames_sent > 0) {
          if (!delta_to_left_.empty())
            left.rows_suppressed = delta_to_left_[p].rows_suppressed();
          left.bytes_received = comms_to_right_[p - 1].bytes_sent;
          trace_->record_comms(left);
        }
        trace::CommsRecord& right = comms_to_right_[p];
        if (p + 1 < procs_.size() && right.frames_sent > 0) {
          if (!delta_to_right_.empty())
            right.rows_suppressed = delta_to_right_[p].rows_suppressed();
          right.bytes_received = comms_to_left_[p + 1].bytes_sent;
          trace_->record_comms(right);
        }
      }
    }
    result.lb_messages = result.migrations;
    result.data_messages = result_data_messages_;
    result.control_messages = result_control_messages_;
    result.bytes_sent += result_bytes_;
    result.detection_gap = detection_gap_;
    result.detection_max_residual = detection_max_residual_;
    return result;
  }

  const ode::OdeSystem& system_;
  grid::Grid& grid_;
  EngineConfig config_;
  trace::ExecutionTrace* trace_;
  des::Simulator sim_;
  std::unique_ptr<algo::CoreFleet> fleet_;
  /// Shared intra-iterate worker pool (null when intra_threads <= 1 or
  /// the machine has a single hardware thread). The event loop runs one
  /// core's iterate at a time on this thread, so one pool serves all.
  std::unique_ptr<runtime::WorkerPool> intra_pool_;
  std::unique_ptr<algo::DetectionProtocol> protocol_;

  std::vector<Proc> procs_;
  /// Boundary messages in flight, by slot index; free_slots_ lists the
  /// recyclable ones.
  std::vector<BoundarySlot> slots_;
  std::vector<std::size_t> free_slots_;
  /// Control deliveries in flight (post_control closures), by slot index;
  /// free_control_ lists the recyclable ones.
  std::vector<std::function<void()>> control_;
  std::vector<std::size_t> free_control_;
  /// Byte-accounting planners per directed link (empty when delta framing
  /// is disabled) and the per-link comms tallies they feed. The event
  /// loop is single-threaded, so one delta scratch serves every link.
  std::vector<ode::BoundaryDeltaSender> delta_to_left_;
  std::vector<ode::BoundaryDeltaSender> delta_to_right_;
  ode::BoundaryDeltaMessage delta_scratch_;
  std::vector<trace::CommsRecord> comms_to_left_;
  std::vector<trace::CommsRecord> comms_to_right_;
  std::vector<bool> lb_link_busy_;
  std::vector<std::optional<ode::MigrationPayload>> lb_link_inflight_;
  /// Earliest time each directed neighbor link is free to deliver the
  /// next data frame (see link_delivery_time): [link][0] rightward,
  /// [link][1] leftward.
  std::vector<std::array<double, 2>> link_clear_;
  // Departure times for the boundary messages of the iteration currently
  // being started (set immediately before emit_boundaries).
  double staged_left_depart_ = 0.0;
  double staged_right_depart_ = 0.0;

  bool stopped_ = false;
  bool result_converged_ = false;
  double execution_time_ = -1.0;
  double detection_gap_ = -1.0;
  double detection_max_residual_ = -1.0;
  std::size_t result_data_messages_ = 0;
  std::size_t result_control_messages_ = 0;
  std::size_t result_bytes_ = 0;
};

}  // namespace

EngineResult run_simulated(const ode::OdeSystem& system, grid::Grid& grid,
                           const EngineConfig& config,
                           trace::ExecutionTrace* trace) {
  SimEngine engine(system, grid, config, trace);
  return engine.run();
}

}  // namespace aiac::core
