#include "gpusim/async_executor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <limits>
#include <queue>
#include <stdexcept>

#include "common/check.hpp"
#include "common/verify_hooks.hpp"
#include "gpusim/stopping.hpp"
#include "gpusim/worker_pool.hpp"
#include "stats/rng.hpp"

namespace bars::gpusim {

namespace {

enum class EventKind : std::uint8_t {
  kStart,          ///< block begins execution
  kRead,           ///< mid-execution: snapshot halo from the device view
  kWrite,          ///< block commits into its device view (and x)
  kSegmentArrive,  ///< a remote segment becomes visible on a device
  kSweepResume,    ///< device may begin its next sweep (transfer stall ends)
};

struct Event {
  value_t time = 0.0;
  std::uint64_t seq = 0;  ///< deterministic tie-break
  /// The block, or for kSegmentArrive the payload's slot in the
  /// segment pool.
  index_t block = 0;
  index_t device = 0;
  EventKind kind = EventKind::kStart;
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Incremental minimum over the write generations of blocks [lo, hi).
/// `on_write(b)` (called after the increment) is O(1) except when the
/// minimum advances — which takes every block of the range writing
/// once — so the rescan amortizes to O(1) per write instead of an O(q)
/// scan in every try_start().
class MinGenTracker {
 public:
  MinGenTracker(const std::vector<index_t>& gen, index_t lo, index_t hi)
      : begin_(gen.begin() + lo), end_(gen.begin() + hi), at_min_(hi - lo) {}

  void on_write(index_t gen_after) {
    if (gen_after - 1 != min_gen_) return;
    if (--at_min_ > 0) return;
    min_gen_ = *std::min_element(begin_, end_);
    at_min_ = static_cast<index_t>(std::count(begin_, end_, min_gen_));
  }

  [[nodiscard]] index_t min() const { return min_gen_; }

 private:
  std::vector<index_t>::const_iterator begin_;
  std::vector<index_t>::const_iterator end_;
  index_t min_gen_ = 0;
  index_t at_min_;
};

/// Scheduling state of one simulated GPU, owning blocks [lo, hi).
struct Device {
  Device(const std::vector<index_t>& gen, index_t lo, index_t hi)
      : first_block(lo), end_block(hi), min_gen(gen, lo, hi) {}

  index_t first_block = 0;
  index_t end_block = 0;
  index_t row_begin = 0;  ///< rows owned (contiguous: blocks are)
  index_t row_end = 0;
  index_t slots = 0;      ///< concurrent_slots capped at the block count
  std::deque<index_t> ready;
  index_t busy_slots = 0;
  index_t writes_in_sweep = 0;
  bool stalled = false;  ///< waiting for the sweep-end transfer
  MinGenTracker min_gen;
  Vector* view = nullptr;  ///< the iterate this device reads and writes
};

/// A remote segment in flight: rows [begin, end) as they were when the
/// transfer started.
struct Segment {
  index_t begin = 0;
  index_t end = 0;
  Vector values;
};

}  // namespace

AsyncExecutor::AsyncExecutor(const BlockKernel& kernel, ExecutorOptions opts)
    : kernel_(kernel), opts_(opts) {
  if (opts_.num_devices <= 0 || opts_.num_devices > 8) {
    throw std::invalid_argument("AsyncExecutor: num_devices must be 1..8");
  }
  if (opts_.concurrent_slots <= 0) {
    throw std::invalid_argument("AsyncExecutor: concurrent_slots must be > 0");
  }
  if (opts_.global_iteration_time <= 0.0) {
    throw std::invalid_argument(
        "AsyncExecutor: global_iteration_time must be > 0");
  }
  if (opts_.num_workers < 0) {
    throw std::invalid_argument("AsyncExecutor: num_workers must be >= 0");
  }
}

AsyncExecutor::~AsyncExecutor() = default;

ExecutorResult AsyncExecutor::run(
    Vector& x, const std::function<value_t(const Vector&)>& residual_fn) {
  const index_t q = kernel_.num_blocks();
  const index_t n = kernel_.num_rows();
  if (static_cast<index_t>(x.size()) != n) {
    throw std::invalid_argument("AsyncExecutor::run: x size mismatch");
  }
  ExecutorResult res;
  res.block_executions.assign(static_cast<std::size_t>(q), 0);
  if (q == 0) {
    res.residual_history.push_back(residual_fn(x));
    res.time_history.push_back(0.0);
    if (res.residual_history.back() <= opts_.stopping.tol) {
      res.status = SolverStatus::kConverged;
    }
    return res;
  }

  const index_t nd = std::min(opts_.num_devices, q);
  const std::optional<TransferOptions>& transfer = opts_.transfer;
  const bool dk = transfer && transfer->scheme == TransferScheme::kDK;

  Rng rng(opts_.seed);
  const bool deterministic = opts_.policy == SchedulePolicy::kRoundRobin;
  const value_t mean_duration =
      opts_.global_iteration_time *
      static_cast<value_t>(std::min(opts_.concurrent_slots, q)) /
      static_cast<value_t>(q);

  // Fault timeline (Section 4.5 scenarios, composable form).
  std::optional<resilience::ScenarioTimeline> timeline;
  if (opts_.scenario && !opts_.scenario->empty()) {
    timeline.emplace(*opts_.scenario, n, nd);
  }
  // Device dropout and link failures exist only between device views.
  const bool device_faults = transfer && timeline;

  telemetry::SolveObserver* const obs = opts_.telemetry.observer;
  const bool emit_commits = obs != nullptr && opts_.telemetry.block_commits;

  IterationMonitor monitor(opts_.stopping,
                           opts_.resilience ? &*opts_.resilience : nullptr,
                           timeline ? &*timeline : nullptr, q, obs);
  monitor.record_initial(residual_fn(x));
  if (timeline) timeline->advance(0);

  // Device views of the iterate. Without a transfer scheme, and in DK
  // (one canonical vector in the master's memory), every device works
  // on x directly; otherwise x is the canonical assembly of the owner
  // segments and each device computes on its own copy.
  std::vector<Vector> views(transfer && !dk ? static_cast<std::size_t>(nd)
                                            : 0,
                            x);
  std::vector<index_t> write_generation(static_cast<std::size_t>(q), 0);
  std::vector<Device> dev;
  dev.reserve(static_cast<std::size_t>(nd));
  for (index_t d = 0; d < nd; ++d) {
    const index_t lo = q * d / nd;
    const index_t hi = q * (d + 1) / nd;
    Device& s = dev.emplace_back(write_generation, lo, hi);
    s.row_begin = kernel_.rows(lo).first;
    s.row_end = kernel_.rows(hi - 1).second;
    s.slots = std::min(opts_.concurrent_slots, hi - lo);
    s.view = views.empty() ? &x : &views[static_cast<std::size_t>(d)];
    // Blocks enter in scheduler order; a free slot starts the front of
    // the queue immediately.
    std::vector<index_t> order;
    for (index_t b = lo; b < hi; ++b) order.push_back(b);
    if (opts_.policy == SchedulePolicy::kShuffled) rng.shuffle(order);
    s.ready.assign(order.begin(), order.end());
  }

  // Per-block halo snapshot captured at READ, consumed at WRITE.
  std::vector<Vector> halo_snapshot(static_cast<std::size_t>(q));
  std::vector<TraceEvent> pending_trace(
      opts_.record_trace ? static_cast<std::size_t>(q) : 0);
  // Staleness of the in-flight execution's halo read, sampled at kRead
  // and reported with the matching commit event.
  std::vector<index_t> pending_staleness(
      emit_commits ? static_cast<std::size_t>(q) : 0, 0);

  // O(1) row -> owning block table; kills the former O(halo * q)
  // owner scan when assembling the staleness diagnostic's halo-source
  // lists.
  std::vector<index_t> owner(static_cast<std::size_t>(n), -1);
  for (index_t s = 0; s < q; ++s) {
    const auto [lo, hi] = kernel_.rows(s);
    for (index_t i = lo; i < hi; ++i) owner[static_cast<std::size_t>(i)] = s;
  }
  std::vector<std::vector<index_t>> halo_sources(static_cast<std::size_t>(q));
  for (index_t b = 0; b < q; ++b) {
    std::vector<index_t>& src = halo_sources[b];
    for (index_t gi : kernel_.halo(b)) {
      const index_t o = owner[static_cast<std::size_t>(gi)];
      if (o >= 0 && o != b) src.push_back(o);
    }
    std::sort(src.begin(), src.end());
    src.erase(std::unique(src.begin(), src.end()), src.end());
  }

  Rng pattern_rng(opts_.pattern_seed.value_or(0));
  const auto sample_duration = [&](index_t d) -> value_t {
    value_t dur = mean_duration;
    if (!deterministic) {
      // Pattern mode: the jitter/straggler stream is shared by all
      // runs; the per-run seed only perturbs durations slightly.
      Rng& jitter_rng = opts_.pattern_seed ? pattern_rng : rng;
      dur *= 1.0 + opts_.jitter * jitter_rng.uniform(-1.0, 1.0);
      if (jitter_rng.uniform() < opts_.straggler_prob) {
        dur *= opts_.straggler_factor;
      }
      if (opts_.pattern_seed) {
        dur *= 1.0 + opts_.run_noise * rng.uniform(-1.0, 1.0);
      }
    }
    if (dk) {
      if (d != 0) {
        dur *= transfer->params.dk_remote_penalty;
      } else if (nd > 1) {
        // The master's memory controller also services every remote
        // peer's accesses.
        dur *= 1.0 + transfer->params.dk_master_penalty_per_peer *
                         static_cast<value_t>(nd - 1);
      }
    }
    return dur;
  };

  std::priority_queue<Event, std::vector<Event>, EventLater> events;
  std::uint64_t seq = 0;
  value_t now = 0.0;

  // After its WRITE a block re-enqueues itself on its device (FIFO for
  // kRoundRobin/kJittered; at a random position for kShuffled), so
  // every block runs infinitely often with bounded skew — the
  // Chazan-Miranker well-posedness conditions.
  const auto requeue = [&](std::deque<index_t>& ready, index_t b) {
    if (opts_.policy == SchedulePolicy::kShuffled && !ready.empty()) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<index_t>(ready.size())));
      ready.insert(ready.begin() + static_cast<std::ptrdiff_t>(pos), b);
    } else {
      ready.push_back(b);
    }
  };

  // Bounded-shift gate: blocks more than max_generation_skew ahead of
  // the slowest block on their device wait (their slot idles until the
  // laggard writes).
  std::vector<index_t> deferred;
  const auto try_start = [&](index_t d) {
    Device& s = dev[static_cast<std::size_t>(d)];
    if (s.stalled) return;
    if (device_faults && timeline->device_down(d)) return;
    const index_t min_gen = s.min_gen.min();
    deferred.clear();
    while (s.busy_slots < s.slots && !s.ready.empty()) {
      const index_t b = s.ready.front();
      s.ready.pop_front();
      if (write_generation[b] > min_gen + opts_.max_generation_skew) {
        deferred.push_back(b);
        continue;
      }
      ++s.busy_slots;
      events.push({now, seq++, b, d, EventKind::kStart});
    }
    for (auto it = deferred.rbegin(); it != deferred.rend(); ++it) {
      s.ready.push_front(*it);
    }
  };

  std::vector<std::uint8_t> was_down(static_cast<std::size_t>(nd), 0);
  for (index_t d = 0; d < nd; ++d) {
    was_down[d] = device_faults && timeline->device_down(d) ? 1 : 0;
    try_start(d);
  }

  // --- Transfer schemes -----------------------------------------------
  std::optional<Topology> topo;
  Link master_link;  // the DC master GPU's P2P path
  index_t socket1_devices = 0;
  if (transfer) {
    topo.emplace(nd, InterconnectSpec::supermicro_x8dtg());
    for (index_t e = 0; e < nd; ++e) {
      if (topo->socket_of(e) != 0) ++socket1_devices;
    }
  }
  // Link-failure retry/backoff accounting (consecutive failed attempts
  // per device; reset on the first healthy sweep-end transfer).
  std::vector<index_t> link_fails(static_cast<std::size_t>(nd), 0);
  index_t link_retries = 0;
  std::vector<Segment> segments;
  std::vector<index_t> free_segments;

  const auto segment_bytes = [&](index_t d) {
    const Device& s = dev[static_cast<std::size_t>(d)];
    return 8.0 * static_cast<value_t>(s.row_end - s.row_begin);
  };
  const value_t full_bytes = 8.0 * static_cast<value_t>(n);

  index_t global_iter = 0;
  const auto push_arrival = [&](index_t dst, index_t src_dev, value_t at) {
    index_t slot = 0;
    if (free_segments.empty()) {
      slot = static_cast<index_t>(segments.size());
      segments.emplace_back();
    } else {
      slot = free_segments.back();
      free_segments.pop_back();
    }
    const Device& src = dev[static_cast<std::size_t>(src_dev)];
    Segment& seg = segments[static_cast<std::size_t>(slot)];
    seg.begin = src.row_begin;
    seg.end = src.row_end;
    seg.values.assign(x.begin() + seg.begin, x.begin() + seg.end);
    events.push({at, seq++, slot, dst, EventKind::kSegmentArrive});
  };

  // End-of-sweep transfer per scheme. Returns the virtual time at which
  // device d may start its next sweep (== `at` when no stall).
  const auto on_sweep_end = [&](index_t d, value_t at) -> value_t {
    if (device_faults && timeline->link_down(d)) {
      // The transfer attempt fails: no segment becomes visible anywhere,
      // and the device backs off exponentially before computing on. The
      // next sweep end retries.
      ++link_retries;
      if (obs) {
        obs->on_recovery_event({telemetry::RecoveryEvent::Kind::kLinkRetry,
                                global_iter, 0.0, d});
      }
      const value_t backoff =
          transfer->link_retry_backoff_s *
          static_cast<value_t>(index_t{1}
                               << std::min<index_t>(link_fails[d], 6));
      ++link_fails[d];
      return at + backoff;
    }
    link_fails[d] = 0;
    switch (transfer->scheme) {
      case TransferScheme::kAMC: {
        // Upload own segment to host on own link; stall for the stream
        // sync + upload, then keep computing. Host forwards to others.
        // Host staging memory lives on socket 0, so socket-1 devices
        // pay the QPI/NUMA staging cost synchronously (the paper's
        // observed >2-GPU penalty, Section 4.6). The QPI staging cost
        // is a per-round resource: the socket-1 devices' DMA batches
        // pipeline through it, so each pays its share (this is why the
        // paper's 4-GPU run beats the 3-GPU run: the QPI path "is
        // included anyway", Section 4.6).
        const bool cross = topo->socket_of(d) != 0;
        const value_t qpi_share =
            cross ? transfer->params.qpi_round_overhead_s /
                        static_cast<value_t>(
                            std::max<index_t>(socket1_devices, 1)) +
                        topo->spec().qpi_latency_s
                  : 0.0;
        const value_t up_dur = transfer->amc_host_sync_overhead_s +
                               topo->host_transfer_duration(segment_bytes(d)) +
                               qpi_share;
        const value_t up_done = topo->pcie(d).acquire(at, up_dur);
        res.bytes_host_device += segment_bytes(d);
        ++res.num_transfers;
        for (index_t e = 0; e < nd; ++e) {
          if (e == d) continue;
          const bool cross_e = topo->socket_of(e) != 0;
          const value_t down_done = topo->pcie(e).acquire(
              up_done, topo->host_transfer_duration(segment_bytes(d)));
          res.bytes_host_device += segment_bytes(d);
          ++res.num_transfers;
          // Downloads to socket-1 devices pay the QPI staging cost as a
          // pure visibility delay (asynchronous on the receiving side;
          // it must not block the receiver's own link horizon).
          const value_t visible_at =
              down_done +
              (cross_e ? transfer->params.qpi_round_overhead_s : 0.0);
          push_arrival(e, d, visible_at);
        }
        return up_done;
      }
      case TransferScheme::kDC: {
        if (d == 0) {
          // On Fermi, GPU-direct copies serialize with kernel
          // execution on the master: it cannot start its next sweep
          // while its copy engine is draining peer transfers.
          return std::max(at, master_link.busy_until());
        }
        // Push own segment to master, then pull the canonical vector
        // back; both serialize on the master's P2P link with a
        // GPU-direct sync cost each. The device stalls until the pull
        // completes (it needs the canonical x for its next sweep).
        const value_t push_dur =
            transfer->params.dc_sync_overhead_s +
            topo->p2p_transfer_duration(segment_bytes(d), d, 0);
        const value_t push_done = master_link.acquire(at, push_dur);
        res.bytes_device_device += segment_bytes(d);
        ++res.num_transfers;
        push_arrival(0, d, push_done);
        const value_t pull_dur = transfer->params.dc_sync_overhead_s +
                                 topo->p2p_transfer_duration(full_bytes, 0, d);
        const value_t pull_done = master_link.acquire(push_done, pull_dur);
        res.bytes_device_device += full_bytes;
        ++res.num_transfers;
        // The pulled vector is the master view at pull start; approximate
        // with the canonical segments at sweep end (the master only
        // gains newer values in between).
        for (index_t other = 0; other < nd; ++other) {
          if (other == d) continue;
          push_arrival(d, other, pull_done);
        }
        return pull_done;
      }
      case TransferScheme::kDK:
        // Writes went straight to the master's memory; nothing to do,
        // but account the P2P traffic of the remote sweep.
        if (d != 0) {
          res.bytes_device_device += segment_bytes(d);
          ++res.num_transfers;
        }
        return at;
    }
    return at;
  };

  index_t total_writes = 0;

  // --- Parallel commit path -------------------------------------------
  // All WRITE events at one virtual time update disjoint owned row
  // ranges from already-frozen halo snapshots, so their kernel calls
  // are independent and run concurrently; the bookkeeping (trace,
  // counters, monitor boundaries, scheduling) is then replayed in
  // deterministic event order, making the result bit-identical to the
  // serial loop. Fault timelines and resilience policies may change
  // fault masks or rewrite x at iteration boundaries *inside* a batch,
  // and transfer schemes interleave other events with the writes, so
  // they force the serial path.
  const bool can_batch = opts_.num_workers > 1 &&
                         kernel_.parallel_commit_safe() && !timeline &&
                         !opts_.resilience && nd == 1 && !transfer;
  if (can_batch && !pool_) {
    pool_ = std::make_unique<WorkerPool>(opts_.num_workers);
  }
  // Pre-/post-commit values of each block's owned rows, reused across
  // visits: new_rows stages parallel results so batched commits land in
  // x one member at a time, in event order.
  std::vector<Vector> saved_rows(can_batch ? static_cast<std::size_t>(q) : 0);
  std::vector<Vector> new_rows(can_batch ? static_cast<std::size_t>(q) : 0);

  // Residual estimate (stopping.hpp): each block's latest contribution
  // (ExecContext::residual_sq), +inf until the kernel reports one. The
  // parallel path stages contributions like rows, so the replay
  // publishes them in event order and every boundary sees exactly the
  // serial loop's values.
  const bool estimate = monitor.uses_estimate();
  std::vector<value_t> block_rsq(
      estimate ? static_cast<std::size_t>(q) : 0,
      std::numeric_limits<value_t>::infinity());
  std::vector<value_t> staged_rsq(can_batch ? block_rsq.size() : 0,
                                  std::numeric_limits<value_t>::infinity());
  const auto residual_estimate = [&]() {
    if (!estimate) return std::numeric_limits<value_t>::infinity();
    value_t sum = 0.0;
    for (const value_t c : block_rsq) sum += c;
    return std::sqrt(sum);
  };

  bool stopped = false;
  // Commit bookkeeping for one WRITE (the kernel update itself already
  // ran). Mirrors the serial order exactly: trace, counters, requeue,
  // the sweep-end transfer, then the global-iteration boundary, then
  // slot refill.
  const auto commit_write = [&](index_t b, index_t d) {
    Device& s = dev[static_cast<std::size_t>(d)];
    if (opts_.record_trace) res.trace.record(pending_trace[b]);
    if (emit_commits) {
      // Emitted from the serial replay in both commit paths, so the
      // event order is part of the bit-identity contract.
      telemetry::BlockCommitEvent cev;
      cev.block = b;
      cev.device = d;
      cev.generation = write_generation[b];
      cev.virtual_time = now;
      cev.staleness = pending_staleness[b];
      obs->on_block_commit(cev);
    }
    ++res.block_executions[b];
    s.min_gen.on_write(++write_generation[b]);
    ++total_writes;
    BARS_DCHECK(s.busy_slots > 0)
        << "commit of block " << b << " at vt " << now
        << " with no busy slot";
    --s.busy_slots;
    requeue(s.ready, b);
    if (transfer && ++s.writes_in_sweep >= s.end_block - s.first_block) {
      s.writes_in_sweep = 0;
      const value_t resume_at = on_sweep_end(d, now);
      if (resume_at > now) {
        s.stalled = true;
        events.push({resume_at, seq++, 0, d, EventKind::kSweepResume});
      }
    }
    if (total_writes % q == 0) {
      ++global_iter;
      const index_t mutations_before = monitor.iterate_mutations();
      const StopVerdict verdict =
          monitor.on_global_iteration(global_iter, now, x, residual_fn,
                                      res.block_executions,
                                      residual_estimate());
      if (monitor.iterate_mutations() != mutations_before) {
        // A rollback / damped restart rewrote the canonical iterate;
        // broadcast it so no device writes stale state back over the
        // restored solution.
        for (Vector& v : views) v = x;
      }
      if (verdict != StopVerdict::kContinue) {
        res.status = monitor.status_for(verdict);
        stopped = true;
        return;
      }
      // Device dropout transitions become visible after the timeline
      // advanced: a rejoining device refreshes its view from the
      // canonical vector and resumes launching blocks.
      if (device_faults) {
        for (index_t e = 0; e < nd; ++e) {
          const bool down = timeline->device_down(e);
          if (was_down[e] && !down) {
            if (!views.empty()) views[static_cast<std::size_t>(e)] = x;
            if (obs) {
              obs->on_recovery_event(
                  {telemetry::RecoveryEvent::Kind::kDeviceRejoin,
                   global_iter, 0.0, e});
            }
            try_start(e);
          } else if (!was_down[e] && down && obs) {
            obs->on_recovery_event(
                {telemetry::RecoveryEvent::Kind::kDeviceDropout, global_iter,
                 0.0, e});
          }
          was_down[e] = down ? 1 : 0;
        }
      }
    }
    try_start(d);
  };

  std::vector<Event> batch;

  while (!events.empty() && !stopped) {
    const Event ev = events.top();
    events.pop();
    now = ev.time;
    const index_t b = ev.block;
    const index_t d = ev.device;

    switch (ev.kind) {
      case EventKind::kStart: {
        const value_t duration = sample_duration(d);
        const value_t frac =
            std::clamp(opts_.read_fraction, value_t{0.0}, value_t{1.0});
        if (opts_.record_trace) {
          pending_trace[b] = TraceEvent{b, write_generation[b], now,
                                        now + frac * duration,
                                        now + duration};
        }
        events.push({now + frac * duration, seq++, b, d, EventKind::kRead});
        events.push({now + duration, seq++, b, d, EventKind::kWrite});
        break;
      }
      case EventKind::kRead: {
        // Snapshot halo values at virtual time `now` (mid-execution).
        const auto halo = kernel_.halo(b);
        const Vector& view = *dev[static_cast<std::size_t>(d)].view;
        Vector& snap = halo_snapshot[b];
        snap.resize(halo.size());
        for (std::size_t i = 0; i < halo.size(); ++i) snap[i] = view[halo[i]];
        if (timeline) timeline->maybe_corrupt_halo(snap);
        // Staleness diagnostic: generation gap to each halo source.
        index_t read_staleness = 0;
        for (index_t src : halo_sources[b]) {
          const index_t gap =
              std::abs(write_generation[b] - write_generation[src]);
          read_staleness = std::max(read_staleness, gap);
        }
        res.max_staleness = std::max(res.max_staleness, read_staleness);
        if (emit_commits) pending_staleness[b] = read_staleness;
        break;
      }
      case EventKind::kWrite: {
        if (can_batch) {
          batch.clear();
          batch.push_back(ev);
          while (!events.empty() && events.top().kind == EventKind::kWrite &&
                 events.top().time == ev.time) {
            batch.push_back(events.top());
            events.pop();
          }
          if (batch.size() > 1) {
            BARS_CHECK(pool_ != nullptr)
                << "parallel batch of " << batch.size() << " at vt " << now
                << " without a worker pool";
            // Batch members are distinct blocks (a block has at most one
            // execution in flight), so updates write disjoint rows of x
            // and per-block kernel scratch never collides. Each task
            // then stages its result and restores its rows, leaving x in
            // the pre-batch state: the replay below commits one member
            // at a time so every monitor check (and any mid-batch stop)
            // sees exactly the x the serial loop would have.
            pool_->run(
                static_cast<index_t>(batch.size()),
                [&](index_t i, index_t /*worker*/) {
                  const index_t blk = batch[static_cast<std::size_t>(i)].block;
                  const auto [lo, hi] = kernel_.rows(blk);
                  Vector& old = saved_rows[static_cast<std::size_t>(blk)];
                  old.assign(x.begin() + lo, x.begin() + hi);
                  ExecContext ctx;
                  ctx.virtual_time = now;
                  ctx.block_generation = res.block_executions[blk];
                  if (estimate) {
                    ctx.residual_sq =
                        &staged_rsq[static_cast<std::size_t>(blk)];
                  }
                  kernel_.update(blk, halo_snapshot[blk], x, ctx);
                  // Declare this task's slice of x to the race oracle:
                  // the disjoint-row claim above becomes machine-checked.
                  BARS_VERIFY_WRITE(x.data() + lo,
                                    static_cast<std::size_t>(hi - lo) *
                                        sizeof(value_t),
                                    "executor.batch_rows");
                  Vector& fresh = new_rows[static_cast<std::size_t>(blk)];
                  fresh.assign(x.begin() + lo, x.begin() + hi);
                  std::copy(old.begin(), old.end(), x.begin() + lo);
                });
            for (const Event& bev : batch) {
              if (stopped) break;  // serial would never reach these WRITEs
              const auto [lo, hi] = kernel_.rows(bev.block);
              const Vector& fresh =
                  new_rows[static_cast<std::size_t>(bev.block)];
              std::copy(fresh.begin(), fresh.end(), x.begin() + lo);
              if (estimate) {
                block_rsq[static_cast<std::size_t>(bev.block)] =
                    staged_rsq[static_cast<std::size_t>(bev.block)];
              }
              commit_write(bev.block, bev.device);
            }
            break;
          }
          // Fall through: a batch of one is just the serial case.
        }
        Vector& view = *dev[static_cast<std::size_t>(d)].view;
        ExecContext ctx;
        ctx.virtual_time = now;
        ctx.block_generation = res.block_executions[b];
        ctx.failed_components = timeline ? timeline->component_mask() : nullptr;
        if (estimate) ctx.residual_sq = &block_rsq[static_cast<std::size_t>(b)];
        kernel_.update(b, halo_snapshot[b], view, ctx);
        if (&view != &x) {
          // Mirror own rows into the canonical assembly.
          const auto [lo, hi] = kernel_.rows(b);
          std::copy(view.begin() + lo, view.begin() + hi, x.begin() + lo);
        }
        commit_write(b, d);
        break;
      }
      case EventKind::kSegmentArrive: {
        Segment& seg = segments[static_cast<std::size_t>(b)];
        if (!views.empty()) {
          Vector& view = views[static_cast<std::size_t>(d)];
          // Never clobber the device's own segment.
          const Device& s = dev[static_cast<std::size_t>(d)];
          for (index_t i = seg.begin; i < seg.end; ++i) {
            if (i >= s.row_begin && i < s.row_end) continue;
            view[i] = seg.values[static_cast<std::size_t>(i - seg.begin)];
          }
        }
        free_segments.push_back(b);
        break;
      }
      case EventKind::kSweepResume: {
        dev[static_cast<std::size_t>(d)].stalled = false;
        try_start(d);
        break;
      }
    }
  }

  res.global_iterations = global_iter;
  res.virtual_time = now;
  res.residual_history = std::move(monitor.residual_history());
  res.time_history = std::move(monitor.time_history());
  res.resilience = monitor.take_report();
  res.resilience.transfer_retries = link_retries;
  return res;
}

}  // namespace bars::gpusim
