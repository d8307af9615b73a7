#include <cmath>
#include <sstream>
#include <string>
#include <thread>

#include "backend/registry.hpp"
#include "matrices/generators.hpp"
#include "service/plan_cache.hpp"
#include "service/solve_service.hpp"
#include "stats/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using bars::service::SolveRequest;
using bars::service::SolveResponse;
using bars::service::SolveService;

constexpr bars::index_t kGrid = 48;      // n = 2,304
constexpr double kHotRho = 0.8541;       // fv1's Jacobi spectral radius
constexpr std::size_t kColdMatrices = 16;  // twice the plan-cache capacity
constexpr std::size_t kHotRhs = 16;
constexpr std::size_t kWindow = 8;       // outstanding requests
constexpr std::size_t kWarmup = 32;      // completions before counting
constexpr int kSegments = 10;            // stretches the window is cut into
constexpr int kSetupsPerSegment = 6;
constexpr std::size_t kRpsBlock = 64;    // completions per rps sample

/// The svc-mixed traffic: request i goes to the hot matrix unless
/// i % 4 == 3, in which case it goes to the next cold matrix in a
/// seeded order. Right-hand sides are seeded too; the service only
/// ever sees the generated requests.
struct Mix {
  std::shared_ptr<const bars::Csr> hot;
  std::vector<std::shared_ptr<const bars::Csr>> cold;
  std::vector<bars::Vector> hot_rhs;
  std::vector<bars::Vector> cold_rhs;
  std::vector<std::size_t> cold_order;
  bars::RegistrySolveOptions options;

  [[nodiscard]] static bool is_hot(std::size_t i) { return i % 4 != 3; }
  /// Request i is the hot matrix with hot_rhs[0], the request the
  /// traced run also solves standalone.
  [[nodiscard]] static bool is_reference(std::size_t i) {
    return i % kHotRhs == 0;
  }
  [[nodiscard]] std::size_t cold_index(std::size_t i) const {
    return cold_order[(i / 4) % kColdMatrices];
  }
  [[nodiscard]] const bars::Csr& matrix(std::size_t i) const {
    return is_hot(i) ? *hot : *cold[cold_index(i)];
  }
  [[nodiscard]] const bars::Vector& rhs(std::size_t i) const {
    return is_hot(i) ? hot_rhs[i % kHotRhs] : cold_rhs[cold_index(i)];
  }
  [[nodiscard]] SolveRequest request(std::size_t i) const {
    SolveRequest req;
    req.matrix = is_hot(i) ? hot : cold[cold_index(i)];
    req.b = rhs(i);
    req.options = options;
    return req;
  }
};

Mix make_mix(std::uint64_t seed) {
  Mix m;
  const auto fv = [](double rho) {
    return std::make_shared<const bars::Csr>(
        bars::fv_like(kGrid, bars::fv_reaction_for_rho(kGrid, rho)));
  };
  m.hot = fv(kHotRho);
  for (std::size_t c = 0; c < kColdMatrices; ++c) {
    m.cold.push_back(fv(0.80 + 0.003 * static_cast<double>(c)));
    m.cold_rhs.push_back(seeded_rhs(kGrid * kGrid, seed, 2000 + c));
  }
  for (std::size_t j = 0; j < kHotRhs; ++j) {
    m.hot_rhs.push_back(seeded_rhs(kGrid * kGrid, seed, 1000 + j));
  }
  m.cold_order.resize(kColdMatrices);
  for (std::size_t c = 0; c < kColdMatrices; ++c) m.cold_order[c] = c;
  bars::Rng(seed).shuffle(m.cold_order);

  m.options.solve.tol = 1e-10;
  m.options.solve.max_iters = 10000;
  m.options.solve.record_history = false;
  m.options.block_size = 448;
  m.options.local_iters = 5;
  m.options.backend = "scalar";
  return m;
}

bars::service::ServiceOptions mixed_service_options() {
  bars::service::ServiceOptions so;
  // One worker: hot batches serialize on the plan lock, so a second
  // worker kept only about 1.05 CPUs busy and added at most 1.2x
  // throughput, while its contention made rps wander by 12-16% between
  // stretches of one run (one worker: about 1%).
  so.num_workers = 1;
  return so;
}

void check_reply(const SolveResponse& resp, const bars::Csr& a,
                 const bars::Vector& b, double tol, std::size_t id,
                 Outcome& out) {
  const bool solved = resp.outcome == bars::service::RequestOutcome::kSolved;
  const double res = solved ? checked_residual(a, b, resp.result.x) : -1.0;
  std::ostringstream why;
  why << "request " << id << ": outcome " << bars::service::to_string(resp.outcome)
      << ", status " << bars::to_string(resp.result.status)
      << ", recomputed residual " << res << " (tol " << tol << ")"
      << (resp.error.empty() ? "" : ", error: " + resp.error);
  out.check(solved && resp.ok() && res <= tol, why.str());
}

struct LoopResult {
  std::vector<double> latency_s;
  std::vector<double> queue_s;
  std::vector<double> solve_s;
  /// solve_seconds of replies to the standalone reference request only,
  /// so subtracting the standalone solve compares like with like.
  std::vector<double> reference_solve_s;
  /// Throughput of each run of kRpsBlock consecutive completions.
  std::vector<double> block_rps;
  double batch_sum = 0.0;
  double window_s = 0.0;
  /// Plan-cache activity while counting.
  std::uint64_t plan_hits = 0, plan_builds = 0, evictions = 0;

  [[nodiscard]] double rps() const {
    return static_cast<double>(latency_s.size()) / window_s;
  }
  void count_plan_cache(const bars::service::PlanCacheStats& from,
                        const bars::service::PlanCacheStats& to) {
    plan_hits += to.hits - from.hits;
    plan_builds += to.misses - from.misses;
    evictions += to.evictions - from.evictions;
  }
  void append(const LoopResult& r) {
    for (auto [into, from] : {std::pair{&latency_s, &r.latency_s},
                              {&queue_s, &r.queue_s},
                              {&solve_s, &r.solve_s},
                              {&reference_solve_s, &r.reference_solve_s},
                              {&block_rps, &r.block_rps}}) {
      into->insert(into->end(), from->begin(), from->end());
    }
    batch_sum += r.batch_sum;
    window_s += r.window_s;
    plan_hits += r.plan_hits;
    plan_builds += r.plan_builds;
    evictions += r.evictions;
  }
};

/// Closed loop from this (the generator) thread: keep kWindow requests
/// outstanding, poll their tickets, and replace each as it completes.
/// The first `warmup` completions are checked but not counted; then
/// completions are counted for `seconds`, after which no new request is
/// submitted and the outstanding ones are drained (and checked). When
/// `reference_x` is given, every reply to the reference request must
/// reproduce it bit for bit.
LoopResult closed_loop(SolveService& svc, const Mix& mix, std::size_t& next,
                       std::size_t warmup, double seconds, Tracer* tracer,
                       const bars::Vector* reference_x, Outcome& out) {
  struct Pending {
    std::shared_ptr<bars::service::Ticket> ticket;
    Clock::time_point submitted;
    std::size_t id;
    std::int32_t span;
  };
  std::vector<Pending> window;
  LoopResult res;
  std::size_t completed = 0;
  bool counting = warmup == 0;
  Clock::time_point t_start = Clock::now();
  Clock::time_point t_stop = after(t_start, seconds);
  bars::service::PlanCacheStats before = svc.stats().plan_cache;
  double block_start_s = 0.0;  // window time of the current block's start
  std::size_t in_block = 0;

  const auto submit = [&] {
    const std::size_t id = next++;
    const std::int32_t root =
        tracer ? tracer->begin("service.request", -1, id) : -1;
    const std::int32_t sub =
        tracer ? tracer->begin("service.submit", root, id) : -1;
    const auto t0 = Clock::now();
    auto ticket = svc.submit(mix.request(id));
    if (tracer) tracer->end(sub);
    window.push_back({std::move(ticket), t0, id, root});
  };

  while (!window.empty() || !counting || Clock::now() < t_stop) {
    while (window.size() < kWindow && (!counting || Clock::now() < t_stop)) {
      submit();
    }
    bool progressed = false;
    for (std::size_t k = 0; k < window.size();) {
      if (!window[k].ticket->done()) {
        ++k;
        continue;
      }
      const auto t_done = Clock::now();
      const Pending p = std::move(window[k]);
      window[k] = std::move(window.back());
      window.pop_back();
      progressed = true;

      const std::int32_t wait =
          tracer ? tracer->begin("service.wait", p.span, p.id) : -1;
      const SolveResponse& resp = p.ticket->wait();
      if (tracer) {
        tracer->end(wait);
        tracer->end(p.span);
      }
      check_reply(resp, mix.matrix(p.id), mix.rhs(p.id),
                  mix.options.solve.tol, p.id, out);
      if (reference_x != nullptr && Mix::is_reference(p.id)) {
        out.check(same_bits(resp.result.x, *reference_x),
                  "request " + std::to_string(p.id) +
                      ": served reply differs from the standalone solve");
      }
      ++completed;
      if (counting && t_done <= t_stop) {
        res.latency_s.push_back(
            std::chrono::duration<double>(t_done - p.submitted).count());
        res.queue_s.push_back(resp.queue_seconds);
        res.solve_s.push_back(resp.solve_seconds);
        if (Mix::is_reference(p.id)) {
          res.reference_solve_s.push_back(resp.solve_seconds);
        }
        res.batch_sum += static_cast<double>(resp.batch_size);
        const double at =
            std::chrono::duration<double>(t_done - t_start).count();
        if (++in_block == kRpsBlock) {
          res.block_rps.push_back(static_cast<double>(kRpsBlock) /
                                  (at - block_start_s));
          block_start_s = at;
          in_block = 0;
        }
      }
      if (!counting && completed == warmup) {
        counting = true;
        before = svc.stats().plan_cache;
        t_start = Clock::now();
        t_stop = after(t_start, seconds);
      }
    }
    // Sleep rather than spin between polls: a spinning generator costs
    // the workers about 6% of their throughput on a 4-cpu host.
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  res.window_s = std::chrono::duration<double>(t_stop - t_start).count();
  res.count_plan_cache(before, svc.stats().plan_cache);
  return res;
}

std::string samples(const std::vector<double>& v) {
  return std::to_string(v.size()) + " replies";
}

ServiceLayers loop_layers(const LoopResult& r, double standalone_s) {
  ServiceLayers l;
  l.queue_wait_ms = 1e3 * median(r.queue_s);
  l.lock_wait_ms = 1e3 * (median(r.reference_solve_s) - standalone_s);
  l.batch_size = r.batch_sum / static_cast<double>(r.latency_s.size());
  const auto hits = r.plan_hits;
  l.plan_builds = r.plan_builds;
  l.plan_hit_ratio =
      static_cast<double>(hits) / static_cast<double>(hits + l.plan_builds);
  l.evictions = r.evictions;
  l.samples = r.latency_s.size();
  l.reference_samples = r.reference_solve_s.size();
  return l;
}

/// Times `n` standalone solves of a reference request with the options
/// the service derives (appending to `walls`); each must reproduce the
/// served reply `served_x` bit for bit.
void standalone_solves(const bars::Csr& a, const bars::Vector& b,
                       bars::backend::BlockSweepKernel& kernel,
                       const bars::BlockAsyncOptions& ao,
                       const bars::Vector& served_x, int n,
                       std::vector<double>& walls, Outcome& out) {
  for (int k = 0; k < n; ++k) {
    const auto t0 = Clock::now();
    const auto res = bars::block_async_solve_with_kernel(a, b, kernel, ao);
    walls.push_back(seconds_since(t0));
    out.check(same_bits(res.solve.x, served_x),
              "standalone solve differs from the served reply");
  }
}

}  // namespace

bool is_service_workload(const std::string& name) { return name == "svc-mixed"; }

bars::BlockAsyncOptions served_options(const bars::RegistrySolveOptions& ro) {
  // Mirrors SolveService's plan path: these fields, defaults otherwise.
  bars::BlockAsyncOptions ao;
  ao.solve = ro.solve;
  ao.block_size = ro.block_size;
  ao.local_iters = ro.local_iters;
  ao.backend = ro.backend;
  ao.seed = ro.seed;
  return ao;
}

void report_service_layers(Outcome& out, const ServiceLayers& l,
                           const char* subject) {
  const std::string of = std::string(", ") + subject + ", " +
                         std::to_string(l.samples) + " replies";
  out.add("service.queue_wait_ms", l.queue_wait_ms, "ms",
          "p50 of replies' queue_seconds (submit to dispatch)" + of);
  out.add("service.lock_wait_ms", l.lock_wait_ms, "ms",
          "p50 solve_seconds of the " + std::to_string(l.reference_samples) +
              " replies to the reference request minus p50 of standalone "
              "warm solves of that request" + of);
  out.add("service.batch_size", l.batch_size, "requests",
          "mean fused batch size seen by a reply" + of);
  out.add("service.plan_hit_ratio", l.plan_hit_ratio, "ratio",
          "plan-cache hits / acquisitions" + of);
  out.add("service.plan_builds", static_cast<double>(l.plan_builds), "count",
          "plan-cache misses (each builds a plan)" + of);
  out.add("service.evictions", static_cast<double>(l.evictions), "count",
          "plan-cache LRU evictions" + of);
}

ServiceLayers probe_service(const std::shared_ptr<const bars::Csr>& a,
                            std::uint64_t seed,
                            const bars::RegistrySolveOptions& ro,
                            Clock::time_point until, Tracer& tracer,
                            Outcome& out) {
  constexpr std::size_t kRhs = 8;
  std::vector<bars::Vector> rhs;
  for (std::size_t j = 0; j < kRhs; ++j) {
    rhs.push_back(seeded_rhs(a->rows(), seed, 100 + j));
  }
  bars::service::ServiceOptions so;
  so.num_workers = 1;
  SolveService svc(so);
  // rhs[0] is the reference request: each time it has been served it is
  // also solved standalone, so the two are timed under the same host
  // load and compared bit for bit.
  const auto kernel = bars::backend::build_kernel(
      ro.backend, *a, rhs[0],
      bars::RowPartition::uniform(a->rows(), ro.block_size), {ro.local_iters});
  const bars::BlockAsyncOptions ao = served_options(ro);
  std::vector<double> walls;
  LoopResult r;
  const auto before = svc.stats().plan_cache;
  for (std::size_t j = 0; j < 3 || Clock::now() < until; ++j) {
    SolveRequest req;
    req.matrix = a;
    req.b = rhs[j % kRhs];
    req.options = ro;
    const std::int32_t root = tracer.begin("service.request", -1, j);
    const std::int32_t sub = tracer.begin("service.submit", root, j);
    auto ticket = svc.submit(std::move(req));
    tracer.end(sub);
    const std::int32_t wait = tracer.begin("service.wait", root, j);
    const SolveResponse& resp = ticket->wait();
    tracer.end(wait);
    tracer.end(root);
    check_reply(resp, *a, rhs[j % kRhs], ro.solve.tol, j, out);
    r.latency_s.push_back(tracer.seconds(root));
    r.queue_s.push_back(resp.queue_seconds);
    r.batch_sum += static_cast<double>(resp.batch_size);
    if (j % kRhs == 0) {
      r.reference_solve_s.push_back(resp.solve_seconds);
      standalone_solves(*a, rhs[0], *kernel, ao, resp.result.x, 1, walls,
                        out);
    }
  }
  r.count_plan_cache(before, svc.stats().plan_cache);
  return loop_layers(r, median(walls));
}

Outcome run_service(const Args& args, Tracer* tracer, double triad_gbps) {
  const Mix mix = make_mix(args.seed);
  const double tol = mix.options.solve.tol;
  Outcome out;
  std::size_t next = 0;

  if (tracer == nullptr) {
    std::vector<double> setups;
    const auto set_up = [&] {
      const auto t0 = Clock::now();
      auto svc = std::make_unique<SolveService>(mixed_service_options());
      const SolveResponse resp = svc->submit(mix.request(0))->wait();
      setups.push_back(seconds_since(t0));
      check_reply(resp, mix.matrix(0), mix.rhs(0), tol, 0, out);
      return svc;
    };
    // The window is cut into segments of one service's closed loop; the
    // set-ups run between segments (the measured service is drained
    // then), so their median is taken over the same stretch of host
    // load as the window's.
    const std::unique_ptr<SolveService> svc = set_up();
    next = 1;
    LoopResult r;
    for (int seg = 0; seg < kSegments; ++seg) {
      for (int k = seg == 0 ? 1 : 0; k < kSetupsPerSegment; ++k) set_up();
      r.append(closed_loop(*svc, mix, next, seg == 0 ? kWarmup : 0,
                           args.seconds / kSegments, nullptr, nullptr, out));
    }
    if (r.block_rps.empty()) {
      out.fail("window too short: no segment completed " +
               std::to_string(kRpsBlock) + " requests");
    }
    out.add("setup_s", median(setups), "s",
            "p50 of " + std::to_string(setups.size()) +
                " x (SolveService construction + first hot request to "
                "reply), spread over the window");
    out.add("solve_s", median(r.solve_s), "s",
            "p50 of replies' solve_seconds (dispatch to completion), " +
                samples(r.solve_s));
    out.add("rps", median(r.block_rps), "1/s",
            "p50 of the throughput of " +
                std::to_string(r.block_rps.size()) + " runs of " +
                std::to_string(kRpsBlock) +
                " consecutive completions, closed loop with " +
                std::to_string(kWindow) + " outstanding, " +
                samples(r.latency_s));
    out.print("rps_window", r.rps(), "1/s",
              "completed requests per second of the whole window");
    const double tail = tail_percentile(r.latency_s.size());
    out.print("latency_p50_ms", 1e3 * median(r.latency_s), "ms",
              "submit to reply, " + samples(r.latency_s));
    out.print("latency_p" + std::to_string(std::lround(100 * tail)) + "_ms",
              1e3 * percentile(r.latency_s, tail), "ms",
              "submit to reply, " + samples(r.latency_s) +
                  " (highest percentile with >= 10 samples beyond it)");
    out.print("queue_p50_ms", 1e3 * median(r.queue_s), "ms",
              "p50 of replies' queue_seconds (submit to dispatch)");
    return out;
  }

  // Plan builds, timed through PlanCache::acquire on a private cache
  // large enough that every distinct matrix misses exactly once.
  bars::service::PlanCache cache(kColdMatrices + 1);
  const bars::service::PlanConfig config{mix.options.block_size,
                                         mix.options.local_iters,
                                         mix.options.backend};
  std::vector<double> builds;
  std::vector<const bars::Csr*> all = {mix.hot.get()};
  for (const auto& c : mix.cold) all.push_back(c.get());
  for (std::size_t k = 0; k < all.size(); ++k) {
    bool hit = true;
    const std::int32_t span = tracer->begin("service.plan_cache.acquire", -1, k);
    const auto plan = cache.acquire(*all[k], config, &hit);
    tracer->end(span);
    builds.push_back(tracer->seconds(span));
    out.check(!hit && plan->kernel != nullptr &&
                  plan->kernel->backend_name() == mix.options.backend,
              "plan build " + std::to_string(k) + " failed or was not a miss");
  }
  out.add("backend.build_ms", 1e3 * median(builds), "ms",
          "p50 of " + std::to_string(builds.size()) +
              " PlanCache::acquire misses (one per distinct matrix)");

  std::vector<double> spmv;
  for (int r = 0; r < 101; ++r) {
    const std::int32_t span = tracer->begin("sparse.relative_residual", -1, r);
    const double res =
        bars::relative_residual(*mix.hot, mix.hot_rhs[0], mix.hot_rhs[0]);
    tracer->end(span);
    spmv.push_back(tracer->seconds(span));
    if (!std::isfinite(res)) out.fail("relative_residual is not finite");
  }
  out.add("sparse.spmv_ms", 1e3 * median(spmv), "ms",
          "p50 of 101 relative_residual calls on the hot matrix");

  // The hot request solved standalone, exactly as the service would.
  const bars::BlockAsyncOptions ao = served_options(mix.options);
  const auto kernel = bars::backend::build_kernel(
      mix.options.backend, *mix.hot, mix.hot_rhs[0],
      bars::RowPartition::uniform(mix.hot->rows(), mix.options.block_size),
      {mix.options.local_iters});
  const SolveLayers sl = measure_solve_layers(
      *mix.hot, mix.hot_rhs[0], *kernel, ao, *tracer, 1.0, 10, 0, out);
  report_solve_layers(out, sl, triad_gbps, "the hot request (standalone)");

  // Same service, same traffic: untraced and traced segments alternate
  // so host drift favours neither side. After each traced segment (the
  // service is idle then) the reference request is solved standalone,
  // so lock_wait_ms compares replies and standalone solves of the same
  // request taken over the same stretch of host load.
  constexpr int kStandalonePerSegment = 20;
  SolveService svc(mixed_service_options());
  LoopResult plain, traced;
  std::vector<double> standalone;
  for (int seg = 0; seg < kSegments; ++seg) {
    const bool on = seg % 2 == 1;
    (on ? traced : plain)
        .append(closed_loop(svc, mix, next, seg == 0 ? kWarmup : 0,
                            args.seconds / kSegments, on ? tracer : nullptr,
                            &sl.x, out));
    if (on) {
      standalone_solves(*mix.hot, mix.hot_rhs[0], *kernel, ao, sl.x,
                        kStandalonePerSegment, standalone, out);
    }
  }
  report_service_layers(out, loop_layers(traced, median(standalone)),
                        "traced segments of the closed loop");
  out.add("trace.overhead_frac", plain.rps() / traced.rps() - 1.0, "ratio",
          "untraced / traced rps - 1 over " +
              std::to_string(kSegments) + " alternating segments (" +
              samples(plain.latency_s) + " vs " + samples(traced.latency_s) +
              "); standalone hot solve: " +
              std::to_string(sl.traced_p50_s / sl.untraced_p50_s - 1.0));
  return out;
}

}  // namespace perfbench
