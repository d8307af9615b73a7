/// Golden pin for the discrete-event executor: seeded single- and
/// multi-device runs must reproduce these fingerprints. Counts, bytes
/// and resilience counters compare exactly in every build. Residual
/// and time histories and the iterate compare bit for bit (FNV-1a over
/// the IEEE-754 bit patterns) in the default build; when the compiler
/// may contract into FMA (`__FMA__`, e.g. BARS_ENABLE_NATIVE_ARCH on an
/// AVX2 host) they compare within stated tolerances instead, on the
/// final residual, the final virtual time and the sum of the iterate.
///
/// On a mismatch the failure message prints the run's actual row in
/// table syntax, so an intended behaviour change is re-pinned by
/// pasting it over the old row.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/block_async.hpp"
#include "matrices/generators.hpp"

namespace bars {
namespace {

#if defined(__FMA__)
constexpr bool kBitExact = false;
#else
constexpr bool kBitExact = true;
#endif
/// Relative tolerances of the FMA-contracted comparison. The final
/// residual (~1e-10) is dominated by rounding in the residual SpMV
/// itself, so it gets the loose bound; virtual time and the iterate sum
/// only see last-bit differences.
constexpr value_t kResidualRelTol = 1e-2;
constexpr value_t kRelTol = 1e-9;

struct Pin {
  const char* name;
  int status;
  index_t iterations;
  std::uint64_t executions;  ///< FNV-1a of the per-block commit counts
  index_t transfers;
  value_t bytes_host_device;
  value_t bytes_device_device;
  index_t checkpoints;
  index_t detections;
  index_t rollbacks;
  index_t restarts;
  index_t reassignments;
  index_t corruptions;
  index_t retries;
  std::uint64_t history;  ///< FNV-1a of residual_history ++ time_history
  std::uint64_t x;        ///< FNV-1a of the final iterate
  value_t final_residual;
  value_t final_time;
  value_t x_sum;
};

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 1099511628211ULL;
    }
  }
  void add(value_t v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  void add(const std::vector<value_t>& v) {
    for (value_t e : v) add(e);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

Pin fingerprint(const char* name, const BlockAsyncResult& r) {
  const SolveResult& s = r.solve;
  const resilience::Report& rep = r.resilience;
  Pin p{};
  p.name = name;
  p.status = static_cast<int>(s.status);
  p.iterations = s.iterations;
  Fnv e;
  for (index_t c : r.block_executions) e.add(static_cast<std::uint64_t>(c));
  p.executions = e.value();
  p.transfers = r.num_transfers;
  p.bytes_host_device = r.bytes_host_device;
  p.bytes_device_device = r.bytes_device_device;
  p.checkpoints = rep.checkpoints_saved;
  p.detections = rep.detections;
  p.rollbacks = rep.rollbacks;
  p.restarts = rep.damped_restarts;
  p.reassignments = rep.watchdog_reassignments;
  p.corruptions = rep.halo_corruptions;
  p.retries = rep.transfer_retries;
  Fnv h;
  h.add(s.residual_history);
  h.add(s.time_history);
  p.history = h.value();
  Fnv xh;
  xh.add(s.x);
  p.x = xh.value();
  p.final_residual = s.final_residual;
  p.final_time = s.time_history.empty() ? 0.0 : s.time_history.back();
  p.x_sum = 0.0;
  for (value_t v : s.x) p.x_sum += v;
  return p;
}

std::string row(const Pin& p) {
  std::ostringstream os;
  os << std::setprecision(17) << "{\"" << p.name << "\", " << p.status
     << ", " << p.iterations << ", " << p.executions << "ULL, "
     << p.transfers << ", " << p.bytes_host_device << ", "
     << p.bytes_device_device << ", " << p.checkpoints << ", "
     << p.detections << ", " << p.rollbacks << ", " << p.restarts << ", "
     << p.reassignments << ", " << p.corruptions << ", " << p.retries
     << ", " << p.history << "ULL, " << p.x << "ULL, " << p.final_residual
     << ", " << p.final_time << ", " << p.x_sum << "}";
  return os.str();
}

void expect_pinned(const Pin& want, const Pin& got) {
  SCOPED_TRACE(std::string(want.name) + "\n  actual: " + row(got));
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.executions, want.executions);
  EXPECT_EQ(got.transfers, want.transfers);
  EXPECT_EQ(got.bytes_host_device, want.bytes_host_device);
  EXPECT_EQ(got.bytes_device_device, want.bytes_device_device);
  EXPECT_EQ(got.checkpoints, want.checkpoints);
  EXPECT_EQ(got.detections, want.detections);
  EXPECT_EQ(got.rollbacks, want.rollbacks);
  EXPECT_EQ(got.restarts, want.restarts);
  EXPECT_EQ(got.reassignments, want.reassignments);
  EXPECT_EQ(got.corruptions, want.corruptions);
  EXPECT_EQ(got.retries, want.retries);
  if (kBitExact) {
    EXPECT_EQ(got.history, want.history);
    EXPECT_EQ(got.x, want.x);
  } else {
    EXPECT_NEAR(got.final_residual, want.final_residual,
                kResidualRelTol * want.final_residual);
    EXPECT_NEAR(got.final_time, want.final_time, kRelTol * want.final_time);
    EXPECT_NEAR(got.x_sum, want.x_sum, kRelTol * std::abs(want.x_sum));
  }
}

struct Problem {
  Csr a = fv_like(12, 0.6);  // n = 144
  Vector b = Vector(static_cast<std::size_t>(a.rows()), 1.0);
};

BlockAsyncOptions single_base() {
  BlockAsyncOptions o;
  o.block_size = 16;  // 9 blocks
  o.local_iters = 2;
  o.solve.max_iters = 400;
  o.solve.tol = 1e-10;
  o.seed = 7;
  return o;
}

Pin run(const std::string& name, const BlockAsyncOptions& o) {
  const Problem p;
  return fingerprint(name.c_str(), block_async_solve(p.a, p.b, o));
}

BlockAsyncOptions multi_base(index_t devices, gpusim::TransferScheme scheme) {
  BlockAsyncOptions o;
  o.num_devices = devices;
  o.transfer = gpusim::TransferOptions{scheme};
  o.block_size = 16;
  o.local_iters = 2;
  o.solve.max_iters = 400;
  o.solve.tol = 1e-10;
  o.seed = 5;
  return o;
}

// clang-format off
const Pin kSinglePins[] = {
    {"round-robin", 1, 87, 2456562494670612786ULL, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 14357151395210626585ULL, 3658540252452201324ULL, 9.8516380320025145e-11, 0.023011499554559955, 177.02759567497765},
    {"jittered", 1, 90, 6157405254801709727ULL, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 12351789235490258502ULL, 14210441651392556818ULL, 7.9585653252758605e-11, 0.026185430977014229, 177.02759567981298},
    {"jittered-4-workers", 1, 90, 6157405254801709727ULL, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 12351789235490258502ULL, 14210441651392556818ULL, 7.9585653252758605e-11, 0.026185430977014229, 177.02759567981298},
    {"shuffled", 1, 91, 10785779983296216506ULL, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1010137661472380768ULL, 12694764469661104074ULL, 7.7043370466764507e-11, 0.02657350331940567, 177.02759567942951},
    {"shuffled-4-workers", 1, 91, 10785779983296216506ULL, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1010137661472380768ULL, 12694764469661104074ULL, 7.7043370466764507e-11, 0.02657350331940567, 177.02759567942951},
    {"pattern-seed", 1, 90, 5409876515052802719ULL, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1009937388906847958ULL, 14906322283710447656ULL, 7.643569490159124e-11, 0.025635222349801701, 177.02759567886523},
    {"faults-with-policy", 4, 124, 3818535725159261657ULL, 0, 0, 0, 18, 12, 3, 1, 1, 6, 0, 11276526593572271826ULL, 13161440978548904477ULL, 9.1491601913429803e-11, 0.036073319759752219, 177.02759570651989},
};

const Pin kMultiPins[] = {
    {"amc-1", 1, 86, 8064549453135483953ULL, 86, 99072, 0, 0, 0, 0, 0, 0, 0, 0, 189460067098451788ULL, 14204682641882136770ULL, 9.8558284766954831e-11, 0.10540331617271485, 177.0275956755402},
    {"amc-2", 1, 111, 3612363951488165204ULL, 442, 254720, 0, 0, 0, 0, 0, 0, 0, 0, 9323122183008099648ULL, 10935721695742668499ULL, 8.2825665908081227e-11, 0.2239209106928636, 177.02759567993829},
    {"amc-3", 1, 112, 2754024283003138037ULL, 1002, 384768, 0, 0, 0, 0, 0, 0, 0, 0, 17601885416557635928ULL, 11351606252453231506ULL, 7.9790730337267202e-11, 0.78222863735320514, 177.02759567891633},
    {"amc-4", 1, 125, 18101768907190812248ULL, 1992, 573952, 0, 0, 0, 0, 0, 0, 0, 0, 6625273742040367058ULL, 2718527730548795364ULL, 8.9336380591307672e-11, 0.99846751223711483, 177.02759567850674},
    {"dc-1", 1, 92, 1882151363099332987ULL, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 15314266770174776130ULL, 12561258698572191083ULL, 7.7996497868884141e-11, 0.026734566772929531, 177.02759567954269},
    {"dc-2", 1, 109, 15434942976696493944ULL, 188, 0, 168448, 0, 0, 0, 0, 0, 0, 0, 13155944134737260190ULL, 553923714743793159ULL, 9.2944243170660587e-11, 0.48875514791003832, 177.02759567800598},
    {"dc-3", 1, 107, 17638653502950971396ULL, 380, 0, 291840, 0, 0, 0, 0, 0, 0, 0, 6033321538473524442ULL, 15109685135038525064ULL, 9.8770393989498238e-11, 0.94441535018899259, 177.02759567568228},
    {"dc-4", 1, 106, 12255180585359772257ULL, 614, 0, 445312, 0, 0, 0, 0, 0, 0, 0, 12012277105639266065ULL, 8039535949801348872ULL, 9.4044003848756064e-11, 1.5267904405011981, 177.02759567679607},
    {"dk-1", 1, 92, 1882151363099332987ULL, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 15314266770174776130ULL, 12561258698572191083ULL, 7.7996497868884141e-11, 0.026734566772929531, 177.02759567954269},
    {"dk-2", 1, 104, 9528353551248186443ULL, 83, 0, 53120, 0, 0, 0, 0, 0, 0, 0, 9856268488925395913ULL, 18267069478776963529ULL, 8.0566233828001333e-11, 0.049270948579803332, 177.02759567985714},
    {"dk-3", 1, 94, 16844016373282837231ULL, 177, 0, 67968, 0, 0, 0, 0, 0, 0, 0, 14683452320163302841ULL, 13999089445216947751ULL, 8.9617251492874307e-11, 0.050582021345967912, 177.02759567738909},
    {"dk-4", 1, 91, 13886236805466406362ULL, 274, 0, 81664, 0, 0, 0, 0, 0, 0, 0, 3568972969221523751ULL, 3936992210402922916ULL, 8.3810317937877542e-11, 0.051833065767987761, 177.02759567855276},
    {"amc-3-dropout-rejoin", 1, 120, 10541465307355884137ULL, 1074, 412416, 0, 0, 0, 0, 0, 0, 0, 0, 15837125050197195284ULL, 2529330787494527442ULL, 8.680541007076752e-11, 0.8586608019960067, 177.02759567777204},
    {"dc-2-link-failure", 1, 123, 7298527071875140254ULL, 186, 0, 166656, 0, 0, 0, 0, 0, 0, 3, 14547504049235264675ULL, 1289964509250975001ULL, 8.2446634633081602e-11, 0.49096617673173848, 177.0275956802646},
    {"amc-2-rollback", 4, 156, 6365349897186091001ULL, 622, 358400, 0, 23, 6, 3, 1, 0, 6, 0, 14644784951196738149ULL, 8776613125671836300ULL, 9.5776026070788331e-11, 0.31575047659187955, 177.02759570391609},
};
// clang-format on

const Pin& pinned(const Pin* table, std::size_t size, const std::string& name) {
  for (std::size_t i = 0; i < size; ++i) {
    if (name == table[i].name) return table[i];
  }
  static const Pin kMissing{"<missing>"};
  ADD_FAILURE() << "no pinned row named " << name;
  return kMissing;
}

std::vector<std::pair<std::string, BlockAsyncOptions>> single_runs() {
  std::vector<std::pair<std::string, BlockAsyncOptions>> runs;
  BlockAsyncOptions o = single_base();
  o.policy = gpusim::SchedulePolicy::kRoundRobin;
  runs.emplace_back("round-robin", o);
  o = single_base();
  runs.emplace_back("jittered", o);
  o.num_workers = 4;
  runs.emplace_back("jittered-4-workers", o);
  o = single_base();
  o.policy = gpusim::SchedulePolicy::kShuffled;
  runs.emplace_back("shuffled", o);
  o.num_workers = 4;
  runs.emplace_back("shuffled-4-workers", o);
  o = single_base();
  o.pattern_seed = 3;
  runs.emplace_back("pattern-seed", o);
  o = single_base();
  o.scenario = resilience::FaultScenario()
                   .fail_components(8, 0.25, std::nullopt, 1234)
                   .corrupt_halo(20, 4, 1e5, 0.2, 11);
  o.resilience = resilience::Policy{};
  runs.emplace_back("faults-with-policy", o);
  return runs;
}

std::vector<std::pair<std::string, BlockAsyncOptions>> multi_runs() {
  std::vector<std::pair<std::string, BlockAsyncOptions>> runs;
  const std::pair<const char*, gpusim::TransferScheme> schemes[] = {
      {"amc", gpusim::TransferScheme::kAMC},
      {"dc", gpusim::TransferScheme::kDC},
      {"dk", gpusim::TransferScheme::kDK}};
  for (const auto& [label, scheme] : schemes) {
    for (index_t d = 1; d <= 4; ++d) {
      runs.emplace_back(std::string(label) + "-" + std::to_string(d),
                        multi_base(d, scheme));
    }
  }
  BlockAsyncOptions o = multi_base(3, gpusim::TransferScheme::kAMC);
  o.scenario = resilience::FaultScenario().drop_device(5, 1, 10);
  runs.emplace_back("amc-3-dropout-rejoin", o);
  o = multi_base(2, gpusim::TransferScheme::kDC);
  o.scenario = resilience::FaultScenario().fail_link(5, 1, 10);
  runs.emplace_back("dc-2-link-failure", o);
  o = multi_base(2, gpusim::TransferScheme::kAMC);
  o.scenario = resilience::FaultScenario().corrupt_halo(20, 4, 1e5, 0.2, 11);
  o.resilience = resilience::Policy{};
  runs.emplace_back("amc-2-rollback", o);
  return runs;
}

TEST(ExecutorPin, SingleDeviceRunsMatchGolden) {
  for (const auto& [name, o] : single_runs()) {
    const Pin got = run(name, o);
    expect_pinned(pinned(kSinglePins, std::size(kSinglePins), name), got);
  }
}

TEST(ExecutorPin, MultiDeviceRunsMatchGolden) {
  for (const auto& [name, o] : multi_runs()) {
    const Pin got = run(name, o);
    expect_pinned(pinned(kMultiPins, std::size(kMultiPins), name), got);
  }
}

TEST(ExecutorPin, FaultRunsExerciseTheirMachinery) {
  // Guards the pin table against silently pinning inert scenarios.
  EXPECT_GT(pinned(kSinglePins, std::size(kSinglePins), "faults-with-policy")
                .checkpoints,
            0);
  EXPECT_GT(pinned(kMultiPins, std::size(kMultiPins), "dc-2-link-failure")
                .retries,
            0);
  EXPECT_GT(
      pinned(kMultiPins, std::size(kMultiPins), "amc-2-rollback").rollbacks,
      0);
}

}  // namespace
}  // namespace bars
