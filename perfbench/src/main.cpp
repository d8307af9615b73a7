/// End-to-end benchmark of the BARS library and solve service.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--trace-dir <dir>]
///
/// Workloads: solve-tref20k-async1, solve-fv-async5-simd, svc-mixed.
/// --trace 0 prints the end-to-end metrics; --trace 1 prints the
/// per-layer metrics of a traced run and writes its spans to
/// <trace-dir>/<workload>.spans.jsonl. Every metric is printed with its
/// unit; the last line of stdout is one JSON object
/// {"correct", "attempted", "failed", "metrics"}. Exit status: 0 when
/// every output check passed, 1 when one failed, 2 on bad arguments,
/// 3 when the requested backend is not the one that ran.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <string>

#include "common.hpp"
#include "host.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <solve-tref20k-async1|"
               "solve-fv-async5-simd|svc-mixed> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) usage("unexpected argument " + key);
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage("missing value for " + key);
    }
    try {
      if (key == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (key == "--trace-dir") {
        a.trace_dir = value;
      } else {
        usage("unknown flag " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + key);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!is_library_workload(a.workload) && !is_service_workload(a.workload)) {
    usage("unknown workload " + a.workload);
  }
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  return a;
}

std::string mib(std::size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f MiB",
                static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void print_metric(const Metric& m) {
  const bool wall = m.unit == "ms" || m.unit == "s" || m.unit == "1/s" ||
                    m.unit == "GB/s";
  std::printf("  %-24s = %-14.6g %-8s %s%s\n", m.name.c_str(), m.value,
              m.unit.c_str(), wall ? "[wall-clock] " : "", m.note.c_str());
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const HostFacts host = host_facts();
  std::cout << "perfbench: workload " << args.workload << ", seed "
            << args.seed << ", " << args.seconds << " s measured, tracing "
            << (args.trace ? "on (per-layer run)" : "off (end-to-end run)")
            << "\nall times are wall-clock (std::chrono::steady_clock); "
               "counts are exact\n";
  std::cout << "host {\"nproc\":" << host.nproc << ",\"cpu\":\""
            << json_escape(host.cpu_model) << "\",\"l2_bytes\":"
            << host.l2_bytes << ",\"llc_bytes\":" << host.llc_bytes
            << ",\"compiler\":\"" << json_escape(host.compiler)
            << "\",\"build_type\":\"" << host.build_type << "\",\"seed\":"
            << args.seed << "}\n";

  Outcome out;
  std::unique_ptr<Tracer> tracer;
  try {
    double triad_gbps = 0.0;
    if (args.trace) {
      const TriadResult triad = run_triad(host.llc_bytes);
      triad_gbps = triad.gbps;
      std::cout << "host triad: " << triad.gbps << " GB/s, one thread, 3 "
                << "arrays of " << mib(triad.array_bytes) << " each (LLC "
                << mib(host.llc_bytes) << "), best of " << triad.reps << "\n";
      tracer = std::make_unique<Tracer>(std::size_t{1} << 21);
    }
    out = is_library_workload(args.workload)
              ? run_library(args, tracer.get(), triad_gbps)
              : run_service(args, tracer.get(), triad_gbps);
    if (args.trace) {
      out.add("host.triad_gbps", triad_gbps, "GB/s",
              "STREAM triad, one thread, arrays >= 4 x LLC");
    }
  } catch (const BackendGuardError& e) {
    std::cerr << "perfbench: backend guard: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  for (Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.fail(m.name + " is not finite");
      m.value = 0.0;
    }
  }
  out.print("failed_ratio",
            static_cast<double>(out.failed) /
                static_cast<double>(std::max<std::uint64_t>(out.attempted, 1)),
            "ratio",
            std::to_string(out.failed) + " failed of " +
                std::to_string(out.attempted) + " checked operations");
  std::cout << "metrics (in the JSON result):\n";
  for (const Metric& m : out.metrics) print_metric(m);
  std::cout << "also measured (printed only):\n";
  for (const Metric& m : out.printed) print_metric(m);
  for (const std::string& e : out.errors) std::cout << "CHECK FAILED: " << e << "\n";

  if (tracer && !args.trace_dir.empty()) {
    const std::string path =
        args.trace_dir + "/" + args.workload + ".spans.jsonl";
    tracer->write_jsonl(path);
    std::cout << "spans written to " << path << "\n";
  }

  std::cout << "{\"correct\": " << (out.correct() ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return out.correct() ? 0 : 1;
}
