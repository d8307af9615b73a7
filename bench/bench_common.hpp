#pragma once

/// Shared helpers for the reproduction harnesses in bench/.

#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "matrices/paper_suite.hpp"
#include "report/args.hpp"
#include "report/table.hpp"
#include "sparse/types.hpp"

namespace bars::bench {

/// Uniform right-hand side (the paper takes one RHS per system; we use
/// b = 1 so runs are reproducible).
inline Vector unit_rhs(index_t n) {
  return Vector(static_cast<std::size_t>(n), 1.0);
}

/// Optional --ufmc=<dir> pointing at original UFMC .mtx files.
inline std::optional<std::string> ufmc_dir(const report::Args& args) {
  const std::string dir = args.get_string("ufmc", "");
  return dir.empty() ? std::nullopt : std::make_optional(dir);
}

/// Uniform typo guard for the harness entry points: a flag the binary
/// never reads is a hard error (exit 2), not a silent no-op. Call right
/// after constructing Args and propagate a non-zero return; `known`
/// lists the binary's own flags (include "ufmc" wherever ufmc_dir() is
/// consulted).
inline int require_known_flags(const report::Args& args,
                               const std::string& binary,
                               const std::vector<std::string>& known) {
  const auto unknown = args.unknown_keys(known);
  if (unknown.empty()) return 0;
  std::cerr << binary << ": unknown flag --" << unknown.front() << '\n';
  return 2;
}

/// The clock a bench's timings are measured on.
enum class Timings {
  kVirtual,  ///< simulated seconds on the paper's hardware model
  kWall,     ///< real elapsed seconds on the host running the bench
};

/// Print the standard bench banner, naming the clock behind its timings.
inline void banner(const std::string& what, const std::string& paper_ref,
                   Timings timings) {
  std::cout << "=== " << what << " ===\n"
            << "reproduces: " << paper_ref << "\n"
            << (timings == Timings::kVirtual
                    ? "(timings are virtual seconds on the paper's hardware "
                      "model; see DESIGN.md)\n\n"
                    : "(timings are wall-clock seconds on the host running "
                      "this binary)\n\n");
}

}  // namespace bars::bench
