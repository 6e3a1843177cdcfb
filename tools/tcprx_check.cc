// tcprx_check: the project's domain-invariant static analyzer.
//
// Enforces what generic tooling cannot: the simulator must be a deterministic pure
// function of its seed, includes must follow the receive-path layer DAG, raw
// big-endian wire bytes stay behind the byte-order helpers, per-packet work in the
// charged layers must bill cycles through Charger, and cross-core shared state in
// src/smp must declare its sharing discipline. Rules and their token/layer lists
// are compiled in (ProjectConfig(), src/analysis/config.cc); per-line escapes use
// `// tcprx-check: allow(<rule>)`.
//
// Usage: tcprx_check [--quiet] path...   (run from the repo root)
// Exits 0 when the tree is clean, 1 when there are findings, 2 on usage errors.

#include <cstdio>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"

int main(int argc, char** argv) {
  bool quiet = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: tcprx_check [--quiet] path...\n");
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "tcprx_check: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr, "tcprx_check: no paths given (try: tcprx_check src tools bench)\n");
    return 2;
  }

  std::string error;
  const std::vector<std::string> files = tcprx::analysis::CollectFiles(paths, error);
  if (!error.empty()) {
    std::fprintf(stderr, "tcprx_check: %s\n", error.c_str());
    return 2;
  }
  const std::vector<tcprx::analysis::Finding> findings =
      tcprx::analysis::RunChecks(files, tcprx::analysis::ProjectConfig(), error);
  if (!error.empty()) {
    std::fprintf(stderr, "tcprx_check: %s\n", error.c_str());
    return 2;
  }
  if (!quiet) {
    for (const auto& f : findings) {
      std::printf("%s\n", tcprx::analysis::FormatFinding(f).c_str());
    }
    std::printf("tcprx_check: %zu file(s), %zu finding(s)\n", files.size(), findings.size());
  }
  return findings.empty() ? 0 : 1;
}
