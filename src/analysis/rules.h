// The five domain-invariant rule families tcprx_check enforces.
//
// Rule ids (used in findings, config, and `// tcprx-check: allow(<rule>)`):
//   determinism  - no wall clocks, libc/std RNG, or pointer-keyed containers
//   layering     - includes must follow the receive-path DAG
//   guard        - headers need #pragma once or a matching #ifndef guard
//   byteorder    - no byte-swap calls outside the LoadBe*/StoreBe* helpers
//   charge       - packet-touching primitives in charged layers must bill cycles
//   smp-share    - shared mutable state in src/smp must be annotated

#ifndef SRC_ANALYSIS_RULES_H_
#define SRC_ANALYSIS_RULES_H_

#include <string>
#include <vector>

#include "src/analysis/config.h"
#include "src/analysis/finding.h"
#include "src/analysis/lexer.h"
#include "src/analysis/structure.h"

namespace tcprx::analysis {

// One source file, lexed and structured, ready for the rules.
struct AnalyzedFile {
  std::string path;   // normalized, repo-relative (e.g. "src/tcp/sack.cc")
  std::string layer;  // "src/tcp" for files under src/, empty otherwise
  bool is_header = false;
  LexedFile lex;
  StructureInfo structure;
};

void CheckDeterminism(const AnalyzedFile& file, const Config& config,
                      std::vector<Finding>& out);
void CheckLayering(const AnalyzedFile& file, const Config& config, std::vector<Finding>& out);
void CheckHeaderGuard(const AnalyzedFile& file, const Config& config,
                      std::vector<Finding>& out);
void CheckByteOrder(const AnalyzedFile& file, const Config& config, std::vector<Finding>& out);
void CheckCharge(const AnalyzedFile& file, const Config& config, std::vector<Finding>& out);
void CheckSmpSharing(const AnalyzedFile& file, const Config& config,
                     std::vector<Finding>& out);

// Runs every rule over `file`.
void CheckAll(const AnalyzedFile& file, const Config& config, std::vector<Finding>& out);

}  // namespace tcprx::analysis

#endif  // SRC_ANALYSIS_RULES_H_
