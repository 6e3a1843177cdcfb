// tcprx_check's policy: the token lists, layer DAG and exempt files every rule reads.
//
// The project has one policy, compiled in as ProjectConfig(). The rules take a
// `const Config&` so the fixture tests run the same engine against a synthetic tree
// under that same policy.

#ifndef SRC_ANALYSIS_CONFIG_H_
#define SRC_ANALYSIS_CONFIG_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace tcprx::analysis {

struct Config {
  // -- determinism ------------------------------------------------------------------
  // Identifiers banned when called (followed by '('): wall clocks, libc RNG.
  std::vector<std::string> determinism_banned_calls;
  // Identifiers banned on sight: std RNG engine/clock type names.
  std::vector<std::string> determinism_banned_types;
  // Files (repo-relative) exempt from the determinism rule: the sanctioned RNG and
  // simulated-clock implementations.
  std::set<std::string> determinism_exempt_files;

  // -- layering ---------------------------------------------------------------------
  // layer dir (e.g. "src/tcp") -> set of layer dirs it may include from. A layer
  // missing from the map may not include any "src/..." header outside itself.
  std::map<std::string, std::set<std::string>> layer_allow;

  // -- byteorder --------------------------------------------------------------------
  // Files allowed to byte-swap (the byte-order helpers themselves).
  std::set<std::string> byteorder_helper_files;
  // Identifiers banned outside the helper files (htons and friends, bswap builtins).
  std::vector<std::string> byteorder_banned;

  // -- charge -----------------------------------------------------------------------
  // Layer dirs whose functions must account their cycle costs.
  std::set<std::string> charge_layers;
  // Header/payload-touching primitives: calling one inside a charged layer requires a
  // Charge* call in the same function (or an allow annotation).
  std::vector<std::string> charge_primitives;
  // Call names that count as charging.
  std::vector<std::string> charge_calls;

  // -- smp-share --------------------------------------------------------------------
  // Layer dir holding the multi-core subsystem.
  std::string smp_layer;
  // Classes whose instances are shared across core shards: every mutable data member
  // must carry a sharing annotation.
  std::set<std::string> smp_shared_classes;
  // Annotation macros that satisfy the rule.
  std::vector<std::string> smp_annotations;
};

// The project's policy (defined in config.cc), the one config tcprx_check runs with.
const Config& ProjectConfig();

}  // namespace tcprx::analysis

#endif  // SRC_ANALYSIS_CONFIG_H_
