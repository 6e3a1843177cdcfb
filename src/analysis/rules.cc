#include "src/analysis/rules.h"

#include <algorithm>
#include <set>

namespace tcprx::analysis {
namespace {

constexpr const char* kDeterminism = "determinism";
constexpr const char* kLayering = "layering";
constexpr const char* kGuard = "guard";
constexpr const char* kByteOrder = "byteorder";
constexpr const char* kCharge = "charge";
constexpr const char* kSmpShare = "smp-share";

bool Contains(const std::vector<std::string>& list, const std::string& s) {
  return std::find(list.begin(), list.end(), s) != list.end();
}

// True when tokens[i] is preceded by a member-access operator ('.' or '->'), meaning
// the word is a member of some object rather than a free function/type.
bool IsMemberAccess(const std::vector<Token>& t, size_t i) {
  if (i == 0) {
    return false;
  }
  if (t[i - 1].text == ".") {
    return true;
  }
  return i >= 2 && t[i - 1].text == ">" && t[i - 2].text == "-";
}

void Emit(const AnalyzedFile& file, const char* rule, int line, std::string message,
          std::vector<Finding>& out) {
  if (file.lex.AllowedAt(rule, line)) {
    return;
  }
  out.push_back({file.path, line, rule, std::move(message)});
}

}  // namespace

void CheckDeterminism(const AnalyzedFile& file, const Config& config,
                      std::vector<Finding>& out) {
  if (config.determinism_exempt_files.count(file.path) > 0) {
    return;
  }
  const auto& t = file.lex.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!t[i].is_word) {
      continue;
    }
    if (Contains(config.determinism_banned_types, t[i].text)) {
      Emit(file, kDeterminism, t[i].line,
           "'" + t[i].text + "' is nondeterministic across runs/platforms; use the seeded "
           "Rng in src/util/rng.h or SimTime from src/util/sim_time.h",
           out);
      continue;
    }
    const bool is_call = i + 1 < t.size() && t[i + 1].text == "(";
    if (is_call && !IsMemberAccess(t, i) &&
        Contains(config.determinism_banned_calls, t[i].text)) {
      Emit(file, kDeterminism, t[i].line,
           "call to '" + t[i].text + "' reads wall-clock/global entropy; the simulation "
           "must be a pure function of its seed",
           out);
      continue;
    }
    // Pointer-keyed associative containers iterate in address order, which varies
    // run to run under ASLR — anything derived from that order is nondeterministic.
    if ((t[i].text == "map" || t[i].text == "set" || t[i].text == "unordered_map" ||
         t[i].text == "unordered_set") &&
        i + 1 < t.size() && t[i + 1].text == "<") {
      int depth = 1;
      bool pointer_key = false;
      for (size_t k = i + 2; k < t.size() && depth > 0; ++k) {
        if (t[k].text == "<") {
          ++depth;
        } else if (t[k].text == ">") {
          --depth;
        } else if (depth == 1 && t[k].text == ",") {
          break;  // end of the key type
        } else if (t[k].text == "*") {
          pointer_key = true;
        } else if (t[k].text == "(" || t[k].text == ";") {
          break;  // not a template-argument list after all (e.g. `a < b`)
        }
      }
      if (pointer_key) {
        Emit(file, kDeterminism, t[i].line,
             "pointer-keyed '" + t[i].text + "' iterates in address order, which is not "
             "stable across runs; key on a value (id, FlowKey, index) instead",
             out);
      }
    }
  }
}

void CheckLayering(const AnalyzedFile& file, const Config& config,
                   std::vector<Finding>& out) {
  if (file.layer.empty()) {
    return;  // tools/bench/tests may include anything
  }
  auto allowed_it = config.layer_allow.find(file.layer);
  for (const IncludeDirective& inc : file.lex.includes) {
    if (inc.path.rfind("src/", 0) != 0) {
      continue;  // system or third-party header
    }
    const size_t slash = inc.path.find('/', 4);
    const std::string target =
        slash == std::string::npos ? inc.path : inc.path.substr(0, slash);
    if (target == file.layer) {
      continue;
    }
    if (allowed_it == config.layer_allow.end()) {
      Emit(file, kLayering, inc.line,
           "layer '" + file.layer + "' is not in the layering DAG (src/analysis/config.cc) but "
           "includes \"" + inc.path + "\"",
           out);
      continue;
    }
    if (allowed_it->second.count(target) == 0) {
      Emit(file, kLayering, inc.line,
           "'" + file.layer + "' must not include \"" + inc.path + "\": '" + target +
           "' is not below it in the receive-path DAG "
           "(wire -> buffer -> nic/driver -> ip -> tcp -> stack -> smp/sim)",
           out);
    }
  }
}

void CheckHeaderGuard(const AnalyzedFile& file, const Config& /*config*/,
                      std::vector<Finding>& out) {
  if (!file.is_header) {
    return;
  }
  if (!file.lex.has_pragma_once && !file.lex.has_ifndef_guard) {
    Emit(file, kGuard, 1,
         "header has neither '#pragma once' nor a leading matching #ifndef/#define "
         "include guard",
         out);
  }
}

void CheckByteOrder(const AnalyzedFile& file, const Config& config,
                    std::vector<Finding>& out) {
  if (config.byteorder_helper_files.count(file.path) > 0) {
    return;
  }
  const auto& t = file.lex.tokens;
  for (size_t i = 0; i < t.size(); ++i) {
    if (!t[i].is_word) {
      continue;
    }
    if (Contains(config.byteorder_banned, t[i].text)) {
      Emit(file, kByteOrder, t[i].line,
           "'" + t[i].text + "' bypasses the project byte-order helpers; use "
           "LoadBe*/StoreBe* (src/util/byte_order.h)",
           out);
    }
  }
}

void CheckCharge(const AnalyzedFile& file, const Config& config, std::vector<Finding>& out) {
  if (config.charge_layers.count(file.layer) == 0) {
    return;
  }
  const auto& t = file.lex.tokens;
  for (const Region& region : file.structure.regions) {
    if (region.kind != ScopeKind::kFunction || region.close <= region.open) {
      continue;
    }
    bool charges = false;
    struct Primitive {
      std::string name;
      int line;
    };
    std::vector<Primitive> primitives;
    for (size_t i = region.open + 1; i < region.close; ++i) {
      if (!t[i].is_word || i + 1 >= t.size() || t[i + 1].text != "(") {
        continue;
      }
      if (Contains(config.charge_calls, t[i].text)) {
        charges = true;
      } else if (Contains(config.charge_primitives, t[i].text)) {
        primitives.push_back({t[i].text, t[i].line});
      }
    }
    if (charges) {
      continue;
    }
    for (const Primitive& p : primitives) {
      // An allowance on the primitive's own line or on the function's opening line
      // exempts it (the latter documents "charged by the caller" once per function).
      if (file.lex.AllowedAt(kCharge, region.open_line)) {
        continue;
      }
      Emit(file, kCharge, p.line,
           "'" + p.name + "' touches packet data but no Charge* call appears in the same "
           "function; per-packet work must be billed (or annotate why the caller pays)",
           out);
    }
  }
}

void CheckSmpSharing(const AnalyzedFile& file, const Config& config,
                     std::vector<Finding>& out) {
  if (file.layer != config.smp_layer) {
    return;
  }
  const auto& t = file.lex.tokens;

  auto has_annotation = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      if (t[i].is_word && Contains(config.smp_annotations, t[i].text)) {
        return true;
      }
    }
    return false;
  };

  // Walk statements that sit at namespace or class scope (i.e. outside any function
  // body), skipping over nested brace regions that belong to the statement itself
  // (brace initializers) and resetting at region boundaries.
  size_t stmt_start = 0;
  for (size_t i = 0; i < t.size(); ++i) {
    // Entering/leaving a classified region resets the statement.
    bool boundary = false;
    for (const Region& r : file.structure.regions) {
      if (r.open == i || r.close == i) {
        if (r.kind == ScopeKind::kBlock && r.open == i && r.close > i) {
          i = r.close;  // brace initializer inside the statement: skip its body
        } else {
          boundary = true;
        }
        break;
      }
    }
    if (boundary) {
      stmt_start = i + 1;
      continue;
    }
    if (t[i].text == ":" && i > 0 && t[i - 1].is_word &&
        (t[i - 1].text == "public" || t[i - 1].text == "private" ||
         t[i - 1].text == "protected")) {
      stmt_start = i + 1;  // access-specifier label, not part of the declaration
      continue;
    }
    if (t[i].text != ";") {
      continue;
    }
    // Statement [stmt_start, i). Only statements outside function bodies matter.
    if (stmt_start < i && !file.structure.InsideFunction(stmt_start)) {
      bool is_static = false;
      bool is_immutable = false;
      bool has_paren = false;
      bool has_assign = false;
      for (size_t k = stmt_start; k < i; ++k) {
        const std::string& w = t[k].text;
        if (w == "static") {
          is_static = true;
        } else if (w == "const" || w == "constexpr" || w == "constinit" || w == "using" ||
                   w == "typedef" || w == "friend" || w == "extern") {
          is_immutable = true;
        } else if (w == "(") {
          if (!has_assign) {
            has_paren = true;  // '(' before any '=' means a function declaration
          }
        } else if (w == "=") {
          has_assign = true;
        }
      }
      const bool is_variable = !has_paren || has_assign;
      if (is_static && is_variable && !is_immutable &&
          !has_annotation(stmt_start, i)) {
        Emit(file, kSmpShare, t[stmt_start].line,
             "mutable static state in src/smp without a TCPRX_GUARDED_BY(...)/"
             "TCPRX_SHARED annotation; cross-core state must declare its sharing "
             "discipline",
             out);
      } else if (!is_static && is_variable && !is_immutable) {
        // Mutable data members of classes shared across core shards.
        const Region* cls = file.structure.EnclosingClass(stmt_start);
        if (cls != nullptr && config.smp_shared_classes.count(cls->name) > 0 &&
            !has_annotation(stmt_start, i)) {
          Emit(file, kSmpShare, t[stmt_start].line,
               "mutable member of cross-core shared class '" + cls->name +
               "' lacks a TCPRX_GUARDED_BY(...)/TCPRX_SHARED annotation",
               out);
        }
      }
    }
    stmt_start = i + 1;
  }
}

void CheckAll(const AnalyzedFile& file, const Config& config, std::vector<Finding>& out) {
  CheckDeterminism(file, config, out);
  CheckLayering(file, config, out);
  CheckHeaderGuard(file, config, out);
  CheckByteOrder(file, config, out);
  CheckCharge(file, config, out);
  CheckSmpSharing(file, config, out);
}

}  // namespace tcprx::analysis
