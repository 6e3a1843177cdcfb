#include "src/fuzz/scenario.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "src/util/rng.h"

namespace tcprx {
namespace fuzz {

namespace {

// The --events name of each fault kind, in enum order.
constexpr const char* kFaultKindNames[] = {"drop", "dup", "reo", "corr", "burst"};
static_assert(std::size(kFaultKindNames) ==
              static_cast<size_t>(FaultEvent::Kind::kBurstDrop) + 1);

// Parses `text` as a whole decimal number; false when it is empty or has trailing junk.
bool ParseNumber(const std::string& text, uint32_t* out) {
  char* end = nullptr;
  *out = static_cast<uint32_t>(std::strtoul(text.c_str(), &end, 10));
  return !text.empty() && *end == '\0';
}

}  // namespace

const char* FaultKindName(FaultEvent::Kind kind) {
  return kFaultKindNames[static_cast<size_t>(kind)];
}

const char* MutationName(Mutation mutation) {
  for (const auto& [entry, name] : kMutationNames) {
    if (entry == mutation) {
      return name;
    }
  }
  return "";
}

std::optional<Mutation> ParseMutation(std::string_view name) {
  for (const auto& [mutation, entry] : kMutationNames) {
    if (entry == name) {
      return mutation;
    }
  }
  return std::nullopt;
}

Scenario Scenario::FromSeed(uint64_t seed) {
  // Salted so scenario shape and the schedule interleaving (see differ.cc) draw from
  // decorrelated streams of the same seed.
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  Scenario s;
  s.seed = seed;

  static constexpr uint32_t kMssChoices[] = {536, 1448, 2896, 8948};
  s.mss = kMssChoices[rng.NextBelow(4)];
  s.aggregation_limit = 1 + rng.NextBelow(32);
  s.ack_offload = rng.NextBool(0.5);
  s.delayed_acks = rng.NextBool(0.75);
  s.bidirectional = rng.NextBool(0.25);
  // The cwnd-trace scenario drives one connection adaptively; unidirectional runs
  // interleave up to three flows to exercise cross-flow aggregation state.
  s.flows = s.bidirectional ? 1 : 1 + rng.NextBelow(3);
  s.frames = 24 + rng.NextBelow(96);
  s.batch = 1 + rng.NextBelow(24);

  const size_t n_faults = rng.NextBelow(6);  // 0..5 discrete events
  for (size_t i = 0; i < n_faults; ++i) {
    FaultEvent e;
    e.kind = static_cast<FaultEvent::Kind>(rng.NextBelow(5));
    e.index = static_cast<uint32_t>(rng.NextBelow(static_cast<uint64_t>(s.frames)));
    if (e.kind == FaultEvent::Kind::kReorder) {
      e.arg = 1 + static_cast<uint32_t>(rng.NextBelow(3));
    } else if (e.kind == FaultEvent::Kind::kBurstDrop) {
      e.arg = 2 + static_cast<uint32_t>(rng.NextBelow(3));
    }
    s.faults.push_back(e);
  }

  // Testbed tier: mild probabilistic faults (heavy loss just stalls the transfer in
  // RTO backoff and proves nothing about equivalence).
  s.cores = 1 + rng.NextBelow(4);
  if (rng.NextBool(0.5)) {
    s.drop_p = 0.03 * rng.NextDouble();
  }
  if (rng.NextBool(0.4)) {
    s.duplicate_p = 0.02 * rng.NextDouble();
  }
  if (rng.NextBool(0.3)) {
    s.corrupt_p = 0.02 * rng.NextDouble();
  }
  if (rng.NextBool(0.4)) {
    s.reorder_p = 0.03 * rng.NextDouble();
  }
  if (rng.NextBool(0.25)) {
    s.burst_period = 50 + rng.NextBelow(150);
    s.burst_length = 2 + rng.NextBelow(2);
  }
  return s;
}

std::string Scenario::Describe() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "seed=%" PRIu64 " mss=%u limit=%zu offload=%d delack=%d %s flows=%zu "
                "frames=%zu batch=%zu cores=%zu faults=[%s]",
                seed, mss, aggregation_limit, ack_offload ? 1 : 0, delayed_acks ? 1 : 0,
                bidirectional ? "bidir" : "unidir", flows, frames, batch, cores,
                EventsSpec().c_str());
  return buf;
}

std::string Scenario::EventsSpec() const {
  std::string spec;
  for (const FaultEvent& e : faults) {
    if (!spec.empty()) {
      spec += ',';
    }
    spec += FaultKindName(e.kind);
    spec += '@';
    spec += std::to_string(e.index);
    if (e.arg != 0) {
      spec += 'x';
      spec += std::to_string(e.arg);
    }
  }
  return spec;
}

bool Scenario::ParseEvents(const std::string& spec, std::vector<FaultEvent>* out) {
  out->clear();
  if (spec.empty()) {
    return true;
  }
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::string token = spec.substr(pos, comma - pos);
    pos = comma + 1;

    const size_t at = token.find('@');
    if (at == std::string::npos) {
      return false;
    }
    const std::string name = token.substr(0, at);
    const auto* kind = std::find(std::begin(kFaultKindNames), std::end(kFaultKindNames), name);
    if (kind == std::end(kFaultKindNames)) {
      return false;
    }
    FaultEvent e;
    e.kind = static_cast<FaultEvent::Kind>(kind - std::begin(kFaultKindNames));
    const std::string rest = token.substr(at + 1);
    const size_t x = rest.find('x');
    if (!ParseNumber(rest.substr(0, x), &e.index) ||
        (x != std::string::npos && !ParseNumber(rest.substr(x + 1), &e.arg))) {
      return false;
    }
    out->push_back(e);
  }
  return true;
}

std::string Scenario::SimCommand() const {
  char buf[512];
  int n = std::snprintf(
      buf, sizeof(buf),
      "tcprx_sim stream --optimized --limit=%zu --mss=%u --conns-per-nic=%zu "
      "--cores=%zu --seed=%" PRIu64,
      aggregation_limit, mss, flows, cores, seed);
  auto append = [&](const char* fmt, double v) {
    if (v > 0 && n > 0 && static_cast<size_t>(n) < sizeof(buf)) {
      n += std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n), fmt, v);
    }
  };
  append(" --drop=%.5f", drop_p);
  append(" --duplicate=%.5f", duplicate_p);
  append(" --corrupt=%.5f", corrupt_p);
  append(" --reorder=%.5f", reorder_p);
  if (burst_period > 0 && n > 0 && static_cast<size_t>(n) < sizeof(buf)) {
    std::snprintf(buf + n, sizeof(buf) - static_cast<size_t>(n),
                  " --burst-drop-period=%" PRIu64 " --burst-drop-length=%" PRIu64,
                  burst_period, burst_length);
  }
  return buf;
}

}  // namespace fuzz
}  // namespace tcprx
