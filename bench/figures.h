// The paper's figure set as data: every figure, table and ablation is a list of
// testbed points, a printer over their results, and the shape claims EXPERIMENTS.md
// makes about them. tcprx_bench runs the distinct points of the figures it is asked
// for and hands each figure its results in point order.
//
// Every point builds a fresh Testbed with simulated tx checksums disabled for speed
// (modelling tx checksum offload, exactly like the paper's NICs), and every printer
// shows the paper's reference values next to the measured ones.

#ifndef BENCH_FIGURES_H_
#define BENCH_FIGURES_H_

#include <functional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "src/sim/testbed.h"

namespace tcprx {

// One testbed run: a configuration plus the workload that measures it.
struct Point {
  TestbedConfig config;
  std::variant<Testbed::StreamOptions, Testbed::LatencyOptions> options;
  bool operator==(const Point&) const = default;
};

using PointResult = std::variant<StreamResult, LatencyResult>;

// A figure's results in the order of its points: point i's result is all[index[i]].
struct Results {
  std::span<const PointResult> all;
  std::span<const size_t> index;
  const StreamResult& stream(size_t i) const { return std::get<StreamResult>(all[index[i]]); }
  const LatencyResult& latency(size_t i) const { return std::get<LatencyResult>(all[index[i]]); }
};

// Collects the claims about a figure's shape that its results do not bear out, each
// with the measured values it was judged on.
struct ShapeCheck {
  [[gnu::format(printf, 4, 5)]] void Expect(bool holds, const char* claim,
                                            const char* measured, ...);
  std::vector<std::string> failures;
};

struct Figure {
  Figure(const char* figure_name, const char* figure_title)
      : name(figure_name), title(figure_title) {}
  std::string name;   // the tcprx_bench argument: fig01 ... fig13, table1, ablations
  std::string title;  // the banner printed above the figure
  std::vector<Point> points;
  std::function<void(const Results&)> print;
  std::function<void(const Results&, ShapeCheck&)> shapes = [](const Results&, ShapeCheck&) {};
};

// Every figure, in the order EXPERIMENTS.md presents them.
const std::vector<Figure>& Figures();

// The distinct points of `figures`, each once and in first-listed order, and for each
// figure the position of each of its points in that list.
struct Plan {
  std::vector<Point> points;
  std::vector<std::vector<size_t>> index;
};
Plan MakePlan(std::span<const Figure* const> figures);

}  // namespace tcprx

#endif  // BENCH_FIGURES_H_
