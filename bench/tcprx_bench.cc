// tcprx_bench [name ...] — reproduces the paper's figures, tables and ablations.
//
// The names are fig01 ... fig13, table1 and ablations; no name runs them all. Each
// distinct testbed point of the chosen figures runs once, on one worker per hardware
// thread; the figures then print in registry order. A shape claim their results do
// not bear out prints `shape FAIL` to stderr and makes the exit status 1.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/figures.h"

int main(int argc, char** argv) {
  using namespace tcprx;
  const std::vector<Figure>& figures = Figures();
  const std::vector<std::string> names(argv + 1, argv + argc);
  std::vector<const Figure*> chosen;
  for (const Figure& f : figures) {
    if (names.empty() || std::find(names.begin(), names.end(), f.name) != names.end()) {
      chosen.push_back(&f);
    }
  }
  for (const std::string& name : names) {
    if (std::none_of(figures.begin(), figures.end(),
                     [&](const Figure& f) { return f.name == name; })) {
      std::fprintf(stderr, "unknown figure '%s'\nusage: tcprx_bench [name ...]\n", name.c_str());
      for (const Figure& f : figures) {
        std::fprintf(stderr, "  %-10s %s\n", f.name.c_str(), f.title.c_str());
      }
      return 2;
    }
  }

  const Plan plan = MakePlan(chosen);
  std::vector<PointResult> results(plan.points.size());
  std::atomic<size_t> next{0};
  std::vector<std::jthread> workers(std::max(1u, std::thread::hardware_concurrency()));
  for (std::jthread& worker : workers) {
    worker = std::jthread([&] {
      for (size_t i = next++; i < plan.points.size(); i = next++) {
        const Point& point = plan.points[i];
        Testbed bed(point.config);
        if (const auto* stream = std::get_if<Testbed::StreamOptions>(&point.options)) {
          results[i] = bed.RunStream(*stream);
        } else {
          results[i] = bed.RunLatency(std::get<Testbed::LatencyOptions>(point.options));
        }
      }
    });
  }
  workers.clear();  // joins

  int status = 0;
  for (size_t i = 0; i < chosen.size(); ++i) {
    const Figure& figure = *chosen[i];
    const Results figure_results{results, plan.index[i]};
    std::printf("==============================================================\n");
    std::printf("%s\n", figure.title.c_str());
    std::printf("==============================================================\n");
    figure.print(figure_results);
    ShapeCheck check;
    figure.shapes(figure_results, check);
    for (const std::string& failure : check.failures) {
      std::fprintf(stderr, "shape FAIL %s: %s\n", figure.name.c_str(), failure.c_str());
      status = 1;
    }
  }
  return status;
}
