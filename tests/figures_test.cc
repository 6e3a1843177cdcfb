// Tests for the figure registry (bench/figures.h) and the tcprx_bench driver's
// command line: points are deduplicated by value and by nothing else, and every
// figure is reachable by a unique name.

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <sys/wait.h>
#include <variant>
#include <vector>

#include "bench/figures.h"

namespace tcprx {
namespace {

std::vector<const Figure*> AllFigures() {
  std::vector<const Figure*> all;
  for (const Figure& f : Figures()) {
    all.push_back(&f);
  }
  return all;
}

TEST(Figures, AllFiguresShareRepeatedPoints) {
  const std::vector<const Figure*> all = AllFigures();
  size_t listed = 0;
  for (const Figure* f : all) {
    listed += f->points.size();
  }
  const Plan plan = MakePlan(all);
  EXPECT_EQ(listed, 81u);
  EXPECT_EQ(plan.points.size(), 67u);
  ASSERT_EQ(plan.index.size(), all.size());
  for (size_t f = 0; f < all.size(); ++f) {
    ASSERT_EQ(plan.index[f].size(), all[f]->points.size());
    for (size_t p = 0; p < all[f]->points.size(); ++p) {
      EXPECT_EQ(plan.points[plan.index[f][p]], all[f]->points[p]) << all[f]->name << " " << p;
    }
  }
}

TEST(Figures, PointsDifferingInOneFieldAreBothKept) {
  Point point{TestbedConfig{}, Testbed::StreamOptions{}};
  Point jumbo = point;
  std::get<Testbed::StreamOptions>(jumbo.options).client_mss = 8948;
  Point deep_itr = point;
  deep_itr.config.nic.moderation_delay = SimDuration::FromMicros(450);
  Point latency{TestbedConfig{}, Testbed::LatencyOptions{}};

  Figure a("a", "A");
  a.points = {point, jumbo, deep_itr, latency};
  Figure b("b", "B");
  b.points = {deep_itr, point};
  const Figure* figures[] = {&a, &b};
  const Plan plan = MakePlan(figures);
  EXPECT_EQ(plan.points.size(), 4u);
  EXPECT_EQ(plan.index[0], (std::vector<size_t>{0, 1, 2, 3}));
  EXPECT_EQ(plan.index[1], (std::vector<size_t>{2, 0}));
}

TEST(Figures, EveryPointIsAValidConfiguration) {
  for (const Figure& f : Figures()) {
    for (size_t p = 0; p < f.points.size(); ++p) {
      const Point& point = f.points[p];
      const std::vector<std::string> errors = std::visit(
          [&](const auto& options) { return ConfigErrors(point.config, options); },
          point.options);
      EXPECT_EQ(errors, std::vector<std::string>{}) << f.name << " point " << p;
    }
  }
}

TEST(Figures, NamesAreUnique) {
  std::set<std::string> names;
  for (const Figure& f : Figures()) {
    EXPECT_TRUE(names.insert(f.name).second) << f.name;
  }
  EXPECT_EQ(names.size(), 15u);
}

TEST(Figures, UnknownNameExitsTwoAndListsTheNames) {
  FILE* pipe = popen(TCPRX_BENCH " nosuch 2>&1", "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
    out += buf;
  }
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  EXPECT_NE(out.find("unknown figure 'nosuch'"), std::string::npos) << out;
  for (const Figure& f : Figures()) {
    EXPECT_NE(out.find("  " + f.name + " "), std::string::npos) << f.name << "\n" << out;
  }
}

}  // namespace
}  // namespace tcprx
