#include <gtest/gtest.h>

#include <sstream>

#include "harness/datasets.h"
#include "harness/runner.h"
#include "harness/table.h"

namespace serigraph {
namespace {

TEST(DatasetsTest, FourSpecsInPaperOrder) {
  auto specs = StandInSpecs();
  ASSERT_EQ(specs.size(), 4u);
  EXPECT_EQ(specs[0].name, "OR'");
  EXPECT_EQ(specs[1].name, "AR'");
  EXPECT_EQ(specs[2].name, "TW'");
  EXPECT_EQ(specs[3].name, "UK'");
  // Table 1 ordering: sizes strictly increase.
  for (size_t i = 1; i < specs.size(); ++i) {
    EXPECT_GT(specs[i].num_vertices, specs[i - 1].num_vertices);
  }
}

TEST(DatasetsTest, FindByEitherName) {
  EXPECT_EQ(FindSpec("OR'").paper_name, "com-Orkut");
  EXPECT_EQ(FindSpec("twitter-2010").name, "TW'");
}

TEST(DatasetsTest, GenerationIsDeterministic) {
  DatasetSpec spec = FindSpec("OR'");
  Graph a = MakeDataset(spec);
  Graph b = MakeDataset(spec);
  EXPECT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.ToEdges(), b.ToEdges());
}

TEST(DatasetsTest, UndirectedVariantIsSymmetric) {
  Graph g = MakeUndirectedDataset(FindSpec("OR'"));
  EXPECT_TRUE(g.IsSymmetric());
}

TEST(DatasetsTest, PowerLawSkew) {
  Graph g = MakeDataset(FindSpec("TW'"));
  // Max degree far above average: the Table 1 signature.
  const double avg = static_cast<double>(g.num_edges()) /
                     static_cast<double>(g.num_vertices());
  EXPECT_GT(static_cast<double>(g.MaxTotalDegree()), 20 * avg);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"a", "long header"});
  table.AddRow({"xxxxxx", "1"});
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| a      | long header |"), std::string::npos);
  EXPECT_NE(out.find("| xxxxxx | 1           |"), std::string::npos);
}

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(TablePrinter::Seconds(0.0123), "12.3 ms");
  EXPECT_EQ(TablePrinter::Seconds(2.5), "2.50 s");
  EXPECT_EQ(TablePrinter::Ratio(2.0), "2.00x");
  EXPECT_EQ(TablePrinter::Count(1500), "1.5K");
}

TEST(NetworkOptionsTest, DelayFormula) {
  NetworkOptions network;
  network.one_way_latency_us = 100;
  network.per_kib_us = 10;
  EXPECT_EQ(network.DelayMicros(0), 100);
  EXPECT_EQ(network.DelayMicros(1024), 110);
  EXPECT_EQ(network.DelayMicros(10 * 1024), 200);
}

}  // namespace
}  // namespace serigraph
