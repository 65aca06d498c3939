#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/bits.h"
#include "graph/generators.h"
#include "graph/io.h"

namespace sa::graph {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sa_graph_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return (dir_ / name).string(); }

  static void ExpectSameGraph(const CsrGraph& a, const CsrGraph& b) {
    ASSERT_EQ(a.num_vertices(), b.num_vertices());
    ASSERT_EQ(a.num_edges(), b.num_edges());
    EXPECT_EQ(a.begin(), b.begin());
    EXPECT_EQ(a.edge(), b.edge());
    EXPECT_EQ(a.rbegin(), b.rbegin());
    EXPECT_EQ(a.redge(), b.redge());
  }

  std::filesystem::path dir_;
};

TEST_F(GraphIoTest, TextRoundTrip) {
  const CsrGraph g = PowerLawGraph(500, 4000, 0.5, 9);
  WriteEdgeListText(g, Path("g.txt"));
  ExpectSameGraph(ReadEdgeListText(Path("g.txt")), g);
}

TEST_F(GraphIoTest, BinaryRoundTrip) {
  const CsrGraph g = UniformRandomGraph(800, 5, 11);
  WriteEdgeListBinary(g, Path("g.bin"));
  ExpectSameGraph(ReadEdgeListBinary(Path("g.bin")), g);
}

TEST_F(GraphIoTest, BinaryPreservesIsolatedTailVertices) {
  // Text cannot represent trailing isolated vertices (no edges mention
  // them); binary carries the vertex count explicitly.
  CsrGraph g = CsrGraph::FromEdges(10, {{0, 1}});
  WriteEdgeListBinary(g, Path("iso.bin"));
  const CsrGraph loaded = ReadEdgeListBinary(Path("iso.bin"));
  EXPECT_EQ(loaded.num_vertices(), 10u);
  EXPECT_EQ(loaded.num_edges(), 1u);
}

TEST_F(GraphIoTest, LoadGraphSniffsFormat) {
  const CsrGraph g = UniformRandomGraph(300, 2, 3);
  WriteEdgeListText(g, Path("sniff.txt"));
  WriteEdgeListBinary(g, Path("sniff.bin"));
  ExpectSameGraph(LoadGraph(Path("sniff.txt")), g);
  ExpectSameGraph(LoadGraph(Path("sniff.bin")), g);
}

TEST_F(GraphIoTest, TextSkipsCommentsAndBlankLines) {
  {
    std::ofstream out(Path("c.txt"));
    out << "# header comment\n\n0 1\n# mid comment\n1 2\n";
  }
  const CsrGraph g = ReadEdgeListText(Path("c.txt"));
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST_F(GraphIoTest, RejectsGarbage) {
  {
    std::ofstream out(Path("bad.txt"));
    out << "0 not-a-number\n";
  }
  EXPECT_DEATH(ReadEdgeListText(Path("bad.txt")), "malformed");
  {
    std::ofstream out(Path("trunc.bin"), std::ios::binary);
    const uint32_t magic = kEdgeListMagic;
    out.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  }
  EXPECT_DEATH(ReadEdgeListBinary(Path("trunc.bin")), "");
  EXPECT_DEATH(ReadEdgeListBinary(Path("missing.bin")), "open");
}

// The largest 32-bit id would wrap the vertex count (max id + 1) to zero.
TEST_F(GraphIoTest, TextRejectsLargestVertexId) {
  {
    std::ofstream out(Path("wrap.txt"));
    out << "0 1\n1 4294967295\n";
  }
  EXPECT_DEATH(ReadEdgeListText(Path("wrap.txt")), "vertex id exceeds 32 bits");
}

// A header claiming more edges than the file holds is refused before any
// storage is reserved for them.
TEST_F(GraphIoTest, BinaryRejectsEdgeCountBeyondFileSize) {
  struct Header {  // the on-disk header layout of io.cc
    uint32_t magic = kEdgeListMagic;
    uint32_t version = 1;
    uint32_t num_vertices = 2;
    uint64_t num_edges = uint64_t{1} << 40;
  };
  {
    std::ofstream out(Path("huge.bin"), std::ios::binary);
    const Header header;
    const uint32_t pair[2] = {0, 1};
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out.write(reinterpret_cast<const char*>(pair), sizeof(pair));
  }
  EXPECT_DEATH(ReadEdgeListBinary(Path("huge.bin")), "binary edge list truncated");
}

TEST_F(GraphIoTest, StatsReportWidths) {
  const CsrGraph g = UniformRandomGraph(1000, 3, 7);
  const GraphStats stats = ComputeStats(g);
  EXPECT_EQ(stats.num_vertices, 1000u);
  EXPECT_EQ(stats.num_edges, 3000u);
  EXPECT_DOUBLE_EQ(stats.avg_degree, 3.0);
  EXPECT_EQ(stats.edge_bits_required, sa::BitsForValue(999));
  EXPECT_EQ(stats.index_bits_required, sa::BitsForValue(3000));
  EXPECT_GE(stats.max_in_degree, 3u);  // some vertex gets above-average in-edges
  EXPECT_EQ(stats.max_out_degree, 3u);
}

}  // namespace
}  // namespace sa::graph
