// The runtime C ABI at its input boundary: topologies that saRegistryCreate
// cannot build, and names and shapes that saRegistryDefine/Open/Acquire
// cannot serve, come back as NULL instead of aborting the caller's process,
// and saSnapshotRead checks its index the way saArrayGet does.
#include <gtest/gtest.h>

#include "runtime/entry_points.h"

namespace {

class RuntimeAbiTest : public ::testing::Test {
 protected:
  void SetUp() override { reg_ = saRegistryCreate(/*sockets=*/2, /*cpus_per_socket=*/2); }
  void TearDown() override { saRegistryFree(reg_); }

  void* reg_ = nullptr;
};

TEST_F(RuntimeAbiTest, DefineReturnsNullForInputsItCannotServe) {
  // Arguments: name, length, replicated, interleaved, pinned, bits.
  EXPECT_EQ(saRegistryDefine(reg_, nullptr, 100, 0, 0, -1, 13), nullptr);
  EXPECT_EQ(saRegistryDefine(reg_, "empty", 0, 0, 0, -1, 13), nullptr);
  EXPECT_EQ(saRegistryDefine(reg_, "zero-bits", 100, 0, 0, -1, 0), nullptr);
  EXPECT_EQ(saRegistryDefine(reg_, "wide", 100, 0, 0, -1, 65), nullptr);
  EXPECT_EQ(saRegistryDefine(reg_, "rep-int", 100, 1, 1, -1, 13), nullptr);
  EXPECT_EQ(saRegistryDefine(reg_, "rep-pin", 100, 1, 0, 0, 13), nullptr);
  EXPECT_EQ(saRegistryDefine(reg_, "int-pin", 100, 0, 1, 1, 13), nullptr);
  EXPECT_EQ(saRegistryDefine(reg_, "far", 100, 0, 0, 2, 13), nullptr);  // sockets 0..1
  EXPECT_EQ(saRegistryCount(reg_), 0);

  void* slot = saRegistryDefine(reg_, "pinned", 100, 0, 0, 1, 13);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(saRegistryDefine(reg_, "pinned", 100, 0, 0, -1, 13), nullptr);  // taken
  EXPECT_EQ(saRegistryCount(reg_), 1);
  EXPECT_EQ(saRegistryOpen(reg_, "pinned"), slot);
}

TEST_F(RuntimeAbiTest, OpenAndAcquireReturnNullForNullName) {
  ASSERT_NE(saRegistryDefine(reg_, "named", 100, 0, 0, -1, 13), nullptr);
  EXPECT_EQ(saRegistryOpen(reg_, nullptr), nullptr);
  EXPECT_EQ(saRegistryAcquire(reg_, nullptr), nullptr);
}

TEST_F(RuntimeAbiTest, SnapshotReadRejectsOutOfRangeIndex) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";  // the registry's pool threads
  void* slot = saRegistryDefine(reg_, "reads", 100, 0, 0, -1, 13);
  ASSERT_NE(slot, nullptr);
  saSlotWrite(slot, 99, 7);
  void* snap = saSlotPin(slot);
  EXPECT_EQ(saSnapshotRead(snap, 99), 7u);
  EXPECT_DEATH(saSnapshotRead(snap, 100), "index out of range");
  EXPECT_DEATH(saSnapshotRead(snap, uint64_t{1} << 40), "index out of range");
  saSnapshotUnpin(snap);
}

TEST_F(RuntimeAbiTest, CreateReturnsNullForAnEmptySyntheticTopology) {
  EXPECT_EQ(saRegistryCreate(2, 0), nullptr);
  EXPECT_EQ(saRegistryCreate(2, -1), nullptr);
  EXPECT_EQ(saRegistryCreateSharded(2, 0, 4), nullptr);
  EXPECT_EQ(saRegistryCreateSharded(2, -1, 4), nullptr);
}

}  // namespace
