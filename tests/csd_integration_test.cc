// Full-stack CSD pushdown tests: host CsdClient -> passthrough -> transfer
// method -> device filter engine -> NAND scan — the Figure 7 pipeline,
// validated for correctness with the actual Fig 4 queries.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/testbed.h"
#include "test_util.h"
#include "workload/query_set.h"

namespace bx {
namespace {

using core::Testbed;
using driver::TransferMethod;

class CsdMethodTest : public ::testing::TestWithParam<TransferMethod> {};

TEST_P(CsdMethodTest, CreateLoadFilterFetch) {
  Testbed testbed(test::small_testbed_config());
  auto client = testbed.make_csd_client(GetParam());

  csd::TableSchema schema(
      "t", {csd::Column{"a", csd::ColumnType::kInt64, 8},
            csd::Column{"s", csd::ColumnType::kString, 8}});
  ASSERT_TRUE(client.create_table(schema).is_ok());

  csd::RowBuilder builder(schema);
  ByteVec rows;
  for (std::int64_t a = 0; a < 64; ++a) {
    builder.set_int("a", a).set_string("s", a % 2 == 0 ? "even" : "odd");
    const ByteVec row = builder.take();
    rows.insert(rows.end(), row.begin(), row.end());
  }
  ASSERT_TRUE(client.append_rows("t", rows).is_ok());

  auto matches = client.filter("t a < 10 AND s = 'even'");
  ASSERT_TRUE(matches.is_ok()) << matches.status().to_string();
  EXPECT_EQ(*matches, 5u);

  auto results = client.fetch_results(4096);
  ASSERT_TRUE(results.is_ok());
  ASSERT_EQ(results->size(), 5u * schema.row_size());
  for (std::size_t r = 0; r < 5; ++r) {
    csd::RowView view(schema,
                      ConstByteSpan(*results).subspan(r * schema.row_size(),
                                                      schema.row_size()));
    EXPECT_EQ(view.get_int(0) % 2, 0);
    EXPECT_EQ(view.get_string(1), "even");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, CsdMethodTest,
    ::testing::Values(TransferMethod::kPrp, TransferMethod::kSgl,
                      TransferMethod::kByteExpress,
                      TransferMethod::kByteExpressOoo,
                      TransferMethod::kBandSlim, TransferMethod::kAuto),
    [](const ::testing::TestParamInfo<TransferMethod>& info) {
      return std::string(driver::transfer_method_name(info.param));
    });

// All five Fig 4 queries end to end: full string and segment produce the
// same match count through the real stack.
class Fig4EndToEnd : public ::testing::TestWithParam<int> {};

TEST_P(Fig4EndToEnd, FullStringAndSegmentAgree) {
  Testbed testbed(test::small_testbed_config());
  auto client = testbed.make_csd_client(TransferMethod::kByteExpress);
  const auto& query_case =
      workload::fig4_query_set()[std::size_t(GetParam())];

  ASSERT_TRUE(client.create_table(query_case.schema).is_ok());
  Rng rng(17);
  ByteVec rows;
  const int kRows = 1000;
  for (int i = 0; i < kRows; ++i) {
    const ByteVec row = query_case.make_row(rng);
    rows.insert(rows.end(), row.begin(), row.end());
  }
  ASSERT_TRUE(
      client.append_rows(query_case.schema.name(), rows).is_ok());

  auto full = client.filter(query_case.full_sql);
  ASSERT_TRUE(full.is_ok()) << query_case.name;
  auto segment = client.filter(query_case.segment);
  ASSERT_TRUE(segment.is_ok()) << query_case.name;
  EXPECT_EQ(*full, *segment) << query_case.name;
  EXPECT_GT(*full, 0u) << query_case.name;
  EXPECT_LT(*full, std::uint32_t(kRows)) << query_case.name;
}

INSTANTIATE_TEST_SUITE_P(All, Fig4EndToEnd, ::testing::Range(0, 5));

TEST(CsdIntegrationTest, SegmentPayloadIsSmallerAndInlineTrafficTiny) {
  Testbed testbed(test::small_testbed_config());
  auto client = testbed.make_csd_client(TransferMethod::kByteExpress);
  const auto& query_case = workload::fig4_query_set()[3];  // TPC-H Q1
  ASSERT_TRUE(client.create_table(query_case.schema).is_ok());
  // Paper premise: the segment is a strict subset of the full string.
  EXPECT_LT(query_case.segment.size(), query_case.full_sql.size());

  testbed.reset_counters();
  ASSERT_TRUE(client.filter(query_case.segment).is_ok());
  const std::uint64_t inline_wire = testbed.traffic().total_wire_bytes();

  client.set_method(TransferMethod::kPrp);
  testbed.reset_counters();
  ASSERT_TRUE(client.filter(query_case.segment).is_ok());
  const std::uint64_t prp_wire = testbed.traffic().total_wire_bytes();

  // Figure 7(a): ~98% traffic reduction for small pushdown tasks.
  EXPECT_LT(double(inline_wire), 0.15 * double(prp_wire));
}

TEST(CsdIntegrationTest, AggregatePushdownOverPassthrough) {
  Testbed testbed(test::small_testbed_config());
  auto client = testbed.make_csd_client(TransferMethod::kByteExpress);
  csd::TableSchema schema("t", {csd::Column{"v", csd::ColumnType::kFloat64}});
  ASSERT_TRUE(client.create_table(schema).is_ok());
  csd::RowBuilder builder(schema);
  ByteVec rows;
  for (int i = 1; i <= 50; ++i) {
    builder.set_double("v", double(i));
    const ByteVec row = builder.take();
    rows.insert(rows.end(), row.begin(), row.end());
  }
  ASSERT_TRUE(client.append_rows("t", rows).is_ok());

  auto values = client.aggregate(
      "SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t WHERE "
      "v <= 10");
  ASSERT_TRUE(values.is_ok()) << values.status().to_string();
  ASSERT_EQ(values->size(), 5u);
  EXPECT_DOUBLE_EQ((*values)[0], 10.0);
  EXPECT_DOUBLE_EQ((*values)[1], 55.0);
  EXPECT_DOUBLE_EQ((*values)[2], 1.0);
  EXPECT_DOUBLE_EQ((*values)[3], 10.0);
  EXPECT_DOUBLE_EQ((*values)[4], 5.5);
}

TEST(CsdIntegrationTest, DeviceErrorsSurfaceThroughClient) {
  Testbed testbed(test::small_testbed_config());
  auto client = testbed.make_csd_client(TransferMethod::kByteExpress);
  EXPECT_FALSE(client.filter("nosuchtable a > 1").is_ok());
  EXPECT_FALSE(client.filter("%%%garbage%%%").is_ok());

  csd::TableSchema schema("t", {csd::Column{"a", csd::ColumnType::kInt64}});
  ASSERT_TRUE(client.create_table(schema).is_ok());
  EXPECT_FALSE(client.create_table(schema).is_ok());  // duplicate
  EXPECT_FALSE(client.filter("t bogus > 1").is_ok());
}

TEST(CsdIntegrationTest, LargeTableScanTouchesNand) {
  Testbed testbed(test::small_testbed_config());
  auto client = testbed.make_csd_client(TransferMethod::kPrp);
  csd::TableSchema schema("t", {csd::Column{"a", csd::ColumnType::kInt64}});
  ASSERT_TRUE(client.create_table(schema).is_ok());

  // 4096 rows in several appends -> 8 NAND pages.
  for (int chunk = 0; chunk < 8; ++chunk) {
    ByteVec rows(8 * 512);
    for (std::size_t i = 0; i < 512; ++i) {
      const std::int64_t v = chunk * 512 + std::int64_t(i);
      std::memcpy(rows.data() + i * 8, &v, 8);
    }
    ASSERT_TRUE(client.append_rows("t", rows).is_ok());
  }
  const std::uint64_t reads_before = testbed.device().nand().reads();
  auto matches = client.filter("t a >= 4000");
  ASSERT_TRUE(matches.is_ok());
  EXPECT_EQ(*matches, 96u);
  EXPECT_GT(testbed.device().nand().reads(), reads_before);
}

}  // namespace
}  // namespace bx
