#include "model/trace_io.h"

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

namespace flowsched {
namespace {

TEST(TraceIoTest, InstanceRoundTrip) {
  Instance instance(SwitchSpec({2, 3}, {1, 1, 4}), {});
  instance.AddFlow(0, 2, 2, 0);
  instance.AddFlow(1, 0, 1, 7);
  std::ostringstream out;
  WriteInstanceCsv(instance, out);
  std::string error;
  const auto parsed = ReadInstanceCsv(out.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->sw(), instance.sw());
  ASSERT_EQ(parsed->num_flows(), 2);
  EXPECT_EQ(parsed->flow(0), instance.flow(0));
  EXPECT_EQ(parsed->flow(1), instance.flow(1));
}

TEST(TraceIoTest, EmptyInstanceRoundTrip) {
  Instance instance(SwitchSpec::Uniform(1, 2), {});
  std::ostringstream out;
  WriteInstanceCsv(instance, out);
  const auto parsed = ReadInstanceCsv(out.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->num_flows(), 0);
}

TEST(TraceIoTest, RejectsGarbage) {
  std::string error;
  EXPECT_FALSE(ReadInstanceCsv("not,a,trace\n", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(TraceIoTest, RejectsInvalidInstance) {
  // Demand above kappa fails model validation on read.
  const std::string content =
      "input_capacities\n1\noutput_capacities\n1\nsrc,dst,demand,release\n"
      "0,0,5,0\n";
  std::string error;
  EXPECT_FALSE(ReadInstanceCsv(content, &error).has_value());
  EXPECT_NE(error.find("kappa"), std::string::npos);
}

TEST(TraceIoTest, MalformedFlowRowErrorsCarryTheLineNumber) {
  const std::string header =
      "input_capacities\n1,1\noutput_capacities\n1,1\n"
      "src,dst,demand,release\n";
  std::string error;
  // Line 7 (the second flow row) has too few fields.
  EXPECT_FALSE(
      ReadInstanceCsv(header + "0,1,1,0\n0,1\n", &error).has_value());
  EXPECT_NE(error.find("line 7"), std::string::npos) << error;
  // Line 6 (the first flow row) has a non-numeric demand.
  EXPECT_FALSE(
      ReadInstanceCsv(header + "0,1,x,0\n", &error).has_value());
  EXPECT_NE(error.find("line 6"), std::string::npos) << error;
}

TEST(TraceIoTest, MalformedCapacityRowErrorsCarryTheLineNumber) {
  std::string error;
  EXPECT_FALSE(ReadInstanceCsv("input_capacities\n1,zap\noutput_capacities\n"
                               "1\nsrc,dst,demand,release\n",
                               &error)
                   .has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(TraceIoTest, CoflowTagsRoundTripThroughTheInstanceCsv) {
  Instance instance(SwitchSpec::Uniform(3, 3), {});
  instance.AddFlow(0, 1, 1, 0, /*coflow=*/4);
  instance.AddFlow(1, 2, 1, 1);  // Untagged: writes an empty field.
  instance.AddFlow(2, 0, 1, 1, /*coflow=*/4);
  std::ostringstream out;
  WriteInstanceCsv(instance, out);
  EXPECT_NE(out.str().find("src,dst,demand,release,coflow"),
            std::string::npos);
  std::string error;
  const auto parsed = ReadInstanceCsv(out.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->num_flows(), 3);
  EXPECT_EQ(parsed->flow(0).coflow, 4);
  EXPECT_EQ(parsed->flow(1).coflow, kNoCoflow);
  EXPECT_EQ(parsed->flow(2).coflow, 4);
}

TEST(TraceIoTest, UntaggedInstancesKeepTheFourColumnFormat) {
  Instance instance(SwitchSpec::Uniform(2, 2), {});
  instance.AddFlow(0, 1);
  std::ostringstream out;
  WriteInstanceCsv(instance, out);
  EXPECT_EQ(out.str().find("coflow"), std::string::npos);
}

TEST(TraceIoTest, CoflowTraceExpandsMappersTimesReducers) {
  // Coflow 1: mappers {0, 2}, reducers {1 (6 units), 3 (2 units)}.
  // Per-flow demand = ceil(units / num_mappers): 3 and 1.
  const std::string content =
      "coflow,arrival,mappers,reducers\n"
      "1,0,0;2,1:6;3:2\n"
      "2,5,1,0:1\n";
  std::string error;
  const auto parsed = ReadCoflowTraceCsv(content, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->num_flows(), 5);
  // Ports span 0..3 => square 4x4 switch; capacity = max demand (3).
  EXPECT_EQ(parsed->sw().num_inputs(), 4);
  EXPECT_EQ(parsed->sw().num_outputs(), 4);
  EXPECT_EQ(parsed->sw().input_capacity(0), 3);
  EXPECT_EQ(parsed->flow(0), (Flow{0, 0, 1, 3, 0, 1}));
  EXPECT_EQ(parsed->flow(1), (Flow{1, 2, 1, 3, 0, 1}));
  EXPECT_EQ(parsed->flow(2), (Flow{2, 0, 3, 1, 0, 1}));
  EXPECT_EQ(parsed->flow(3), (Flow{3, 2, 3, 1, 0, 1}));
  EXPECT_EQ(parsed->flow(4), (Flow{4, 1, 0, 1, 5, 2}));
  EXPECT_TRUE(parsed->HasCoflows());
}

TEST(TraceIoTest, CoflowTraceHonorsCapacityPreamble) {
  const std::string content =
      "input_capacities\n2,2\noutput_capacities\n2,2\n"
      "coflow,arrival,mappers,reducers\n"
      "0,0,0;1,0:4\n";
  std::string error;
  const auto parsed = ReadCoflowTraceCsv(content, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->sw().num_inputs(), 2);
  EXPECT_EQ(parsed->sw().input_capacity(0), 2);
  ASSERT_EQ(parsed->num_flows(), 2);
  EXPECT_EQ(parsed->flow(0).demand, 2);  // ceil(4 / 2 mappers).
}

TEST(TraceIoTest, LooksLikeCoflowTraceDetectsBothVariants) {
  EXPECT_TRUE(LooksLikeCoflowTrace("coflow,arrival,mappers,reducers\n"));
  EXPECT_TRUE(LooksLikeCoflowTrace(
      "input_capacities\n1\noutput_capacities\n1\n"
      "coflow,arrival,mappers,reducers\n"));
  EXPECT_FALSE(LooksLikeCoflowTrace(
      "input_capacities\n1\noutput_capacities\n1\n"
      "src,dst,demand,release\n"));
  EXPECT_FALSE(LooksLikeCoflowTrace("src,dst,demand,release\n"));
}

TEST(TraceIoTest, LooksLikeCoflowTraceCountsRowsNotLines) {
  // Blank lines inside the preamble are not rows: the header is still the
  // fifth row, so the file goes to the coflow reader, which parses it.
  const std::string content =
      "input_capacities\n1,1\n\noutput_capacities\n1,1\n\n"
      "coflow,arrival,mappers,reducers\n"
      "0,0,0,1:1\n";
  EXPECT_TRUE(LooksLikeCoflowTrace(content));
  std::string error;
  const auto parsed = ReadCoflowTraceCsv(content, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->num_flows(), 1);
  // A quoted field spanning lines is one row too.
  EXPECT_TRUE(LooksLikeCoflowTrace(
      "\"input_capacities\"\n\"1,\n1\"\noutput_capacities\n1\n"
      "coflow,arrival,mappers,reducers\n"));
}

TEST(TraceIoTest, LooksLikeCoflowTraceReadsABoundedPrefix) {
  const std::string header = "coflow,arrival,mappers,reducers\n";
  std::string tail;
  for (int i = 0; i < 1000; ++i) tail += "0,0,0,1:1\n";
  // An unterminated quote in row 1 would swallow the rest of the file
  // into one field; the sniff gives up on it without reading it all.
  EXPECT_FALSE(LooksLikeCoflowTrace("\"input_capacities\n1\n" + header + tail));
  EXPECT_FALSE(LooksLikeCoflowTrace("\"" + header + tail));
  // A header behind a long run of blank lines is past the sniffed prefix;
  // behind a few it is found.
  EXPECT_FALSE(LooksLikeCoflowTrace(std::string(100, '\n') + header + tail));
  EXPECT_TRUE(LooksLikeCoflowTrace(std::string(10, '\n') + header + tail));
}

TEST(TraceIoTest, CoflowTraceWithoutRowsOrPreambleIsAnErrorNotAnAbort) {
  std::string error;
  EXPECT_FALSE(ReadCoflowTraceCsv("coflow,arrival,mappers,reducers\n", &error)
                   .has_value());
  EXPECT_NE(error.find("no coflow rows"), std::string::npos) << error;
  // With a preamble the switch is fully specified, so empty is fine.
  const auto parsed = ReadCoflowTraceCsv(
      "input_capacities\n1\noutput_capacities\n1\n"
      "coflow,arrival,mappers,reducers\n",
      &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->num_flows(), 0);
}

TEST(TraceIoTest, CoflowTraceRejectsOutOfRangePortsInsteadOfAllocating) {
  const std::string header = "coflow,arrival,mappers,reducers\n";
  std::string error;
  // A typo'd giant port must be a parse error, not a gigabyte switch.
  EXPECT_FALSE(
      ReadCoflowTraceCsv(header + "0,0,2000000000,0:1\n", &error).has_value());
  EXPECT_NE(error.find("mapper port"), std::string::npos) << error;
  EXPECT_FALSE(
      ReadCoflowTraceCsv(header + "0,0,0,2000000000:1\n", &error).has_value());
  EXPECT_NE(error.find("reducer spec"), std::string::npos) << error;
  EXPECT_FALSE(ReadCoflowTraceCsv(header + "0,0,-2,0:1\n", &error).has_value());
  EXPECT_NE(error.find("mapper port"), std::string::npos) << error;
}

TEST(TraceIoTest, CoflowTraceErrorsCarryTheLineNumber) {
  const std::string header = "coflow,arrival,mappers,reducers\n";
  std::string error;
  EXPECT_FALSE(
      ReadCoflowTraceCsv(header + "1,0,0,1:bad\n", &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_FALSE(ReadCoflowTraceCsv(header + "1,0,,1:1\n", &error).has_value());
  EXPECT_NE(error.find("no mappers"), std::string::npos) << error;
  EXPECT_FALSE(ReadCoflowTraceCsv(header + "1,0,0,\n", &error).has_value());
  EXPECT_NE(error.find("no reducers"), std::string::npos) << error;
  EXPECT_FALSE(ReadCoflowTraceCsv("nope\n", &error).has_value());
  EXPECT_NE(error.find("header"), std::string::npos) << error;
}

// Errors name the bad row's physical line: blank lines count, and so does
// every line a quoted field spans. No coflow-trace or schedule field can
// hold a newline and still parse, so the spanning field sits in the bad
// row, which is named by the line it starts on.
TEST(TraceIoTest, TraceErrorsNameThePhysicalLine) {
  const std::string header = "coflow,arrival,mappers,reducers\n";  // 1
  std::string error;
  EXPECT_FALSE(ReadCoflowTraceCsv(header +
                                      "\n"            // 2
                                      "1,0,0,1:1\n"   // 3
                                      "\n"            // 4
                                      "2,0,x,1:1\n",  // 5
                                  &error)
                   .has_value());
  EXPECT_EQ(error, "line 5: bad mapper port: x");
  EXPECT_FALSE(ReadCoflowTraceCsv(header +
                                      "1,0,0,1:1\n"    // 2
                                      "\n"             // 3
                                      "2,0,\"0;x\n"    // 4
                                      "y\",1:1\n"      // 5
                                      "3,0,0,1:1\n",   // 6
                                  &error)
                   .has_value());
  EXPECT_EQ(error, "line 4: bad mapper port: x\ny");
  EXPECT_FALSE(ReadScheduleCsv("flow_id,round\n"  // 1
                               "\n"               // 2
                               "0,1\n"            // 3
                               "\n"               // 4
                               "x,2\n",           // 5
                               2, &error)
                   .has_value());
  EXPECT_EQ(error, "line 5: unparsable schedule row");
}

// A coflow trace's capacity preamble is checked like the instance CSV's:
// a zero capacity is a parse error, not a SwitchSpec abort.
TEST(TraceIoTest, CoflowTraceRejectsZeroCapacity) {
  std::string error;
  EXPECT_FALSE(ReadCoflowTraceCsv("input_capacities\n1,0\n"
                                  "output_capacities\n1,1\n"
                                  "coflow,arrival,mappers,reducers\n"
                                  "1,0,0,1:1\n",
                                  &error)
                   .has_value());
  EXPECT_EQ(error, "line 2: bad capacity: 0");
}

TEST(TraceIoTest, ScheduleRoundTrip) {
  Schedule s(3);
  s.Assign(0, 4);
  s.Assign(2, 0);
  std::ostringstream out;
  WriteScheduleCsv(s, out);
  std::string error;
  const auto parsed = ReadScheduleCsv(out.str(), 3, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->round_of(0), 4);
  EXPECT_FALSE(parsed->IsAssigned(1));
  EXPECT_EQ(parsed->round_of(2), 0);
}

TEST(TraceIoTest, ScheduleRejectsOutOfRangeId) {
  std::string error;
  EXPECT_FALSE(ReadScheduleCsv("flow_id,round\n9,0\n", 3, &error).has_value());
  EXPECT_NE(error.find("out of range"), std::string::npos);
}

TEST(TraceIoTest, MalformedRowDeepInALargeTraceReportsItsExactLine) {
  // 5000 good rows, then one with a non-numeric demand. The shared
  // line-at-a-time row reader must keep exact physical line numbers at any
  // depth — flows start at line 6 after the two capacity sections and the
  // header, so row i sits on line 6 + i.
  std::ostringstream content;
  content << "input_capacities\n1,1\noutput_capacities\n1,1\n"
             "src,dst,demand,release\n";
  for (int i = 0; i < 5000; ++i) content << (i % 2) << ",1,1," << i << "\n";
  content << "0,1,oops,5000\n";
  std::string error;
  EXPECT_FALSE(ReadInstanceCsv(content.str(), &error).has_value());
  EXPECT_NE(error.find("line 5006"), std::string::npos) << error;
  EXPECT_NE(error.find("unparsable flow row"), std::string::npos) << error;
}

TEST(TraceIoTest, InstanceCsvReaderStreamsFlowsOneAtATime) {
  Instance instance(SwitchSpec({2, 1}, {1, 2}), {});
  instance.AddFlow(0, 1, 2, 0, 3);
  instance.AddFlow(1, 0, 1, 4);
  std::ostringstream out;
  WriteInstanceCsv(instance, out);
  std::istringstream in(out.str());
  InstanceCsvReader reader(in);
  ASSERT_TRUE(reader.ok()) << reader.error();
  EXPECT_EQ(reader.sw(), instance.sw());
  EXPECT_TRUE(reader.with_coflow());
  Flow flow;
  ASSERT_TRUE(reader.NextFlow(&flow));
  EXPECT_EQ(flow.src, 0);
  EXPECT_EQ(flow.demand, 2);
  EXPECT_EQ(flow.coflow, 3);
  ASSERT_TRUE(reader.NextFlow(&flow));
  EXPECT_EQ(flow.src, 1);
  EXPECT_EQ(flow.coflow, kNoCoflow);
  EXPECT_FALSE(reader.NextFlow(&flow));  // Clean EOF...
  EXPECT_TRUE(reader.ok());              // ...is not an error.
}

TEST(TraceIoTest, InstanceCsvReaderRejectsRowsThatDoNotFitTheSwitch) {
  // Capacities 1 and 2 on both sides: kappa is 1 on port 0, 2 on port 1.
  const std::string header =
      "input_capacities\n1,2\noutput_capacities\n1,2\n"
      "src,dst,demand,release\n1,1,2,0\n";
  const std::pair<const char*, const char*> bad[] = {
      {"2,0,1,0\n", "line 7: input port 2 out of range"},
      {"-1,0,1,0\n", "line 7: input port -1 out of range"},
      {"0,5,1,0\n", "line 7: output port 5 out of range"},
      {"0,1,2,0\n", "line 7: demand 2 exceeds kappa 1"},
      {"1,1,0,0\n", "line 7: demand 0 < 1"},
  };
  for (const auto& [row, want] : bad) {
    SCOPED_TRACE(row);
    std::istringstream in(header + row);
    InstanceCsvReader reader(in);
    Flow flow;
    ASSERT_TRUE(reader.NextFlow(&flow)) << reader.error();
    EXPECT_FALSE(reader.NextFlow(&flow));
    EXPECT_EQ(reader.error(), want);
    std::string error;
    EXPECT_FALSE(ReadInstanceCsv(header + row, &error).has_value());
    EXPECT_EQ(error, want);
  }
}

TEST(TraceIoTest, InstanceCsvReaderRejectsBadCapacityWithoutAborting) {
  // A zero capacity must surface as a parse error (SwitchSpec would
  // FS_CHECK-abort on it — fatal for a daemon fed untrusted traces).
  std::istringstream in(
      "input_capacities\n1,0\noutput_capacities\n1,1\n"
      "src,dst,demand,release\n");
  InstanceCsvReader reader(in);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("line 2"), std::string::npos)
      << reader.error();
  EXPECT_NE(reader.error().find("bad capacity"), std::string::npos);
}

}  // namespace
}  // namespace flowsched
