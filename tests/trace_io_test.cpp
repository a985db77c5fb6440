// Tests for rate-trace CSV I/O and table-backed traces.
#include "trace/io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "tool_runner.h"

namespace protean::trace {
namespace {

TEST(RateCsv, ParsesSimpleTable) {
  std::istringstream in("second,rps\n0,100\n1,200\n2,150\n");
  const auto rates = parse_rate_csv(in);
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_DOUBLE_EQ(rates[0], 100.0);
  EXPECT_DOUBLE_EQ(rates[1], 200.0);
  EXPECT_DOUBLE_EQ(rates[2], 150.0);
}

TEST(RateCsv, HeaderIsOptional) {
  std::istringstream in("0,100\n1,200\n");
  EXPECT_EQ(parse_rate_csv(in).size(), 2u);
}

TEST(RateCsv, SkipsCommentsAndBlankLines) {
  std::istringstream in("# a comment\n\n0,100\n\n# more\n1,50\n");
  EXPECT_EQ(parse_rate_csv(in).size(), 2u);
}

TEST(RateCsv, GapsHoldPreviousRate) {
  std::istringstream in("0,100\n3,400\n");
  const auto rates = parse_rate_csv(in);
  ASSERT_EQ(rates.size(), 4u);
  EXPECT_DOUBLE_EQ(rates[1], 100.0);
  EXPECT_DOUBLE_EQ(rates[2], 100.0);
  EXPECT_DOUBLE_EQ(rates[3], 400.0);
}

TEST(RateCsv, RejectsMalformedInput) {
  {
    std::istringstream in("0,100\n0,200\n");  // non-increasing
    EXPECT_THROW(parse_rate_csv(in), std::invalid_argument);
  }
  {
    std::istringstream in("0,-5\n");  // negative rate
    EXPECT_THROW(parse_rate_csv(in), std::invalid_argument);
  }
  {
    std::istringstream in("justone\n");  // missing column
    EXPECT_THROW(parse_rate_csv(in), std::invalid_argument);
  }
  {
    std::istringstream in("header,row\n");  // only a header
    EXPECT_THROW(parse_rate_csv(in), std::invalid_argument);
  }
  {
    std::istringstream in("0,100\nx,y\n");  // non-numeric mid-file
    EXPECT_THROW(parse_rate_csv(in), std::invalid_argument);
  }
  {
    // A far second would fill ~800 GB of gap; it is refused by line.
    std::istringstream in("0,1\n99999999999,1\n");
    try {
      parse_rate_csv(in);
      ADD_FAILURE() << "a second past kMaxRateCsvSecond parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("rate CSV line 2: "),
                std::string::npos)
          << e.what();
    }
  }
  {
    // The bound is the named constant: one second past it is refused.
    std::istringstream in("0,1\n" + std::to_string(kMaxRateCsvSecond + 1) +
                          ",1\n");
    EXPECT_THROW(parse_rate_csv(in), std::invalid_argument);
  }
  // Every field is one whole finite token, and some rate is positive.
  for (const char* text :
       {"0,0\n1,0\n", "0,nan\n", "0,100\n1,nan\n", "0,inf\n",
        "0,100\n1,-inf\n", "0,100\n1x,5\n", "0,100\n1,5abc\n",
        "1x,5abc\n", "2.7,6\n", "0,100\n2.7,6\n", "0,1e999\n",
        "0,100\n1,\n", "0,100\n,5\n", "0,100\n1,5,6\n"}) {
    std::istringstream in(text);
    EXPECT_THROW(parse_rate_csv(in), std::invalid_argument) << text;
  }
}

TEST(RateCsv, AcceptsPaddedFieldsAndCrlf) {
  std::istringstream in("second,rps\r\n0, 100\r\n 1 ,0\r\n");
  EXPECT_EQ(parse_rate_csv(in), (std::vector<double>{100.0, 0.0}));
}

// Deterministic mutation loop: every one-byte deletion, insertion or
// replacement of a valid table either parses into finite, non-negative
// rates with at least one positive, or throws std::invalid_argument.
TEST(RateCsv, OneByteMutationsParseOrThrow) {
  // One positive rate, so a single byte can zero the table.
  const std::string valid = "second,rps\n0,0\n2,5\n# gap\n3,0.0e1\n";
  const std::string alphabet = "0123456789.,-+eExna#\n ";
  std::vector<std::string> mutants;
  for (std::size_t i = 0; i <= valid.size(); ++i) {
    if (i < valid.size()) {
      mutants.push_back(valid.substr(0, i) + valid.substr(i + 1));
    }
    for (char c : alphabet) {
      mutants.push_back(valid.substr(0, i) + c + valid.substr(i));
      if (i < valid.size()) {
        std::string replaced = valid;
        replaced[i] = c;
        mutants.push_back(replaced);
      }
    }
  }
  std::size_t parsed = 0;
  for (const auto& text : mutants) {
    std::istringstream in(text);
    std::vector<double> rates;
    try {
      rates = parse_rate_csv(in);
    } catch (const std::invalid_argument&) {
      continue;
    }
    ++parsed;
    bool positive = false;
    for (double r : rates) {
      ASSERT_TRUE(std::isfinite(r) && r >= 0.0) << text;
      positive = positive || r > 0.0;
    }
    ASSERT_TRUE(positive) << text;
  }
  EXPECT_GT(parsed, 0u);  // the loop exercised the accepting path too
}

TEST(RateCsv, FileRoundTrip) {
  const std::string path = temp_path("rate_io_test.csv");
  spit(path, "second,rps\n0,1\n1,2.5\n2,3\n");
  EXPECT_EQ(load_rate_csv(path), (std::vector<double>{1.0, 2.5, 3.0}));
  std::remove(path.c_str());
  EXPECT_THROW(load_rate_csv("/no/such/dir/x.csv"), std::invalid_argument);
}

TEST(TableTrace, KeepsRawRatesByDefault) {
  TableTrace trace({100.0, 200.0, 300.0});
  EXPECT_DOUBLE_EQ(trace.mean_rate(), 200.0);
  EXPECT_DOUBLE_EQ(trace.peak_rate(), 300.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(1.5), 200.0);
  EXPECT_DOUBLE_EQ(trace.horizon(), 3.0);
}

TEST(TableTrace, RescalesToTargetMean) {
  TableTrace::Config config;
  config.target_rps = 1000.0;
  TableTrace trace({100.0, 300.0}, config);
  EXPECT_NEAR(trace.mean_rate(), 1000.0, 1e-9);
  EXPECT_NEAR(trace.peak_rate(), 1500.0, 1e-9);
}

TEST(TableTrace, RescalesToTargetPeak) {
  TableTrace::Config config;
  config.target_rps = 600.0;
  config.scale_to_peak = true;
  TableTrace trace({100.0, 300.0}, config);
  EXPECT_NEAR(trace.peak_rate(), 600.0, 1e-9);
}

TEST(TableTrace, EmptyTableThrows) {
  EXPECT_THROW(TableTrace(std::vector<double>{}), std::logic_error);
}

TEST(RateTraceTable, FeedsRateTraceViaConfig) {
  TraceConfig config;
  config.kind = TraceKind::kTable;
  config.table = {50.0, 150.0};
  config.target_rps = 0.0;  // keep raw
  RateTrace trace(config);
  EXPECT_DOUBLE_EQ(trace.rate_at(0.0), 50.0);
  EXPECT_DOUBLE_EQ(trace.rate_at(1.0), 150.0);
  EXPECT_DOUBLE_EQ(trace.horizon(), 2.0);
}

TEST(RateTraceTable, RescalesWhenTargetGiven) {
  TraceConfig config;
  config.kind = TraceKind::kTable;
  config.table = {50.0, 150.0};
  config.target_rps = 200.0;
  RateTrace trace(config);
  EXPECT_NEAR(trace.mean_rate(), 200.0, 1e-9);
}

TEST(RateTraceTable, EmptyTableRejected) {
  TraceConfig config;
  config.kind = TraceKind::kTable;
  EXPECT_THROW(RateTrace{config}, std::logic_error);
}

}  // namespace
}  // namespace protean::trace
