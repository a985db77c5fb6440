#include "trace/io.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/check.h"

namespace protean::trace {

namespace {

bool is_blank_or_comment(const std::string& line) {
  for (char c : line) {
    if (c == '#') return true;
    if (!std::isspace(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

// The field with surrounding whitespace (and a CRLF '\r') trimmed.
std::string trimmed(const std::string& field) {
  const auto first = field.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  return field.substr(first, field.find_last_not_of(" \t\r") - first + 1);
}

// Parses the whole field as one integer: "1x" or "2.7" is not a second.
std::optional<long> whole_long(const std::string& field) {
  const std::string token = trimmed(field);
  if (token.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(token.c_str(), &end, 10);
  if (errno != 0 || *end != '\0') return std::nullopt;
  return value;
}

// Parses the whole field as one finite number: "5abc", "nan" and "inf"
// are not rates.
std::optional<double> whole_finite(const std::string& field) {
  const std::string token = trimmed(field);
  if (token.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(token.c_str(), &end);
  if (errno != 0 || *end != '\0' || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

bool has_digit(const std::string& line) {
  return std::any_of(line.begin(), line.end(), [](char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
  });
}

}  // namespace

std::vector<double> parse_rate_csv(std::istream& in) {
  std::vector<double> rates;
  std::string line;
  long expected_second = 0;
  bool first_data_line = true;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (is_blank_or_comment(line)) continue;
    std::istringstream fields(line);
    std::string sec_field, rate_field;
    if (!std::getline(fields, sec_field, ',') ||
        !std::getline(fields, rate_field)) {
      throw std::invalid_argument("rate CSV line " + std::to_string(line_no) +
                                  ": expected 'second,rps'");
    }
    const auto second = whole_long(sec_field);
    const auto rate = whole_finite(rate_field);
    if (!second || !rate) {
      if (first_data_line && !has_digit(line)) {
        first_data_line = false;  // tolerate a header row
        continue;
      }
      throw std::invalid_argument("rate CSV line " + std::to_string(line_no) +
                                  ": want an integer second and a finite "
                                  "rate");
    }
    first_data_line = false;
    if (*second < expected_second) {
      throw std::invalid_argument("rate CSV line " + std::to_string(line_no) +
                                  ": seconds must be increasing");
    }
    if (*second > kMaxRateCsvSecond) {
      throw std::invalid_argument(
          "rate CSV line " + std::to_string(line_no) + ": second " +
          std::to_string(*second) + " is past the last allowed second " +
          std::to_string(kMaxRateCsvSecond));
    }
    if (*rate < 0.0) {
      throw std::invalid_argument("rate CSV line " + std::to_string(line_no) +
                                  ": negative rate");
    }
    // Fill gaps by holding the previous rate.
    const double hold = rates.empty() ? *rate : rates.back();
    while (expected_second < *second) {
      rates.push_back(hold);
      ++expected_second;
    }
    rates.push_back(*rate);
    ++expected_second;
  }
  if (rates.empty()) {
    throw std::invalid_argument("rate CSV contains no data rows");
  }
  if (*std::max_element(rates.begin(), rates.end()) <= 0.0) {
    throw std::invalid_argument("rate CSV has no positive rate");
  }
  return rates;
}

std::vector<double> load_rate_csv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open rate CSV: " + path);
  return parse_rate_csv(in);
}

TableTrace::TableTrace(std::vector<double> rates)
    : TableTrace(std::move(rates), Config{}) {}

TableTrace::TableTrace(std::vector<double> rates, const Config& config)
    : rates_(std::move(rates)) {
  PROTEAN_CHECK_MSG(!rates_.empty(), "empty rate table");
  if (config.target_rps > 0.0) {
    const double sum = std::accumulate(rates_.begin(), rates_.end(), 0.0);
    const double mean = sum / static_cast<double>(rates_.size());
    const double peak = *std::max_element(rates_.begin(), rates_.end());
    const double base = config.scale_to_peak ? peak : mean;
    PROTEAN_CHECK_MSG(base > 0.0, "cannot rescale an all-zero table");
    const double scale = config.target_rps / base;
    for (double& r : rates_) r *= scale;
  }
  mean_ = std::accumulate(rates_.begin(), rates_.end(), 0.0) /
          static_cast<double>(rates_.size());
  peak_ = *std::max_element(rates_.begin(), rates_.end());
}

double TableTrace::rate_at(SimTime t) const noexcept {
  if (t < 0.0) return rates_.front();
  auto idx = static_cast<std::size_t>(t);
  if (idx >= rates_.size()) idx = rates_.size() - 1;
  return rates_[idx];
}

}  // namespace protean::trace
