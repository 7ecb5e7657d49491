#include "datalog/explain.h"

#include <cstdio>

#include "obs/json.h"

namespace vada::datalog {

namespace {

std::string FmtMillis(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fms", static_cast<double>(ns) / 1e6);
  return buf;
}

std::string JoinPositions(const std::vector<size_t>& positions) {
  std::string out;
  for (size_t p : positions) {
    if (!out.empty()) out += ",";
    out += std::to_string(p);
  }
  return out;
}

}  // namespace

LiteralRuntime PlanExplain::Totals() const {
  LiteralRuntime total;
  for (const StratumExplain& stratum : strata) {
    for (const RuleExplain& rule : stratum.rules) {
      for (const LiteralExplain& lit : rule.literals) total.Add(lit.actual);
    }
  }
  return total;
}

std::string PlanExplain::ToText() const {
  std::string out = analyzed ? "plan (analyzed)\n" : "plan\n";
  for (size_t s = 0; s < strata.size(); ++s) {
    const StratumExplain& stratum = strata[s];
    out += "  stratum " + std::to_string(s) + ":";
    for (const std::string& p : stratum.predicates) out += " " + p;
    out += "\n";
    for (const RuleExplain& rule : stratum.rules) {
      out += "    rule " + rule.text;
      if (rule.aggregate) out += "  [aggregate]";
      if (analyzed) {
        out += "  (applications=" + std::to_string(rule.applications) +
               " facts=" + std::to_string(rule.facts_derived) + ")";
      }
      out += "\n";
      for (const LiteralExplain& lit : rule.literals) {
        out += "      [" + std::to_string(lit.body_index) + "] " + lit.kind +
               " " + lit.text + "  access=" + lit.access;
        if (lit.kind == "atom") {
          out += " est=" + std::to_string(lit.estimated_cost);
          if (!lit.bound_positions.empty()) {
            out += " bound=[" + JoinPositions(lit.bound_positions) + "]";
          }
        }
        if (analyzed) {
          out += "  | scans=" + std::to_string(lit.actual.scan_probes) +
                 " probes=" + std::to_string(lit.actual.index_probes) +
                 " candidates=" +
                 std::to_string(lit.actual.index_candidates) + " time=" +
                 FmtMillis(lit.actual.time_ns);
        }
        out += "\n";
      }
    }
  }
  if (analyzed) {
    LiteralRuntime total = Totals();
    out += "  totals: scans=" + std::to_string(total.scan_probes) +
           " probes=" + std::to_string(total.index_probes) + " candidates=" +
           std::to_string(total.index_candidates) + "\n";
  }
  return out;
}

std::string PlanExplain::ToJson() const {
  std::string out = "{\"analyzed\":";
  out += analyzed ? "true" : "false";
  out += ",\"strata\":[";
  for (size_t s = 0; s < strata.size(); ++s) {
    const StratumExplain& stratum = strata[s];
    if (s > 0) out += ",";
    out += "{\"predicates\":[";
    for (size_t p = 0; p < stratum.predicates.size(); ++p) {
      if (p > 0) out += ",";
      out += "\"" + obs::JsonEscape(stratum.predicates[p]) + "\"";
    }
    out += "],\"rules\":[";
    for (size_t r = 0; r < stratum.rules.size(); ++r) {
      const RuleExplain& rule = stratum.rules[r];
      if (r > 0) out += ",";
      out += "{\"text\":\"" + obs::JsonEscape(rule.text) + "\"";
      out += ",\"aggregate\":";
      out += rule.aggregate ? "true" : "false";
      if (analyzed) {
        out += ",\"applications\":" + std::to_string(rule.applications);
        out += ",\"facts_derived\":" + std::to_string(rule.facts_derived);
      }
      out += ",\"literals\":[";
      for (size_t l = 0; l < rule.literals.size(); ++l) {
        const LiteralExplain& lit = rule.literals[l];
        if (l > 0) out += ",";
        out += "{\"body_index\":" + std::to_string(lit.body_index);
        out += ",\"kind\":\"" + obs::JsonEscape(lit.kind) + "\"";
        out += ",\"text\":\"" + obs::JsonEscape(lit.text) + "\"";
        out += ",\"access\":\"" + obs::JsonEscape(lit.access) + "\"";
        out += ",\"estimated_cost\":" + std::to_string(lit.estimated_cost);
        out += ",\"bound_positions\":[" ;
        for (size_t b = 0; b < lit.bound_positions.size(); ++b) {
          if (b > 0) out += ",";
          out += std::to_string(lit.bound_positions[b]);
        }
        out += "]";
        if (analyzed) {
          out += ",\"scan_probes\":" + std::to_string(lit.actual.scan_probes);
          out += ",\"index_probes\":" +
                 std::to_string(lit.actual.index_probes);
          out += ",\"index_candidates\":" +
                 std::to_string(lit.actual.index_candidates);
          out += ",\"time_ns\":" + std::to_string(lit.actual.time_ns);
        }
        out += "}";
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "]";
  if (analyzed) {
    LiteralRuntime total = Totals();
    out += ",\"totals\":{\"scan_probes\":" +
           std::to_string(total.scan_probes) +
           ",\"index_probes\":" + std::to_string(total.index_probes) +
           ",\"index_candidates\":" +
           std::to_string(total.index_candidates) + "}";
  }
  out += "}";
  return out;
}

}  // namespace vada::datalog
