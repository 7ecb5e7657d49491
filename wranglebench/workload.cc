#include "workload.h"

#include <algorithm>
#include <limits>

#include "common/rng.h"
#include "extract/open_government.h"

namespace wranglebench {
namespace {

using vada::Relation;

// Share of each listing extraction held back for kSource events.
constexpr double kHeldBackShare = 0.2;

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint64_t Fnv1a(const std::string& bytes,
               uint64_t hash = 0xcbf29ce484222325ULL) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

// The first `batches` entries of the result receive the held-back rows
// round robin; the rows kept stay in extraction order.
std::vector<Relation> HoldBack(Relation* listing, size_t batches,
                               vada::Rng* rng) {
  std::vector<Relation> out(batches, Relation(listing->schema()));
  if (batches == 0) return out;
  const std::vector<vada::Tuple>& rows = listing->rows();
  std::vector<size_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng->Shuffle(&order);
  size_t held = std::max(
      batches, static_cast<size_t>(kHeldBackShare *
                                   static_cast<double>(rows.size())));
  held = std::min(held, rows.size());
  std::vector<bool> is_held(rows.size(), false);
  for (size_t i = 0; i < held; ++i) {
    is_held[order[i]] = true;
    (void)out[i % batches].InsertUnchecked(rows[order[i]]);
  }
  Relation kept(listing->schema());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!is_held[i]) (void)kept.InsertUnchecked(rows[i]);
  }
  *listing = std::move(kept);
  return out;
}

void AppendRelation(const Relation& relation, std::string* out) {
  *out += relation.schema().ToString() + "\n";
  for (const vada::Tuple& row : relation.rows()) {
    *out += row.ToString();
    *out += '\n';
  }
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"bootstrap_1000", 1000, 100, 4, 0, false},
      {"payg_1000", 1000, 100, 8, 40, false},
      {"payg_100", 100, 12, 8, 50, true},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kFeedback:
      return "feedback";
    case EventKind::kSource:
      return "source";
    case EventKind::kUserContext:
      return "user_context";
  }
  return "?";
}

ScenarioInputs GenerateScenario(const WorkloadSpec& spec, uint64_t seed,
                                size_t variant) {
  ScenarioInputs in;
  in.seed = Mix(Mix(seed) + variant);
  vada::PropertyUniverseOptions universe;
  universe.num_properties = spec.properties;
  universe.num_postcodes = spec.postcodes;
  universe.seed = in.seed;
  in.truth = vada::GeneratePropertyUniverse(universe);
  // Asymmetric extraction quality, as in the paper's demonstration:
  // rightmove's wrapper reads the master bedroom's area as the bedroom
  // count far more often, so bedroom feedback has trust to shift.
  vada::ExtractionErrorOptions rm;
  rm.seed = in.seed * 31 + 1;
  rm.coverage = 0.75;
  rm.bedrooms_area_rate = 0.18;
  in.rightmove = vada::ExtractRightmove(in.truth, rm);
  vada::ExtractionErrorOptions otm;
  otm.seed = in.seed * 31 + 2;
  otm.coverage = 0.6;
  otm.bedrooms_area_rate = 0.04;
  in.onthemarket = vada::ExtractOnthemarket(in.truth, otm);
  in.deprivation = vada::GenerateDeprivation(in.truth);
  in.address = vada::GenerateAddressReference(in.truth);

  vada::Rng rng(in.seed ^ 0x5EEDULL);
  for (size_t block = 0; block * 10 < spec.epoch_events; ++block) {
    std::vector<EventKind> kinds(6, EventKind::kFeedback);
    kinds.insert(kinds.end(), 3, EventKind::kSource);
    kinds.push_back(EventKind::kUserContext);
    rng.Shuffle(&kinds);
    size_t take = std::min<size_t>(10, spec.epoch_events - block * 10);
    in.schedule.insert(in.schedule.end(), kinds.begin(), kinds.begin() + take);
  }
  size_t sources = static_cast<size_t>(
      std::count(in.schedule.begin(), in.schedule.end(), EventKind::kSource));
  std::vector<Relation> rm_batches =
      HoldBack(&in.rightmove, (sources + 1) / 2, &rng);
  std::vector<Relation> otm_batches =
      HoldBack(&in.onthemarket, sources / 2, &rng);
  for (size_t i = 0; i < sources; ++i) {
    in.held_back.push_back(i % 2 == 0 ? std::move(rm_batches[i / 2])
                                      : std::move(otm_batches[i / 2]));
  }
  in.annotation_seed = rng.Next();
  return in;
}

std::string SerializeInputs(const ScenarioInputs& in) {
  std::string out = "seed " + std::to_string(in.seed) + "\n";
  AppendRelation(in.truth.properties, &out);
  AppendRelation(in.truth.crime, &out);
  for (const std::string& p : in.truth.postcodes) out += p + ",";
  out += "\n";
  for (const Relation* r :
       {&in.rightmove, &in.onthemarket, &in.deprivation, &in.address}) {
    AppendRelation(*r, &out);
  }
  for (const Relation& batch : in.held_back) AppendRelation(batch, &out);
  for (EventKind kind : in.schedule) {
    out += EventKindName(kind);
    out += ",";
  }
  out += "\nannotation_seed " + std::to_string(in.annotation_seed) + "\n";
  return out;
}

vada::Schema TargetSchema() {
  return vada::Schema::Untyped(
      "property", {"type", "description", "street", "postcode", "bedrooms",
                   "price", "crimerank"});
}

vada::UserContext PaperUserContext() {
  vada::UserContext uc;
  (void)uc.AddStatement("completeness", "crimerank", "very strongly",
                        "accuracy", "property.type");
  (void)uc.AddStatement("consistency", "property", "strongly", "completeness",
                        "property.bedrooms");
  (void)uc.AddStatement("completeness", "property.street", "moderately",
                        "completeness", "property.postcode");
  return uc;
}

vada::UserContext ReversedUserContext() {
  vada::UserContext uc;
  (void)uc.AddStatement("accuracy", "property.type", "very strongly",
                        "completeness", "crimerank");
  (void)uc.AddStatement("completeness", "property.bedrooms", "strongly",
                        "consistency", "property");
  (void)uc.AddStatement("completeness", "property.postcode", "moderately",
                        "completeness", "property.street");
  return uc;
}

uint64_t RelationDigest(const Relation& relation) {
  uint64_t h = Fnv1a(relation.schema().ToString() + "\n");
  for (const vada::Tuple& row : relation.SortedRows()) {
    h = Fnv1a(row.ToString() + "\n", h);
  }
  return h;
}

std::optional<vada::FeedbackItem> Annotator::Next(const Relation& result) {
  std::optional<size_t> bedrooms =
      result.schema().AttributeIndex("bedrooms");
  if (result.empty() || !bedrooms.has_value()) return std::nullopt;
  for (int pass = 0; pass < 2; ++pass) {
    const vada::Tuple* pick = nullptr;
    uint64_t pick_key = 0;
    uint64_t best = std::numeric_limits<uint64_t>::max();
    for (const vada::Tuple& row : result.rows()) {
      uint64_t key = Fnv1a(row.ToString());
      if (annotated_.count(key) > 0) continue;
      uint64_t rank = Mix(key ^ seed_);
      if (pick == nullptr || rank < best) {
        pick = &row;
        pick_key = key;
        best = rank;
      }
    }
    if (pick == nullptr) {
      annotated_.clear();
      continue;
    }
    annotated_.insert(pick_key);
    std::optional<double> beds = pick->at(*bedrooms).AsDouble();
    vada::FeedbackPolarity polarity = beds.has_value() && *beds > 8.0
                                          ? vada::FeedbackPolarity::kIncorrect
                                          : vada::FeedbackPolarity::kCorrect;
    return vada::FeedbackItem{*pick, "bedrooms", polarity};
  }
  return std::nullopt;
}

}  // namespace wranglebench
