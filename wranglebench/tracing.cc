#include "tracing.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <unordered_map>
#include <utility>

#include "obs/json.h"

namespace wranglebench {
namespace {

class TimedTransducer : public vada::Transducer {
 public:
  TimedTransducer(std::unique_ptr<vada::Transducer> inner,
                  SpanRecorder* recorder)
      : vada::Transducer(inner->name(), inner->activity(),
                         inner->input_dependency()),
        inner_(std::move(inner)),
        recorder_(recorder) {}

  const std::string* vadalog_program() const override {
    return inner_->vadalog_program();
  }

  vada::Status Execute(vada::KnowledgeBase* kb) override {
    uint64_t span = recorder_->Begin(kBodySpan, name(),
                                     recorder_->current_run());
    vada::Status s = inner_->Execute(kb);
    recorder_->End(span);
    return s;
  }

  vada::Status Execute(vada::KnowledgeBase* kb,
                       vada::ExecutionContext* ctx) override {
    uint64_t span = recorder_->Begin(kBodySpan, name(),
                                     recorder_->current_run());
    vada::Status s = inner_->Execute(kb, ctx);
    recorder_->End(span);
    return s;
  }

 private:
  std::unique_ptr<vada::Transducer> inner_;
  SpanRecorder* recorder_;
};

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

uint64_t SpanRecorder::Begin(const char* kind, std::string detail,
                             uint64_t parent) {
  Span span;
  span.id = spans_.size() + 1;
  span.op = op_;
  span.parent = parent;
  span.kind = kind;
  span.detail = std::move(detail);
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::End(uint64_t id) { spans_[id - 1].end_ns = NowNs(); }

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& s : spans_) {
    char times[96];
    std::snprintf(times, sizeof(times), "\"start_ns\":%lld,\"end_ns\":%lld",
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns));
    out << "{\"id\":" << s.id << ",\"op\":" << s.op
        << ",\"parent\":" << s.parent << ",\"kind\":\"" << s.kind
        << "\",\"detail\":\"" << vada::obs::JsonEscape(s.detail) << "\","
        << times << "}\n";
  }
  return static_cast<bool>(out);
}

vada::TransducerRegistry::Decorator TimingDecorator(SpanRecorder* recorder) {
  return [recorder](std::unique_ptr<vada::Transducer> inner)
             -> std::unique_ptr<vada::Transducer> {
    return std::make_unique<TimedTransducer>(std::move(inner), recorder);
  };
}

LayerTimes SumLayers(const std::vector<Span>& spans) {
  LayerTimes out;
  std::unordered_map<uint64_t, const Span*> runs;
  int64_t run_ns = 0;
  int64_t covered_ns = 0;
  for (const Span& s : spans) {
    if (s.op == 0) continue;
    const std::string kind = s.kind;
    int64_t dur = s.end_ns - s.start_ns;
    if (kind == kRunSpan) {
      runs.emplace(s.id, &s);
      run_ns += dur;
    } else if (kind == kInputSpan) {
      out.input_ms += Ms(dur);
    }
  }
  for (const Span& s : spans) {
    if (s.op == 0 || std::string(s.kind) != kBodySpan) continue;
    int64_t dur = s.end_ns - s.start_ns;
    out.body_ms[s.detail] += Ms(dur);
    ++out.body_calls[s.detail];
    auto run = runs.find(s.parent);
    if (run == runs.end() || run->second->op != s.op) {
      ++out.orphan_bodies;
    } else {
      covered_ns += dur;
    }
  }
  out.run_ms = Ms(run_ns);
  out.orchestration_ms = Ms(run_ns - covered_ns);
  return out;
}

}  // namespace wranglebench
