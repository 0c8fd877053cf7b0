// serve_bench: open-loop load generator and traced per-stage replay for
// serve::Engine (image in -> label out).
//
//   serve_bench --workload=NAME --seed=N --seconds=S --trace=0|1
//               [--trace-out=PATH]
//
// Normally started through perfbench/run.py, which builds it first.  The
// seed fixes every input: the synthetic images, the Poisson arrival
// schedule and each request's model and image.  Model weights use a fixed
// seed, so every run serves the same deployment.
//
// One run:
//   set-up     builds, trains (and calibrates or puts online) every model
//              of the workload, registers it with a fresh Engine and warms
//              it, kSetups times; setup_s is the median.  The last
//              deployment is measured.
//   phase 1    (kOpenShare of --seconds) open loop: Poisson arrivals at the
//              workload's fixed rate.  Each request is timed from when it
//              was due, so a stall also charges the requests queued behind
//              it; the generator's own lateness is reported on stderr.
//              latency_p50_ms is the phase's median; latency_p95_ms the
//              median of the p95s of kWindows consecutive windows.
//   phase 2    --trace=0: back-to-back bursts of kBurst requests; peak_rps
//              is the median drain rate.  --trace=1: the batches phase 1
//              formed are replayed, in order and at their observed sizes,
//              through each pipeline stage with a span around every call
//              (CNN prefix, manifold, encode, scoring, online publish).
// Every response is checked bitwise against a batch-1 reference computed
// at set-up (online: against one of the bank versions published between
// the request's submission and the end of the run).
//
// The last line of stdout is the JSON result; diagnostics go to stderr.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/feature_extractor.hpp"
#include "core/nshd.hpp"
#include "data/synth_cifar.hpp"
#include "hd/versioned_bank.hpp"
#include "models/zoo.hpp"
#include "serve/engine.hpp"

namespace {

using namespace nshd;
using Clock = std::chrono::steady_clock;

constexpr std::int64_t kClasses = 4;
constexpr std::int64_t kTrainPerClass = 16;  // HD training + INT8 calibration
constexpr std::int64_t kPoolPerClass = 16;   // distinct request images
constexpr std::uint64_t kModelSeed = 7;
constexpr std::int64_t kMaxBatch = 32;
constexpr int kSetups = 7;
constexpr double kOpenShare = 0.7;
constexpr std::size_t kWindows = 10;  // phase-1 windows for the tail latency
constexpr std::size_t kBurst = 256;
// Phase-1 arrival rate: about a third of what two workers drain, so batches
// form on the batching deadline and queueing shows without saturating.
constexpr double kRateRps = 1000.0;
constexpr double kUpdatePeriodMs = 50.0;  // online writer period
constexpr int kWarmupPerModel = 2 * static_cast<int>(kMaxBatch);

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::time_point plus_ms(Clock::time_point t, double ms) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double, std::milli>(ms));
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// ---------------------------------------------------------------- workloads

struct ModelSpec {
  const char* zoo;
  bool quantized;
};

struct WorkloadSpec {
  std::vector<ModelSpec> models;  // traffic is split evenly across them
  bool online = false;  // a writer publishes updates every kUpdatePeriodMs
};

bool workload_spec(const std::string& name, WorkloadSpec* spec) {
  if (name == "f32_mobilenet") {
    spec->models = {{"mobilenetv2s", false}};
  } else if (name == "int8_mixed") {
    spec->models = {{"vgg16s", true}, {"mobilenetv2s", true}};
  } else if (name == "online_mobilenet") {
    spec->models = {{"mobilenetv2s", false}};
    spec->online = true;
  } else {
    return false;
  }
  return true;
}

core::NshdConfig head_config() {
  core::NshdConfig config;  // paper defaults: D = 3000, F_hat = 100
  config.epochs = 2;
  config.use_kd = false;
  config.train_manifold = false;
  return config;
}

/// One online update: a single MASS epoch at a small step.
hd::MassConfig update_config() {
  hd::MassConfig config;
  config.learning_rate = 0.005f;
  return config;
}

serve::EngineConfig engine_config() {
  serve::EngineConfig config;
  config.workers = 2;
  config.max_batch = kMaxBatch;
  config.batch_deadline_ms = 2.0;
  config.queue_capacity = 4096;  // a whole burst fits; nothing is shed
  return config;
}

// ------------------------------------------------------------------- inputs

struct Arrival {
  double due_ms = 0.0;  // offset from the start of the phase
  int model = 0;
  std::int64_t image = 0;
};

struct Inputs {
  data::TrainTest data;  // train: HD head + calibration; test: request pool
  std::vector<tensor::Tensor> pool;  // [1, C, H, W] per request image
  std::vector<Arrival> open;         // phase-1 schedule
  std::vector<Arrival> burst;        // one phase-2 burst
};

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed, double open_ms) {
  Inputs in;
  data::SynthCifarConfig config;
  config.num_classes = kClasses;
  config.samples_per_class = kTrainPerClass;
  config.seed = 1000 + seed;
  in.data = data::make_synth_cifar_split(config, kPoolPerClass);
  const std::int64_t pool_size = in.data.test.size();
  for (std::int64_t i = 0; i < pool_size; ++i) in.pool.push_back(in.data.test.sample(i));

  std::mt19937_64 rng(seed);
  const auto uniform = [&rng] {  // in (0, 1)
    return (static_cast<double>(rng() >> 11) + 0.5) * 0x1.0p-53;
  };
  const auto pick = [&](double due_ms) {
    Arrival a;
    a.due_ms = due_ms;
    a.model = static_cast<int>(rng() % spec.models.size());
    a.image = static_cast<std::int64_t>(rng() % static_cast<std::uint64_t>(pool_size));
    return a;
  };
  for (double t = 0.0;;) {
    t += -std::log(uniform()) * 1e3 / kRateRps;
    if (t >= open_ms) break;
    in.open.push_back(pick(t));
  }
  for (std::size_t i = 0; i < kBurst; ++i) in.burst.push_back(pick(0.0));
  return in;
}

// --------------------------------------------------------------- deployment

struct Served {
  std::string id;
  serve::ModelBundle* bundle = nullptr;  // owned by the engine
  std::vector<hd::Hypervector> stream;   // online update samples
  std::vector<std::int64_t> stream_labels;
  std::vector<hd::Hypervector> queries;      // batch-1 reference per pool image
  std::vector<std::vector<float>> scores;    // batch-1 reference per pool image
};

struct Deployment {
  std::unique_ptr<serve::Engine> engine;
  std::vector<Served> served;
  bool online = false;
};

/// Batch-1 reference for every pool image, through the bundle's own plan
/// and head: the engine must answer each request bitwise identically at
/// any batch size.
void build_reference(const Inputs& in, Served& s) {
  serve::ModelBundle& b = *s.bundle;
  const std::int64_t f = b.plan.out_features();
  tensor::Tensor features(tensor::Shape{1, f});
  for (const tensor::Tensor& image : in.pool) {
    if (b.qplan != nullptr) {
      b.qplan->run_batch(image.view(), features.view());
    } else {
      b.plan.run_batch(image.view(), features.view());
    }
    s.queries.push_back(b.nshd.symbolize(features.data()));
    const tensor::Tensor sims = b.nshd.classifier().similarities_all(
        {s.queries.back()}, b.nshd.config().similarity);
    s.scores.emplace_back(sims.data(), sims.data() + sims.numel());
  }
}

/// Builds, trains, registers and warms the workload's deployment.  Returns
/// the seconds spent, excluding the reference computation (`reference`).
double set_up(const WorkloadSpec& spec, const Inputs& in, bool reference,
              Deployment* out) {
  double setup_s = 0.0;
  Clock::time_point t0 = Clock::now();
  out->engine = std::make_unique<serve::Engine>(engine_config());
  out->online = spec.online;
  std::vector<std::unique_ptr<serve::ModelBundle>> bundles;
  for (const ModelSpec& m : spec.models) {
    models::ZooModel zoo = models::make_model(m.zoo, kClasses, kModelSeed);
    const std::size_t cut = zoo.paper_cut_layers.back();
    auto bundle = std::make_unique<serve::ModelBundle>(std::move(zoo), cut,
                                                       head_config(), kMaxBatch);
    const core::ExtractedFeatures features =
        core::extract_features(bundle->plan, in.data.train, kMaxBatch);
    bundle->nshd.train(features, in.data.train.labels, /*teacher_logits=*/nullptr);
    if (m.quantized) {
      const nn::CalibrationReport& report =
          bundle->enable_quantized(in.data.train.images.view(), kMaxBatch);
      if (!report.clean()) throw std::runtime_error("INT8 calibration fell back");
    }
    Served s;
    s.id = m.zoo;
    s.bundle = bundle.get();
    if (out->online) {
      s.stream = bundle->nshd.symbolize_all(features);
      s.stream_labels = in.data.train.labels;
      hd::UpdateGuard guard;
      guard.holdout = s.stream;
      guard.holdout_labels = s.stream_labels;
      guard.max_accuracy_drop = 1.0;  // the gate runs but never rolls back
      bundle->enable_online(std::move(guard));
    }
    out->served.push_back(std::move(s));
    bundles.push_back(std::move(bundle));
  }
  setup_s += std::chrono::duration<double>(Clock::now() - t0).count();

  if (reference) {
    for (Served& s : out->served) build_reference(in, s);
  }

  t0 = Clock::now();
  for (std::size_t m = 0; m < bundles.size(); ++m)
    out->engine->register_model(out->served[m].id, std::move(bundles[m]));
  std::vector<std::future<serve::Response>> warm;
  for (const Served& s : out->served) {
    for (int i = 0; i < kWarmupPerModel; ++i) {
      warm.emplace_back();
      const tensor::Tensor& image = in.pool[static_cast<std::size_t>(i) % in.pool.size()];
      if (out->engine->submit(s.id, image, &warm.back()) != serve::SubmitStatus::kOk)
        throw std::runtime_error("warm-up request rejected");
    }
  }
  for (auto& future : warm) {
    if (future.get().status != serve::RequestStatus::kOk)
      throw std::runtime_error("warm-up request failed");
  }
  setup_s += std::chrono::duration<double>(Clock::now() - t0).count();
  return setup_s;
}

// ------------------------------------------------------------- online writer

/// Publishes one MASS epoch per model every kUpdatePeriodMs (open loop: a
/// late update starts at once, the schedule does not shift) and keeps every
/// published version so responses can be checked against the bank they
/// were scored on.
class Writer {
 public:
  explicit Writer(Deployment& d) : d_(d) {
    for (const Served& s : d_.served) {
      auto& versions = versions_[s.id];
      const hd::VersionedBank::Snapshot snap = s.bundle->online->snapshot();
      versions[snap->version] = snap;
    }
    thread_ = std::thread([this] { loop(); });
  }
  ~Writer() { stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Valid after stop().
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::map<std::uint64_t, hd::VersionedBank::Snapshot>& versions(
      const std::string& id) const {
    return versions_.at(id);
  }

 private:
  void loop() {
    const hd::MassConfig mass = update_config();
    const Clock::time_point start = Clock::now();
    for (std::int64_t k = 1;; ++k) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (cv_.wait_until(lock, plus_ms(start, kUpdatePeriodMs * static_cast<double>(k)),
                           [this] { return stop_; }))
          return;
      }
      for (const Served& s : d_.served) {
        ++attempted_;
        if (d_.engine->update_online(s.id, s.stream, s.stream_labels, mass) !=
            serve::UpdateStatus::kOk) {
          ++failed_;
          continue;
        }
        // Single writer: the published snapshot is the version just made.
        const hd::VersionedBank::Snapshot snap = s.bundle->online->snapshot();
        versions_[s.id][snap->version] = snap;
      }
    }
  }

  Deployment& d_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mutex_
  std::uint64_t attempted_ = 0, failed_ = 0;  // writer thread only
  std::map<std::string, std::map<std::uint64_t, hd::VersionedBank::Snapshot>> versions_;
  std::thread thread_;  // last: starts after every member it uses
};

// ----------------------------------------------------------------- checking

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;      // rejected at submit or not served kOk
  std::uint64_t mismatched = 0;  // served, but not the reference answer
};

bool same_scores(const std::vector<float>& got, const float* want, std::int64_t k) {
  return static_cast<std::int64_t>(got.size()) == k &&
         std::memcmp(got.data(), want, static_cast<std::size_t>(k) * sizeof(float)) == 0;
}

/// True when `r` is the reference answer for pool image `image`.  Online
/// responses may come from any version published at or after the one live
/// when the request was submitted.
bool response_correct(const Deployment& d, const Writer* writer, const Served& s,
                      std::int64_t image, std::uint64_t submit_version,
                      const serve::Response& r) {
  const auto idx = static_cast<std::size_t>(image);
  const auto argmax = [](const std::vector<float>& v) {
    return static_cast<std::int64_t>(std::max_element(v.begin(), v.end()) - v.begin());
  };
  if (r.scores.empty() || r.predicted != argmax(r.scores)) return false;
  if (!d.online) {
    return same_scores(r.scores, s.scores[idx].data(),
                       static_cast<std::int64_t>(s.scores[idx].size()));
  }
  const auto& versions = writer->versions(s.id);
  for (auto it = versions.lower_bound(submit_version); it != versions.end(); ++it) {
    const tensor::Tensor sims = it->second->bank.similarities_all(
        {s.queries[idx]}, s.bundle->nshd.config().similarity);
    if (same_scores(r.scores, sims.data(), sims.numel())) return true;
  }
  return false;
}

struct Outcome {
  int model = 0;
  std::int64_t image = 0;
  std::uint64_t version = 0;  // bank version live at submission (online)
  bool accepted = false;
  serve::Response response;
};

bool served_ok(const Outcome& o) {
  return o.accepted && o.response.status == serve::RequestStatus::kOk;
}

void check(const Deployment& d, const Writer* writer,
           const std::vector<Outcome>& outcomes, Tally* tally) {
  for (const Outcome& o : outcomes) {
    ++tally->attempted;
    if (!served_ok(o)) {
      ++tally->failed;
    } else if (!response_correct(d, writer, d.served[static_cast<std::size_t>(o.model)],
                                 o.image, o.version, o.response)) {
      ++tally->mismatched;
    }
  }
}

std::uint64_t live_version(const Served& s) {
  return s.bundle->online != nullptr ? s.bundle->online->version() : 0;
}

// ---------------------------------------------------------------- phase 1

struct OpenResult {
  std::vector<Outcome> outcomes;  // one per phase-1 arrival, in order
  std::vector<Clock::time_point> due, submitted;
};

OpenResult run_open_loop(Deployment& d, const Inputs& in) {
  const std::size_t n = in.open.size();
  OpenResult out;
  out.outcomes.resize(n);
  out.due.resize(n);
  out.submitted.resize(n);
  std::vector<std::future<serve::Response>> futures(n);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const Arrival& a = in.open[i];
    const Served& s = d.served[static_cast<std::size_t>(a.model)];
    Outcome& o = out.outcomes[i];
    o.model = a.model;
    o.image = a.image;
    tensor::Tensor image = in.pool[static_cast<std::size_t>(a.image)];
    out.due[i] = plus_ms(start, a.due_ms);
    // Spin rather than sleep: waking an idle virtual CPU can take
    // milliseconds, which would be charged to the request as lateness.
    while (Clock::now() < out.due[i]) {
    }
    out.submitted[i] = Clock::now();
    o.version = live_version(s);
    o.accepted = d.engine->submit(s.id, std::move(image), &futures[i]) ==
                 serve::SubmitStatus::kOk;
  }
  for (std::size_t i = 0; i < n; ++i)
    if (out.outcomes[i].accepted) out.outcomes[i].response = futures[i].get();
  return out;
}

/// Due -> response ready, per served request.  The engine times from
/// enqueue, so the wait between due and submission is added.
std::vector<double> latencies_ms(const OpenResult& open) {
  std::vector<double> out;
  for (std::size_t i = 0; i < open.outcomes.size(); ++i) {
    if (served_ok(open.outcomes[i]))
      out.push_back(ms_between(open.due[i], open.submitted[i]) +
                    open.outcomes[i].response.total_ms);
  }
  return out;
}

/// Median over kWindows consecutive arrival windows of each window's
/// q-quantile.  A tail quantile of the whole phase moves with a single
/// stall of the host; the median of per-window tails does not.
double windowed_quantile(const std::vector<double>& latency, double q) {
  std::vector<double> per_window;
  const std::size_t n = latency.size();
  for (std::size_t w = 0; w < kWindows; ++w) {
    const auto first = latency.begin() + static_cast<std::ptrdiff_t>(n * w / kWindows);
    const auto last = latency.begin() + static_cast<std::ptrdiff_t>(n * (w + 1) / kWindows);
    if (first != last) per_window.push_back(quantile({first, last}, q));
  }
  return quantile(per_window, 0.5);
}

// -------------------------------------------------------- phase 2: bursts

/// Offers back-to-back bursts of in.burst until `budget_ms` is spent (at
/// least one); returns each burst's drain rate in requests per second.
std::vector<double> run_bursts(Deployment& d, const Inputs& in, double budget_ms,
                               std::vector<Outcome>* outcomes) {
  std::vector<double> rates;
  const Clock::time_point start = Clock::now();
  while (rates.empty() || ms_between(start, Clock::now()) < budget_ms) {
    std::vector<std::future<serve::Response>> futures(in.burst.size());
    const std::size_t first = outcomes->size();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < in.burst.size(); ++i) {
      const Arrival& a = in.burst[i];
      const Served& s = d.served[static_cast<std::size_t>(a.model)];
      Outcome o;
      o.model = a.model;
      o.image = a.image;
      o.version = live_version(s);
      o.accepted = d.engine->submit(s.id, in.pool[static_cast<std::size_t>(a.image)],
                                    &futures[i]) == serve::SubmitStatus::kOk;
      outcomes->push_back(std::move(o));
    }
    for (std::size_t i = 0; i < in.burst.size(); ++i) {
      Outcome& o = (*outcomes)[first + i];
      if (o.accepted) o.response = futures[i].get();
    }
    rates.push_back(static_cast<double>(in.burst.size()) * 1e3 /
                    ms_between(t0, Clock::now()));
  }
  return rates;
}

// -------------------------------------------------- phase 2: traced replay

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t trace = 0;   // request index (engine spans) or batch ordinal
  const char* name = "";
  Clock::time_point start, end;
};

/// In-memory span log, written out once the run ends.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  std::uint64_t add(const char* name, std::uint64_t parent, std::uint64_t trace,
                    Clock::time_point start, Clock::time_point end) {
    spans_.push_back(Span{spans_.size() + 1, parent, trace, name, start, end});
    return spans_.back().id;
  }

  std::vector<double> durations_ms(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (std::strcmp(s.name, name) == 0) out.push_back(ms_between(s.start, s.end));
    return out;
  }

  double total_ms(const char* name) const {
    double total = 0.0;
    for (const double ms : durations_ms(name)) total += ms;
    return total;
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\": %llu, \"parent\": %llu, \"trace\": %llu, \"name\": \"%s\", "
                   "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.trace), s.name,
                   ms_between(epoch_, s.start) * 1e3, ms_between(epoch_, s.end) * 1e3);
    }
    return std::fclose(f) == 0;
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Engine-side spans of phase 1, from each response's own timings: request
/// (due -> ready) with children queue (enqueue -> batch formed) and execute
/// (batch formed -> ready).
void trace_engine(const OpenResult& open, Tracer* tracer) {
  for (std::size_t i = 0; i < open.outcomes.size(); ++i) {
    const Outcome& o = open.outcomes[i];
    if (!served_ok(o)) continue;
    const Clock::time_point formed = plus_ms(open.submitted[i], o.response.queue_ms);
    const Clock::time_point ready = plus_ms(open.submitted[i], o.response.total_ms);
    const std::uint64_t root = tracer->add("request", 0, i, open.due[i], ready);
    tracer->add("queue", root, i, open.submitted[i], formed);
    tracer->add("execute", root, i, formed, ready);
  }
}

/// Replays phase 1's batches, per model in submission order at the batch
/// sizes the engine formed, through each stage of the serving pipeline with
/// one span per stage.  The publish stage runs one MASS epoch over the
/// batch on a scratch copy of the bank, so the served bank is untouched.
/// Replayed outputs are checked against the reference too.  Returns the
/// number of requests replayed.
std::int64_t replay(Deployment& d, const Inputs& in, const OpenResult& open,
                    double budget_ms, Tracer* tracer, Tally* tally) {
  const hd::MassConfig mass = update_config();
  std::int64_t replayed = 0;
  std::uint64_t batch_ordinal = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t m = 0; m < d.served.size(); ++m) {
    const Served& s = d.served[m];
    serve::ModelBundle& b = *s.bundle;
    const hd::Similarity metric = b.nshd.config().similarity;
    const hd::VersionedBank::Snapshot snap =
        b.online != nullptr ? b.online->snapshot() : nullptr;
    const hd::HdClassifier& bank = snap != nullptr ? snap->bank : b.nshd.classifier();
    hd::VersionedBank scratch(bank);
    hd::UpdateGuard guard;
    guard.holdout = s.queries;
    guard.holdout_labels = in.data.test.labels;
    guard.max_accuracy_drop = 1.0;
    scratch.set_guard(guard);

    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < open.outcomes.size(); ++i)
      if (open.outcomes[i].model == static_cast<int>(m) && served_ok(open.outcomes[i]))
        order.push_back(i);
    const double model_budget_ms =
        budget_ms * static_cast<double>(m + 1) / static_cast<double>(d.served.size());
    const tensor::Shape& chw = b.zoo.input_chw;
    const std::int64_t sample_numel = chw.numel();
    const std::int64_t f = b.plan.out_features();
    for (std::size_t pos = 0;
         pos < order.size() && ms_between(start, Clock::now()) < model_budget_ms;) {
      const std::int64_t n = std::clamp<std::int64_t>(
          open.outcomes[order[pos]].response.batch_size, 1,
          static_cast<std::int64_t>(order.size() - pos));
      tensor::Tensor images(tensor::Shape{n, chw[0], chw[1], chw[2]});
      std::vector<std::size_t> pool_index(static_cast<std::size_t>(n));
      std::vector<std::int64_t> labels(static_cast<std::size_t>(n));
      for (std::size_t r = 0; r < pool_index.size(); ++r) {
        pool_index[r] = static_cast<std::size_t>(open.outcomes[order[pos + r]].image);
        labels[r] = in.data.test.labels[pool_index[r]];
        std::memcpy(images.data() + static_cast<std::int64_t>(r) * sample_numel,
                    in.pool[pool_index[r]].data(),
                    static_cast<std::size_t>(sample_numel) * sizeof(float));
      }
      pos += pool_index.size();
      ++batch_ordinal;

      const Clock::time_point t0 = Clock::now();
      tensor::Tensor features(tensor::Shape{n, f});
      if (b.qplan != nullptr) {
        b.qplan->run_batch(images.view(), features.view());
      } else {
        b.plan.run_batch(images.view(), features.view());
      }
      const Clock::time_point t1 = Clock::now();
      std::vector<tensor::Tensor> psi;
      psi.reserve(pool_index.size());
      for (std::int64_t r = 0; r < n; ++r)
        psi.push_back(b.nshd.manifold()->forward(features.data() + r * f));
      const Clock::time_point t2 = Clock::now();
      std::vector<hd::Hypervector> queries;
      queries.reserve(pool_index.size());
      for (const tensor::Tensor& p : psi) queries.push_back(b.nshd.projection().encode(p.data()));
      const Clock::time_point t3 = Clock::now();
      const tensor::Tensor sims = bank.similarities_all(queries, metric);
      const Clock::time_point t4 = Clock::now();
      const hd::UpdateStatus published = scratch.mass_epoch(queries, labels, mass);
      const Clock::time_point t5 = Clock::now();

      const std::uint64_t root = tracer->add("replay_batch", 0, batch_ordinal, t0, t5);
      tracer->add("prefix", root, batch_ordinal, t0, t1);
      tracer->add("manifold", root, batch_ordinal, t1, t2);
      tracer->add("encode", root, batch_ordinal, t2, t3);
      tracer->add("score", root, batch_ordinal, t3, t4);
      tracer->add("publish", root, batch_ordinal, t4, t5);
      replayed += n;

      ++tally->attempted;  // the publish
      if (published != hd::UpdateStatus::kOk) ++tally->failed;
      const std::int64_t k = sims.shape()[1];
      for (std::size_t r = 0; r < pool_index.size(); ++r) {
        const std::size_t idx = pool_index[r];
        const float* row = sims.data() + static_cast<std::int64_t>(r) * k;
        bool ok = queries[r] == s.queries[idx];
        if (ok && snap == nullptr) {
          ok = same_scores(s.scores[idx], row, k);
        } else if (ok) {
          const tensor::Tensor one = bank.similarities_all({s.queries[idx]}, metric);
          ok = std::memcmp(one.data(), row, static_cast<std::size_t>(k) * sizeof(float)) == 0;
        }
        if (!ok) ++tally->mismatched;
      }
    }
  }
  return replayed;
}

// ------------------------------------------------------------------- output

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void print_result(bool correct, const Tally& tally, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name, metrics[i].value, metrics[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

bool parse_options(int argc, char** argv, Options* o) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    try {
      if (key == "workload") {
        o->workload = value;
      } else if (key == "seed") {
        o->seed = std::stoull(value);
        have_seed = true;
      } else if (key == "seconds") {
        o->seconds = std::stod(value);
      } else if (key == "trace") {
        o->trace = std::stoi(value);
      } else if (key == "trace-out") {
        o->trace_out = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_seed && o->seconds > 0.0 && (o->trace == 0 || o->trace == 1);
}

int run(const Options& opt) {
  WorkloadSpec spec;
  if (!workload_spec(opt.workload, &spec)) {
    std::fprintf(stderr, "serve_bench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const double open_ms = opt.seconds * 1e3 * kOpenShare;
  const double phase2_ms = opt.seconds * 1e3 - open_ms;
  const Inputs in = make_inputs(spec, opt.seed, open_ms);

  std::vector<double> setups;
  Deployment d;
  for (int i = 0; i < kSetups; ++i) {
    d = Deployment();  // shuts the previous engine down first
    setups.push_back(set_up(spec, in, /*reference=*/i + 1 == kSetups, &d));
  }

  std::unique_ptr<Writer> writer;
  if (d.online) writer = std::make_unique<Writer>(d);
  const Clock::time_point epoch = Clock::now();
  const OpenResult open = run_open_loop(d, in);
  std::vector<Outcome> bursts;
  std::vector<double> rates;
  if (opt.trace == 0) rates = run_bursts(d, in, phase2_ms, &bursts);
  // Stopped before anything reads its version log, and before the replay
  // so the replay runs on a quiet engine.
  if (writer) writer->stop();

  Tally tally;
  check(d, writer.get(), open.outcomes, &tally);
  check(d, writer.get(), bursts, &tally);
  if (writer) {
    tally.attempted += writer->attempted();
    tally.failed += writer->failed();
  }

  const std::vector<double> latency = latencies_ms(open);
  std::vector<double> lag;
  for (std::size_t i = 0; i < open.due.size(); ++i)
    lag.push_back(ms_between(open.due[i], open.submitted[i]));
  std::fprintf(stderr,
               "serve_bench: %s seed %llu: %zu open-loop requests at %.0f/s, "
               "latency p50 %.3f ms p99 %.3f ms max %.3f ms; generator lag p50 "
               "%.3f ms p99 %.3f ms; setups",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               open.outcomes.size(), kRateRps, quantile(latency, 0.5),
               quantile(latency, 0.99), quantile(latency, 1.0), quantile(lag, 0.5),
               quantile(lag, 0.99));
  for (const double s : setups) std::fprintf(stderr, " %.3f s", s);
  std::fprintf(stderr, "\n");
  if (writer)
    std::fprintf(stderr, "serve_bench: %llu online updates, %llu failed\n",
                 static_cast<unsigned long long>(writer->attempted()),
                 static_cast<unsigned long long>(writer->failed()));

  std::vector<Metric> metrics;
  if (opt.trace == 0) {
    std::fprintf(stderr, "serve_bench: %zu bursts of %zu, rates", rates.size(),
                 in.burst.size());
    for (const double r : rates) std::fprintf(stderr, " %.1f", r);
    std::fprintf(stderr, " req/s\n");
    metrics = {
        {"latency_p50_ms", quantile(latency, 0.5), "ms"},
        {"latency_p95_ms", windowed_quantile(latency, 0.95), "ms"},
        {"peak_rps", quantile(rates, 0.5), "1/s"},
        {"setup_s", quantile(setups, 0.5), "s"},
    };
  } else {
    Tracer tracer(epoch);
    trace_engine(open, &tracer);
    const std::int64_t replayed = replay(d, in, open, phase2_ms, &tracer, &tally);
    if (replayed == 0) throw std::runtime_error("nothing was replayed");
    const auto per_request_us = [&](const char* stage) {
      return tracer.total_ms(stage) * 1e3 / static_cast<double>(replayed);
    };
    std::vector<double> queue_ms, service_ms;
    double inverse_batch = 0.0;
    for (const Outcome& o : open.outcomes) {
      if (!served_ok(o)) continue;
      queue_ms.push_back(o.response.queue_ms);
      service_ms.push_back(o.response.total_ms - o.response.queue_ms);
      inverse_batch += 1.0 / static_cast<double>(o.response.batch_size);
    }
    metrics = {
        {"queue_wait_ms", quantile(queue_ms, 0.5), "ms"},
        {"execute_ms", quantile(service_ms, 0.5), "ms"},
        {"batch_size_mean", static_cast<double>(queue_ms.size()) / inverse_batch, "count"},
        {"prefix_us_per_req", per_request_us("prefix"), "us"},
        {"manifold_us_per_req", per_request_us("manifold"), "us"},
        {"encode_us_per_req", per_request_us("encode"), "us"},
        {"score_us_per_req", per_request_us("score"), "us"},
        {"publish_ms", quantile(tracer.durations_ms("publish"), 0.5), "ms"},
    };
    std::fprintf(stderr, "serve_bench: replayed %lld requests\n",
                 static_cast<long long>(replayed));
    if (!opt.trace_out.empty() && !tracer.write(opt.trace_out))
      std::fprintf(stderr, "serve_bench: could not write %s\n", opt.trace_out.c_str());
  }
  if (tally.mismatched > 0)
    std::fprintf(stderr, "serve_bench: %llu responses differ from the reference\n",
                 static_cast<unsigned long long>(tally.mismatched));
  print_result(tally.mismatched == 0, tally, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload=NAME --seed=N --seconds=S --trace=0|1 "
                 "[--trace-out=PATH]\n");
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 1;
  }
}
