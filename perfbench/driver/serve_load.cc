// Workloads serve_cold and serve_hot: an open loop of Poisson arrivals
// into the real wym_serve binary over a Unix socket.
//
// Set-up fits WYM on T-AB (long textual rows), saves the model and
// starts wym_serve on it. One load generator (this process) drives
// kConnections pipelined connections with one writer thread (sends each
// request at its due time) and one reader thread (timestamps answers);
// the main thread checks the answers. Latency is timed from each
// request's due time, so a stall also charges the requests behind it.
//
//  * serve_cold: every pair is new, so every cache lookup misses and
//    per-request core work (encode, units, score) dominates. Every 4th
//    request asks for explanations.
//  * serve_hot: pairs are drawn Zipf(1) from a set 4x the server's 4096
//    cache entries and every 2nd request explains, so cache lookups,
//    FIFO eviction and rendering cached explanation lines dominate.
//
// Each run interleaves nominal-rate segments (latency, F1) with
// saturation bursts (goodput), then walks a fixed rate ladder (the
// highest rate meeting the latency limit).
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <random>
#include <thread>

#include "common.h"
#include "data/benchmark_gen.h"
#include "obs/json.h"
#include "serve/protocol.h"
#include "serve/socket_io.h"

namespace perfbench {
namespace {

using namespace wym;

constexpr const char* kFitDataset = "T-AB";
constexpr double kFitScale = 0.6;
constexpr int kSetupReps = 3;
constexpr size_t kConnections = 4;
constexpr size_t kPairsPerRequest = 8;
/// The latency limit of the rate ladder, on p99 from the due time.
constexpr double kLimitMs = 100.0;
/// The server's prediction-cache capacity (wym_serve's default).
constexpr size_t kCacheEntries = 4096;
/// The hot workload's pair set: 4x the cache, so FIFO eviction matters.
constexpr size_t kHotPairs = 4 * kCacheEntries;
/// Every kCheckEvery-th request has its served probabilities compared
/// with the offline batch predictor.
constexpr size_t kCheckEvery = 8;
/// Pairs replayed stage by stage in the traced run.
constexpr size_t kReplaySample = 200;
/// The nominal segments and saturation bursts run in kRounds interleaved
/// rounds, so a slow spell of the machine (they last seconds) hits one
/// round rather than a whole metric. The shares are of --seconds: all
/// nominal segments together, each burst, each ladder step.
constexpr int kRounds = 8;
constexpr double kNominalShare = 0.35;
constexpr double kBurstShare = 0.025;
constexpr double kStepShare = 0.05;

/// Traffic shape of one workload.
struct Traffic {
  bool hot = false;
  /// Every explain_every-th request asks for explanations (a fixed
  /// mix, so explain goodput carries no sampling noise).
  size_t explain_every = 4;
  /// Nominal rate (req/s): the latency metrics' operating point.
  double nominal_rps = 0;
  /// Saturation rate (req/s), well past capacity: its bursts measure
  /// the server's goodput.
  double saturate_rps = 0;
  /// Fixed ladder (req/s), ascending; closer steps near the knee.
  std::vector<double> ladder;
};

Traffic TrafficFor(bool hot) {
  if (hot) {
    return {true, 2, 400, 4500,
            {1000, 1500, 1800, 2000, 2200, 2400, 2600, 2800, 3000, 3300, 3700}};
  }
  return {false, 4, 200, 1600,
          {400, 600, 700, 780, 840, 900, 960, 1030, 1100, 1200, 1350}};
}

// ---------------------------------------------------------------------
// The server child process.

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts wym_serve on `model_path` and waits until `ping` answers.
  bool Start(const std::string& bin, const std::string& model_path,
             const std::string& socket_path, const std::string& log_path,
             const std::string& journal_path) {
    socket_path_ = socket_path;
    std::vector<std::string> args = {bin, "--socket", socket_path, "--model",
                                     "default=" + model_path, "--cache",
                                     std::to_string(kCacheEntries)};
    if (!journal_path.empty()) {
      args.push_back("--journal");
      args.push_back(journal_path);
    }
    pid_ = fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      FILE* log = std::fopen(log_path.c_str(), "w");
      if (log != nullptr) {
        dup2(fileno(log), 1);
        dup2(fileno(log), 2);
      }
      std::vector<char*> argv;
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);
    }
    const uint64_t deadline = NowNs() + 60ull * 1000000000ull;
    while (NowNs() < deadline) {
      std::string reply;
      if (Call("{\"op\":\"ping\"}", &reply) &&
          reply.find("\"ok\":true") != std::string::npos) {
        return true;
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  /// One request/response exchange on a fresh connection.
  bool Call(const std::string& line, std::string* reply) const {
    Result<int> fd = serve::ConnectUnix(socket_path_);
    if (!fd.ok()) return false;
    serve::LineChannel channel(fd.value());
    if (!channel.WriteLine(line).ok()) return false;
    bool eof = false, timed_out = false;
    return channel.ReadLine(reply, 30000, &eof, &timed_out).ok() && !eof &&
           !timed_out;
  }

  /// The `stats` payload, parsed; false on failure.
  bool Stats(obs::JsonValue* payload) const {
    std::string reply;
    if (!Call("{\"op\":\"stats\"}", &reply)) return false;
    Result<serve::Response> response = serve::ParseResponse(reply);
    std::string error;
    return response.ok() &&
           obs::ParseJson(response.value().payload_json, payload, &error);
  }

  double PeakRssMb() const { return pid_ > 0 ? perfbench::PeakRssMb(pid_) : 0; }

  /// Graceful shutdown; false when the server did not exit cleanly.
  bool Stop() {
    if (pid_ <= 0) return false;
    std::string reply;
    Call("{\"op\":\"shutdown\"}", &reply);
    const uint64_t deadline = NowNs() + 20ull * 1000000000ull;
    while (NowNs() < deadline) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Kill();
    return false;
  }

 private:
  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }

  pid_t pid_ = -1;
  std::string socket_path_;
};

// ---------------------------------------------------------------------
// Inputs.

/// The pairs requests draw from, with their generated labels.
class PairPool {
 public:
  PairPool(uint64_t seed, bool hot) : seed_(seed), hot_(hot) {
    if (hot_) {
      Grow(kHotPairs);
      // Zipf(1) over a random rank order of the pool.
      ranks_.resize(pairs_.size());
      for (size_t i = 0; i < ranks_.size(); ++i) ranks_[i] = i;
      std::shuffle(ranks_.begin(), ranks_.end(), std::mt19937_64(seed ^ 0x21F));
      double total = 0.0;
      for (size_t k = 0; k < ranks_.size(); ++k) {
        total += 1.0 / static_cast<double>(k + 1);
        cdf_.push_back(total);
      }
      for (double& c : cdf_) c /= total;
    }
  }

  /// Index of the next pair a request carries: a fresh pair (cold) or
  /// a Zipf draw (hot).
  size_t Draw(std::mt19937_64* rng) {
    if (!hot_) {
      if (next_ >= pairs_.size()) Grow(pairs_.size() + 2048);
      return next_++;
    }
    const double u = std::uniform_real_distribution<double>(0, 1)(*rng);
    const size_t k = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return ranks_[std::min(k, ranks_.size() - 1)];
  }

  const data::EmRecord& pair(size_t i) const { return pairs_[i]; }
  size_t size() const { return pairs_.size(); }

 private:
  /// Appends generated T-AB pairs (fresh generator seeds) up to `n`.
  void Grow(size_t n) {
    while (pairs_.size() < n) {
      data::Dataset batch =
          data::GenerateById(kFitDataset, seed_ * 1000003ull + 17 + batches_++,
                             1.0);
      for (auto& record : batch.records) pairs_.push_back(std::move(record));
    }
  }

  uint64_t seed_;
  bool hot_;
  uint64_t batches_ = 0;
  size_t next_ = 0;
  std::vector<data::EmRecord> pairs_;
  std::vector<size_t> ranks_;
  std::vector<double> cdf_;
};

/// One request of a step.
struct Req {
  std::string line;
  std::vector<size_t> pairs;
  bool explain = false;
  uint64_t due_offset_ns = 0;
  // Filled by the generator.
  uint64_t due_ns = 0;
  uint64_t send_ns = 0;
  uint64_t recv_ns = 0;
  size_t response_bytes = 0;
  std::string response;  // Kept only when the step keeps lines.
  bool ok = false;
  bool shed = false;
  std::vector<double> probabilities;
  std::vector<int> predictions;
};

/// Builds a step of Poisson arrivals at `rps` for `seconds`.
std::vector<Req> MakeStep(PairPool* pool, const Traffic& traffic, double rps,
                          double seconds, uint64_t seed, uint64_t* next_id) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rps);
  std::vector<Req> step;
  double t = 0.0;
  while (true) {
    t += gap(rng);
    if (t >= seconds) break;
    Req req;
    req.due_offset_ns = static_cast<uint64_t>(t * 1e9);
    req.explain = *next_id % traffic.explain_every == 0;
    serve::Request request;
    request.op = serve::Request::Op::kPredict;
    request.id = "r";
    request.id += std::to_string((*next_id)++);
    request.explain = req.explain;
    for (size_t p = 0; p < kPairsPerRequest; ++p) {
      const size_t index = pool->Draw(&rng);
      req.pairs.push_back(index);
      request.pairs.push_back(pool->pair(index));
    }
    req.line = serve::RenderRequest(request) + "\n";
    step.push_back(std::move(req));
  }
  return step;
}

// ---------------------------------------------------------------------
// The open-loop generator.

/// Step-level accounting.
struct StepStats {
  double rps = 0;
  size_t sent = 0, ok = 0, failed = 0, shed = 0;
  double p50_ms = 0, p99_ms = 0, lag_p99_ms = 0;
  double backlog_first = 0, backlog_second = 0;
  double seconds = 0;
  /// Pairs (and explained pairs) answered ok within the step's window:
  /// the step's goodput, the server's capacity once the step overloads.
  size_t window_pairs = 0, window_explained_pairs = 0;
  /// Every request's latency from its due time (failures as +inf-like).
  std::vector<double> latency_ms;

  double Goodput() const { return window_pairs / seconds; }
  double ExplainGoodput() const { return window_explained_pairs / seconds; }

  /// Outstanding requests in the second half of the step clearly above
  /// the first half (the slack absorbs per-connection head-of-line
  /// jitter, which is not overload).
  bool Growing() const { return backlog_second > 2.0 * backlog_first + 8.0; }
  /// The generator itself ran later than the latency limit.
  bool Invalid() const { return lag_p99_ms > kLimitMs; }
  bool Passes() const {
    return sent > 0 && failed == 0 && p99_ms <= kLimitMs && !Growing() &&
           !Invalid();
  }
};

/// Index of request "r<n>" in `step`, from the id's number.
bool ResponseIndex(const std::string& line, uint64_t first_id, size_t count,
                   size_t* index) {
  const size_t at = line.find("\"id\":\"r");
  if (at == std::string::npos) return false;
  const uint64_t id = std::strtoull(line.c_str() + at + 7, nullptr, 10);
  if (id < first_id || id - first_id >= count) return false;
  *index = static_cast<size_t>(id - first_id);
  return true;
}

/// Result-level predictions of an answer line, in pair order. The
/// explanation objects carry "prediction" keys too, but theirs are
/// followed by "units" where a result's are followed by "cached".
std::vector<int> ScanPredictions(const std::string& line) {
  static const std::string kKey = "{\"prediction\":";
  std::vector<int> out;
  for (size_t at = line.find(kKey); at != std::string::npos;
       at = line.find(kKey, at + 1)) {
    const size_t value = at + kKey.size();
    const size_t probability = line.find(",\"probability\":", value);
    const size_t next = line.find(',', probability + 1);
    if (probability != std::string::npos && next != std::string::npos &&
        line.compare(next, 10, ",\"cached\":") == 0) {
      out.push_back(line[value] == '1' ? 1 : 0);
    }
  }
  return out;
}

/// Checks one answer (on the main thread, off the timing path). Every
/// explain answer must carry units for each pair; sampled answers are
/// parsed in full and keep their probabilities for the offline check.
void CheckAnswer(Req* req, bool sampled) {
  const std::string& line = req->response;
  if (line.find("\"ok\":true") == std::string::npos) {
    req->shed = line.find("ResourceExhausted") != std::string::npos;
    return;
  }
  if (req->explain) {
    size_t units = 0;
    for (size_t at = line.find("\"units\":[{"); at != std::string::npos;
         at = line.find("\"units\":[{", at + 1)) {
      ++units;
    }
    if (units != req->pairs.size()) return;
  }
  req->predictions = ScanPredictions(line);
  if (req->predictions.size() != req->pairs.size()) return;
  if (sampled) {
    Result<serve::Response> parsed = serve::ParseResponse(line);
    if (!parsed.ok() || parsed.value().results.size() != req->pairs.size()) {
      return;
    }
    for (const auto& r : parsed.value().results) {
      if (req->explain &&
          r.explanation_json.find("\"units\":[{") == std::string::npos) {
        return;
      }
      req->probabilities.push_back(r.probability);
    }
  }
  req->ok = true;
}

/// Runs one step: sends every request of `step` at its due time over
/// `fds` and collects every answer. `keep_lines` keeps response lines
/// for the traced run.
StepStats RunStep(const std::vector<int>& fds, std::vector<Req>* step,
                  uint64_t first_id, double rps, double seconds,
                  bool keep_lines) {
  const size_t n = step->size();
  std::atomic<size_t> received{0};
  std::vector<size_t> outstanding_at_send(n, 0);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<size_t> arrived;
  bool reader_done = false;
  const uint64_t start = NowNs() + 2000000;

  std::thread writer([&] {
    for (size_t i = 0; i < n; ++i) {
      Req& req = (*step)[i];
      const uint64_t due = start + req.due_offset_ns;
      const uint64_t now = NowNs();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      }
      req.due_ns = due;
      req.send_ns = NowNs();
      outstanding_at_send[i] = i - received.load(std::memory_order_relaxed);
      const int fd = fds[i % fds.size()];
      size_t off = 0;
      while (off < req.line.size()) {
        const ssize_t w =
            ::write(fd, req.line.data() + off, req.line.size() - off);
        if (w < 0 && errno == EINTR) continue;
        if (w <= 0) return;  // The reader's timeout accounts the rest.
        off += static_cast<size_t>(w);
      }
    }
  });

  std::thread reader([&] {
    std::vector<std::string> buffers(fds.size());
    std::vector<pollfd> polls;
    for (int fd : fds) polls.push_back({fd, POLLIN, 0});
    std::vector<char> chunk(1 << 18);
    const uint64_t give_up = start + static_cast<uint64_t>(seconds * 1e9) +
                             30ull * 1000000000ull;
    while (received.load() < n && NowNs() < give_up) {
      if (::poll(polls.data(), polls.size(), 50) <= 0) continue;
      for (size_t c = 0; c < fds.size(); ++c) {
        if ((polls[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t r = ::read(fds[c], chunk.data(), chunk.size());
        if (r <= 0) {
          polls[c].fd = -1;  // Closed: its requests stay unanswered.
          continue;
        }
        const uint64_t now = NowNs();
        std::string& buffer = buffers[c];
        buffer.append(chunk.data(), static_cast<size_t>(r));
        size_t begin = 0, end = 0;
        while ((end = buffer.find('\n', begin)) != std::string::npos) {
          size_t index = 0;
          std::string line = buffer.substr(begin, end - begin);
          begin = end + 1;
          if (!ResponseIndex(line, first_id, n, &index)) continue;
          Req& req = (*step)[index];
          req.recv_ns = now;
          req.response_bytes = line.size();
          req.response = std::move(line);
          {
            std::lock_guard<std::mutex> lock(mu);
            arrived.push_back(index);
          }
          cv.notify_one();
          received.fetch_add(1);
        }
        buffer.erase(0, begin);
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    reader_done = true;
    cv.notify_one();
  });

  // Check answers as they arrive, off the generator's threads.
  while (true) {
    size_t index = 0;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !arrived.empty() || reader_done; });
      if (arrived.empty()) break;
      index = arrived.front();
      arrived.pop_front();
    }
    Req& req = (*step)[index];
    CheckAnswer(&req, (first_id + index) % kCheckEvery == 0);
    if (!keep_lines) std::string().swap(req.response);
  }
  writer.join();
  reader.join();

  StepStats stats;
  stats.rps = rps;
  stats.seconds = seconds;
  stats.sent = n;
  std::vector<double> latency_ms, lag_ms;
  double first_half = 0, second_half = 0;
  const uint64_t window_end = start + static_cast<uint64_t>(seconds * 1e9);
  for (size_t i = 0; i < n; ++i) {
    const Req& req = (*step)[i];
    if (req.send_ns != 0) {
      lag_ms.push_back(NsToMs(static_cast<double>(req.send_ns - req.due_ns)));
    }
    (i < n / 2 ? first_half : second_half) +=
        static_cast<double>(outstanding_at_send[i]);
    if (req.ok) {
      ++stats.ok;
      if (req.recv_ns <= window_end) {
        stats.window_pairs += req.pairs.size();
        if (req.explain) stats.window_explained_pairs += req.pairs.size();
      }
      latency_ms.push_back(
          NsToMs(static_cast<double>(req.recv_ns - req.due_ns)));
    } else {
      // A failed, shed or missing answer misses every latency limit.
      ++stats.failed;
      stats.shed += req.shed ? 1 : 0;
      latency_ms.push_back(1e9);
    }
  }
  stats.p50_ms = Median(latency_ms);
  stats.p99_ms = Quantile(latency_ms, 0.99);
  stats.lag_p99_ms = Quantile(lag_ms, 0.99);
  stats.latency_ms = std::move(latency_ms);
  stats.backlog_first = first_half / std::max<double>(1, n / 2);
  stats.backlog_second = second_half / std::max<double>(1, n - n / 2);
  return stats;
}

void PrintStep(const char* label, const StepStats& s) {
  std::printf(
      "  %-8s %7.0f req/s  sent %5zu ok %5zu failed %3zu shed %3zu  p50 "
      "%7.3f p99 %8.3f ms  lag p99 %6.3f ms  backlog %.1f->%.1f  goodput "
      "%.0f pairs/s  %s\n",
      label, s.rps, s.sent, s.ok, s.failed, s.shed, s.p50_ms,
      std::min(s.p99_ms, 99999.0), s.lag_p99_ms, s.backlog_first,
      s.backlog_second, s.Goodput(),
      s.Invalid() ? "INVALID(generator late)"
                  : (s.Passes() ? "pass" : "fail"));
}

/// Opens the generator's connections.
bool Connect(const std::string& socket_path, std::vector<int>* fds) {
  for (size_t c = 0; c < kConnections; ++c) {
    Result<int> fd = serve::ConnectUnix(socket_path);
    if (!fd.ok()) return false;
    fds->push_back(fd.value());
  }
  return true;
}

void CloseAll(std::vector<int>* fds) {
  for (int fd : *fds) ::close(fd);
  fds->clear();
}

/// Counter / histogram readers over a parsed `stats` payload.
double Counter(const obs::JsonValue& stats, const char* name) {
  const obs::JsonValue* metrics = stats.Find("metrics");
  const obs::JsonValue* counters =
      metrics != nullptr ? metrics->Find("counters") : nullptr;
  const obs::JsonValue* value =
      counters != nullptr ? counters->Find(name) : nullptr;
  return value != nullptr && value->IsNumber() ? value->number : 0.0;
}

double HistogramField(const obs::JsonValue& stats, const char* name,
                      const char* field) {
  const obs::JsonValue* metrics = stats.Find("metrics");
  const obs::JsonValue* hists =
      metrics != nullptr ? metrics->Find("histograms") : nullptr;
  const obs::JsonValue* hist = hists != nullptr ? hists->Find(name) : nullptr;
  const obs::JsonValue* value = hist != nullptr ? hist->Find(field) : nullptr;
  return value != nullptr && value->IsNumber() ? value->number : 0.0;
}

/// Compares sampled served probabilities with offline PredictProbaBatch
/// on the same pairs; returns the number of requests that disagree.
size_t CheckAgainstOffline(const core::WymModel& model, const PairPool& pool,
                           std::vector<Req*> sampled) {
  std::vector<data::EmRecord> records;
  for (const Req* req : sampled) {
    for (size_t p : req->pairs) records.push_back(pool.pair(p));
  }
  const std::vector<double> offline = model.PredictProbaBatch(records);
  size_t wrong = 0, at = 0;
  for (const Req* req : sampled) {
    bool same = req->probabilities.size() == req->pairs.size();
    for (size_t p = 0; p < req->pairs.size(); ++p, ++at) {
      if (same && req->probabilities[p] != offline[at]) same = false;
    }
    wrong += same ? 0 : 1;
  }
  return wrong;
}

/// The run's shared state: model, pool, server and request ids.
struct Session {
  RunOptions options;
  Traffic traffic;
  ModelSetup setup;
  std::unique_ptr<PairPool> pool;
  /// The next request id ("r<n>"): unique over the run.
  uint64_t next_id = 0;
  uint64_t step_seed = 0;
  std::string socket_path;
};

/// Builds and runs one step on a fresh set of connections.
StepStats Step(Session* s, double rps, double seconds, bool keep_lines,
               std::vector<Req>* out, RunResult* result) {
  const uint64_t first_id = s->next_id;
  *out = MakeStep(s->pool.get(), s->traffic, rps, seconds,
                  s->options.seed * 7919 + ++s->step_seed, &s->next_id);
  std::vector<int> fds;
  if (!Connect(s->socket_path, &fds)) {
    result->Fail("cannot connect to wym_serve");
    return {};
  }
  StepStats stats = RunStep(fds, out, first_id, rps, seconds, keep_lines);
  CloseAll(&fds);
  std::vector<Req*> sampled;
  for (size_t i = 0; i < out->size(); ++i) {
    if ((first_id + i) % kCheckEvery == 0 && (*out)[i].ok) {
      sampled.push_back(&(*out)[i]);
    }
  }
  const size_t wrong =
      CheckAgainstOffline(s->setup.model, *s->pool, sampled);
  if (wrong != 0) {
    stats.failed += wrong;
    stats.ok -= std::min(stats.ok, wrong);
    result->Fail(std::to_string(wrong) +
                 " served answers differ from offline PredictProbaBatch");
  }
  return stats;
}

/// Warms a fresh server at the nominal rate; on the hot workload long
/// enough for the Zipf traffic to fill the cache several times over.
void Warm(Session* s, RunResult* result) {
  std::vector<Req> warm;
  Step(s, s->traffic.nominal_rps, s->traffic.hot ? 4.0 : 1.5, false, &warm,
       result);
}

/// F1 of the served decisions over the distinct pairs of `step` (a
/// Zipf-repeated pair counts once).
double F1Of(const PairPool& pool, const std::vector<Req>& step) {
  size_t tp = 0, predicted = 0, actual = 0;
  std::vector<bool> seen(pool.size(), false);
  for (const Req& req : step) {
    if (!req.ok) continue;
    for (size_t p = 0; p < req.pairs.size(); ++p) {
      if (seen[req.pairs[p]]) continue;
      seen[req.pairs[p]] = true;
      const bool yes = req.predictions[p] == 1;
      const bool truth = pool.pair(req.pairs[p]).label == 1;
      tp += yes && truth;
      predicted += yes;
      actual += truth;
    }
  }
  return F1(tp, predicted, actual);
}

std::string ServeLog(const Session& s, const char* tag) {
  return s.options.work_dir + "/wym_serve_" + tag + ".log";
}

int RunTraced(Session* s, RunResult* result) {
  Tracer tracer;
  s->setup = SetUpModel(kFitDataset, kFitScale, kModelSeed,
                        s->options.work_dir + "/serve_model.wym", &tracer,
                        result);
  if (!result->correct) return 1;
  const double nominal_s = kNominalShare * s->options.seconds;

  // Untraced reference: no journal, no spans.
  double untraced_mean_ms = 0.0;
  {
    ServerProcess server;
    if (!server.Start(s->options.serve_bin, s->setup.path, s->socket_path,
                      ServeLog(*s, "untraced"), "")) {
      result->Fail("wym_serve did not start");
      return 1;
    }
    Warm(s, result);
    std::vector<Req> step;
    Step(s, s->traffic.nominal_rps, nominal_s, false, &step,
         result);
    std::vector<double> latency;
    for (const Req& r : step) {
      if (r.ok) latency.push_back(static_cast<double>(r.recv_ns - r.send_ns));
    }
    untraced_mean_ms = NsToMs(Mean(latency));
    server.Stop();
  }

  const std::string journal = s->options.work_dir + "/journal.jsonl";
  std::remove(journal.c_str());
  ServerProcess server;
  if (!server.Start(s->options.serve_bin, s->setup.path, s->socket_path,
                    ServeLog(*s, "traced"), journal)) {
    result->Fail("wym_serve did not start");
    return 1;
  }
  Warm(s, result);
  obs::JsonValue before, after;
  server.Stats(&before);
  const uint64_t first_id = s->next_id;
  std::vector<Req> step;
  const StepStats stats = Step(s, s->traffic.nominal_rps,
                               nominal_s, true, &step, result);
  server.Stats(&after);
  if (!server.Stop()) result->Fail("wym_serve did not drain cleanly");

  // Journal lines of this step, by request index.
  struct Journal {
    double queue_ns = 0, run_ns = 0, total_ns = 0;
    bool seen = false;
  };
  std::vector<Journal> by_index(step.size());
  std::ifstream in(journal);
  std::string line;
  while (std::getline(in, line)) {
    obs::JsonValue record;
    std::string error;
    if (!obs::ParseJson(line, &record, &error)) continue;
    const obs::JsonValue* id = record.Find("client_id");
    if (id == nullptr || !id->IsString() || id->string.size() < 2) continue;
    const uint64_t n = std::strtoull(id->string.c_str() + 1, nullptr, 10);
    const obs::JsonValue* queue_ns = record.Find("queue_ns");
    const obs::JsonValue* run_ns = record.Find("run_ns");
    const obs::JsonValue* total_ns = record.Find("total_ns");
    if (n < first_id || n - first_id >= step.size() || queue_ns == nullptr ||
        run_ns == nullptr || total_ns == nullptr) {
      continue;
    }
    by_index[n - first_id] = {queue_ns->number, run_ns->number,
                              total_ns->number, true};
  }

  // Per-request span trees: request (due -> answer) = gen.lag (due ->
  // send) + transport (send -> answer), whose children are the server's
  // queue and run (journal) and the protocol parse/render of the same
  // lines (replayed here). Transport self time is the socket share no
  // span covers.
  std::vector<double> queue_us, run_us, transport_us, parse_us, render_us,
      bytes, traced_latency;
  for (size_t i = 0; i < step.size(); ++i) {
    const Req& req = step[i];
    const Journal& j = by_index[i];
    if (!req.ok || !j.seen) continue;
    uint64_t t0 = NowNs();
    Result<serve::Request> parsed_request = serve::ParseRequest(req.line);
    const double parse_ns = static_cast<double>(NowNs() - t0);
    Result<serve::Response> parsed_response =
        serve::ParseResponse(req.response);
    if (!parsed_request.ok() || !parsed_response.ok()) {
      result->Fail("replayed protocol lines do not parse");
      continue;
    }
    t0 = NowNs();
    const std::string rendered = serve::RenderResponse(parsed_response.value());
    const double render_ns = static_cast<double>(NowNs() - t0);
    const double wire_ns = static_cast<double>(req.recv_ns - req.send_ns);
    queue_us.push_back(NsToUs(j.queue_ns));
    run_us.push_back(NsToUs(j.run_ns));
    transport_us.push_back(NsToUs(wire_ns - j.total_ns));
    parse_us.push_back(NsToUs(parse_ns));
    render_us.push_back(NsToUs(render_ns));
    bytes.push_back(static_cast<double>(req.response_bytes));
    traced_latency.push_back(wire_ns);

    const int lane = static_cast<int>(i % kConnections);
    const uint64_t request_id = first_id + i;
    const int root = tracer.Add("request", req.due_ns, req.recv_ns, -1,
                                request_id, lane);
    tracer.Add("gen.lag", req.due_ns, req.send_ns, root, request_id, lane);
    const int wire = tracer.Add("transport", req.send_ns, req.recv_ns, root,
                                request_id, lane);
    // Place the server interval in the middle of the wire time (the two
    // processes share no clock), with parse before and render after.
    const uint64_t inbound = static_cast<uint64_t>(
        std::max(0.0, (wire_ns - j.total_ns) / 2));
    uint64_t at = req.send_ns + inbound;
    const uint64_t parse_at =
        at - std::min<uint64_t>(at, static_cast<uint64_t>(parse_ns));
    tracer.Add("protocol.parse", parse_at, at, wire, request_id, lane);
    tracer.Add("serve.queue", at, at + static_cast<uint64_t>(j.queue_ns), wire,
               request_id, lane);
    at += static_cast<uint64_t>(j.queue_ns);
    tracer.Add("serve.run", at, at + static_cast<uint64_t>(j.run_ns), wire,
               request_id, lane);
    at += static_cast<uint64_t>(j.run_ns);
    tracer.Add("protocol.render", at,
               std::min(req.recv_ns, at + static_cast<uint64_t>(render_ns)),
               wire, request_id, lane);
  }

  // Core stage replay over a fixed sample of the pool.
  std::vector<data::EmRecord> sample;
  for (size_t i = 0; i < kReplaySample && i < s->pool->size(); ++i) {
    sample.push_back(s->pool->pair(i));
  }
  const std::vector<double> expected = s->setup.model.PredictProbaBatch(sample);
  const StageReplay replay =
      ReplayStages(s->setup.model, sample, expected, &tracer);
  if (replay.mismatches != 0) {
    result->Fail("stage replay disagrees with PredictProbaBatch");
  }

  const double hits = Counter(after, "serve.cache_hits") -
                      Counter(before, "serve.cache_hits");
  const double misses = Counter(after, "serve.cache_misses") -
                        Counter(before, "serve.cache_misses");
  result->attempted = stats.sent;
  result->failed = stats.failed;
  result->Add("fit.total_s", s->setup.fit_s, "s");
  replay.AddTo(result);
  result->Add("serve.queue_p50_us", Median(queue_us), "us");
  result->Add("serve.queue_p99_us", Quantile(queue_us, 0.99), "us");
  result->Add("serve.run_p50_us", Median(run_us), "us");
  result->Add("serve.run_p99_us", Quantile(run_us, 0.99), "us");
  result->Add("serve.pool_wait_p95_us",
              NsToUs(HistogramField(after, "pool.task_wait_ns", "p95_ns")),
              "us");
  result->Add("serve.shed",
              Counter(after, "serve.shed") - Counter(before, "serve.shed"),
              "count");
  result->Add("serve.deadline",
              Counter(after, "serve.deadline_expired") -
                  Counter(before, "serve.deadline_expired"),
              "count");
  result->Add("serve.transport_us", Mean(transport_us), "us");
  result->Add("serve.response_bytes", Mean(bytes), "bytes");
  result->Add("serve.cache_hit_frac",
              hits + misses > 0 ? hits / (hits + misses) : 0.0, "frac");
  result->Add("protocol.parse_us", Mean(parse_us), "us");
  result->Add("protocol.render_us", Mean(render_us), "us");
  result->Add("gen.lag_p99_ms", stats.lag_p99_ms, "ms");
  result->Add("gen.sent", static_cast<double>(stats.sent), "count");
  result->Add("gen.ok", static_cast<double>(stats.ok), "count");
  result->Add("gen.failed", static_cast<double>(stats.failed), "count");
  AddSelfTimes(tracer, result);
  const double request_total = tracer.TotalSeconds("request");
  result->Add("trace.unattributed_frac",
              request_total > 0
                  ? tracer.SelfSeconds()["transport"] / request_total
                  : 0.0,
              "frac");
  const double traced_mean_ms = NsToMs(Mean(traced_latency));
  result->Add("trace.overhead_frac",
              (traced_mean_ms - untraced_mean_ms) / untraced_mean_ms, "frac");
  PrintStep("traced", stats);
  const std::string trace_path = s->options.work_dir + "/trace_" +
                                 s->options.workload + ".json";
  if (!tracer.WriteChromeTrace(trace_path)) {
    result->Fail("cannot write " + trace_path);
  }
  std::printf("traced mean %.3f ms vs untraced %.3f ms; trace: %s\n",
              traced_mean_ms, untraced_mean_ms, trace_path.c_str());
  return 0;
}

}  // namespace

int RunServe(const RunOptions& options, bool hot, RunResult* result) {
  Session s;
  s.options = options;
  s.traffic = TrafficFor(hot);
  s.socket_path = options.work_dir + "/wym.sock";
  s.pool = std::make_unique<PairPool>(options.seed, hot);
  if (options.trace) return RunTraced(&s, result);

  // Set-up, several times: generate, Fit, save, load, start the server
  // and wait for `ping`. The last server stays up for the run.
  std::vector<double> setup_s, generate_s, fit_s, persist_s, start_s;
  std::unique_ptr<ServerProcess> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const uint64_t t0 = NowNs();
    ModelSetup next =
        SetUpModel(kFitDataset, kFitScale, kModelSeed,
                   options.work_dir + "/serve_model.wym", nullptr, result);
    if (!result->correct) return 1;
    if (rep > 0 && next.file_digest != s.setup.file_digest) {
      result->Fail("Fit is not deterministic: model files differ");
    }
    server = std::make_unique<ServerProcess>();
    const uint64_t start = NowNs();
    if (!server->Start(options.serve_bin, next.path, s.socket_path,
                       ServeLog(s, "run"), "")) {
      result->Fail("wym_serve did not start");
      return 1;
    }
    const uint64_t end = NowNs();
    setup_s.push_back(static_cast<double>(end - t0) / 1e9);
    generate_s.push_back(next.generate_s);
    fit_s.push_back(next.fit_s);
    persist_s.push_back(next.persist_s);
    start_s.push_back(static_cast<double>(end - start) / 1e9);
    s.setup = std::move(next);
    if (rep + 1 < kSetupReps && !server->Stop()) {
      result->Fail("wym_serve did not drain cleanly");
    }
  }

  Warm(&s, result);
  obs::JsonValue before, after;
  server->Stats(&before);

  // Interleaved rounds of a nominal segment (latency, F1) and a
  // saturation burst (goodput).
  const double segment_s = kNominalShare * options.seconds / kRounds;
  const double burst_s = kBurstShare * options.seconds;
  std::printf("%s: %d rounds of %.0f req/s for %.1f s + %.0f req/s for %.1f s, "
              "then the ladder at %.1f s a step (limit p99 <= %.0f ms from "
              "the due time)\n",
              options.workload.c_str(), kRounds, s.traffic.nominal_rps,
              segment_s, s.traffic.saturate_rps, burst_s,
              kStepShare * options.seconds, kLimitMs);
  std::vector<StepStats> all;
  std::vector<Req> nominal;
  std::vector<double> latency_ms, goodput, explain_goodput;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<Req> segment;
    all.push_back(Step(&s, s.traffic.nominal_rps, segment_s,
                       false, &segment, result));
    PrintStep("nominal", all.back());
    latency_ms.insert(latency_ms.end(), all.back().latency_ms.begin(),
                      all.back().latency_ms.end());
    std::move(segment.begin(), segment.end(), std::back_inserter(nominal));
    std::vector<Req> burst;
    all.push_back(Step(&s, s.traffic.saturate_rps, burst_s,
                       false, &burst, result));
    PrintStep("saturate", all.back());
    goodput.push_back(all.back().Goodput());
    explain_goodput.push_back(all.back().ExplainGoodput());
  }

  // Ladder (serve_max_rps): ascending until two steps in a row fail.
  double max_rps = 0.0;
  int consecutive_fails = 0;
  for (double rps : s.traffic.ladder) {
    std::vector<Req> step;
    all.push_back(Step(&s, rps, kStepShare * options.seconds,
                       false, &step, result));
    PrintStep("ladder", all.back());
    if (all.back().Passes()) {
      max_rps = rps;
      consecutive_fails = 0;
    } else if (++consecutive_fails == 2) {
      break;
    }
  }
  server->Stats(&after);
  const double rss_mb = server->PeakRssMb();
  if (!server->Stop()) result->Fail("wym_serve did not drain cleanly");

  // No request may fail anywhere: four connections cannot overflow the
  // admission queue and no request carries a deadline, so even the
  // saturation bursts only queue.
  size_t sent = 0, failed = 0;
  for (const auto& st : all) {
    sent += st.sent;
    failed += st.failed;
  }
  const double hits = Counter(after, "serve.cache_hits") -
                      Counter(before, "serve.cache_hits");
  const double misses = Counter(after, "serve.cache_misses") -
                        Counter(before, "serve.cache_misses");
  const double f1 = F1Of(*s.pool, nominal);
  std::printf("  serve_p50_ms %.4f ms, serve_p90_ms %.4f ms, serve_p99_ms "
              "%.4f ms (%zu requests)\n"
              "  serve_max_rps %.0f req/s\n  goodput %.0f pairs/s "
              "(median of %d bursts)\n  serve_fail_frac %.6f\n"
              "  serve_f1 %.6f\n"
              "  cache_hit_frac %.4f (%.0f hits, %.0f misses)\n",
              Median(latency_ms), Quantile(latency_ms, 0.9),
              Quantile(latency_ms, 0.99), latency_ms.size(),
              max_rps, Median(goodput),
              kRounds, static_cast<double>(failed) / std::max<double>(1, sent),
              f1, hits + misses > 0 ? hits / (hits + misses) : 0.0, hits,
              misses);
  std::printf("  setup phases (median of %d): generate %.3f s, fit %.3f s, "
              "save+load %.3f s, server start to ping %.3f s\n"
              "  peak RSS: wym_serve %.1f MB, load generator %.1f MB\n",
              kSetupReps, Median(generate_s), Median(fit_s), Median(persist_s),
              Median(start_s), rss_mb, PeakRssMb());
  result->attempted = sent;
  result->failed = failed;
  if (failed != 0) {
    result->Fail(std::to_string(failed) + " requests were not answered ok");
  }
  result->Add("setup_s", Median(setup_s), "s");
  result->Add("peak_rss_mb", rss_mb, "MB");
  result->Add("fit_rec_per_s", s.setup.train_records / Median(fit_s), "1/s");
  result->Add("resolve_rec_per_s", Median(goodput), "1/s");
  result->Add("explain_rec_per_s", Median(explain_goodput), "1/s");
  result->Add("f1", f1, "frac");
  return 0;
}

}  // namespace perfbench
