// Shared declarations of the end-to-end benchmark (README.md).
#ifndef TXML_E2EBENCH_E2E_H_
#define TXML_E2EBENCH_E2E_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/net/client.h"
#include "src/net/server.h"
#include "src/query/planner.h"
#include "src/service/service.h"
#include "src/util/macros.h"
#include "src/util/random.h"
#include "src/util/timestamp.h"
#include "src/workload/tdocgen.h"
#include "src/xml/node.h"

namespace txml::e2e {

/// Traced runs toggle tracing in windows of this length, so traced and
/// untraced requests of one run can be compared.
inline constexpr int64_t kTraceWindowNs = 250'000'000;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Placeholder of a StatusOr that a timed lambda assigns.
inline Status NotRun() { return Status::Internal("not run"); }

// ---------------------------------------------------------------- workloads

/// Request classes. Every class but kPut is a read; the end-to-end
/// latency metrics group them (README.md, "Metrics").
enum class Op : uint8_t {
  kSnapshot,   // SELECT R FROM doc(u)[date]/item R  (listing at a past date)
  kHistory,    // [EVERY] history of one item, WHERE on its key
  kLifetime,   // CREATE TIME(R) of one item at a past date
  kDiff,       // DIFF of one item between a date and the day before
  kCurrent,    // listing of the current version
  kPut,        // next version of one document
};
inline constexpr int kOpCount = 6;
const char* OpName(Op op);

/// Settings every workload shares: TDocGen edits per version, the
/// database's intermediate-snapshot interval and the service's snapshot
/// cache size.
inline constexpr size_t kMutationsPerVersion = 4;
inline constexpr uint32_t kSnapshotEvery = 16;
inline constexpr size_t kCacheCapacity = 1024;

/// Sizes and mix of one named workload. Every document is a TDocGen
/// collection (<collection>/<item key=…>).
struct WorkloadSpec {
  std::string name;
  size_t docs = 0;
  /// Versions loaded per document during set-up.
  size_t versions = 0;
  /// Initial items per collection.
  size_t items = 0;
  size_t readers = 4;
  /// Closed-loop writer clients (ingest_mixed only).
  size_t writers = 0;
  WalSyncMode sync = WalSyncMode::kNone;
  /// DurabilityOptions::checkpoint_log_records (the service default
  /// unless the workload must checkpoint within one run).
  uint64_t checkpoint_log_records = DurabilityOptions{}.checkpoint_log_records;
  /// Per-mille shares of each read class in a reader's stream.
  int mix[kOpCount] = {};
};

/// The named workload at full size, or scaled down for the self-test.
/// False when the name is unknown.
bool MakeSpec(const std::string& name, bool smoke, WorkloadSpec* spec);

/// The query date (a midnight) that selects version `version` (1-based)
/// of every document: version v of document d commits d+1 microseconds
/// into day v, counting 01/01/2001 as day 1, so the midnight that ends
/// day v sees version v everywhere.
Timestamp QueryDate(uint32_t version);

/// The deterministic version stream of one document: seeded by
/// (benchmark seed, document), so the load, the live writers and every
/// private replay regenerate the same bytes.
class DocStream {
 public:
  DocStream(const WorkloadSpec& spec, uint64_t seed, size_t doc);

  struct Version {
    uint32_t number = 0;
    Timestamp ts;
    std::string xml;
  };
  /// Generates the next version (compact XML).
  Version Next();

  const std::string& url() const { return url_; }
  uint32_t generated() const { return generated_; }
  /// Item keys present in each version generated so far, when
  /// `record_labels` was set.
  const std::vector<std::vector<std::string>>& labels() const {
    return labels_;
  }
  void set_record_labels(bool on) { record_labels_ = on; }

 private:
  size_t doc_;
  std::string url_;
  uint32_t generated_ = 0;
  bool record_labels_ = false;
  std::unique_ptr<TDocGen> gen_;
  std::unique_ptr<XmlNode> current_;
  std::vector<std::vector<std::string>> labels_;
};

/// One generated request. Reads carry the query text plus the structured
/// description the traced run needs to call deeper entry points.
struct Request {
  Op op = Op::kSnapshot;
  size_t doc = 0;
  std::string url;
  std::string query;
  /// Loaded version the request's date selects (reads at a past date).
  uint32_t version = 0;
  /// Item key of kHistory, kLifetime and kDiff.
  std::string label;
  /// kPut: the version to store.
  DocStream::Version put;
};

/// Labels of every loaded version of every document: what readers pick
/// element names / keys from.
using LabelTable = std::vector<std::vector<std::vector<std::string>>>;

/// A reader's seeded request stream.
class ReadGenerator {
 public:
  ReadGenerator(const WorkloadSpec& spec, const LabelTable* labels,
                uint64_t seed, uint64_t stream);
  Request Next();

 private:
  const WorkloadSpec& spec_;
  const LabelTable* labels_;
  Random rng_;
};

/// FNV-1a digest of the first `per_client` requests of every client's
/// stream (readers and writers) — the self-test checks it is a pure
/// function of the seed.
uint64_t RequestStreamDigest(const WorkloadSpec& spec, uint64_t seed,
                             size_t per_client);

// ------------------------------------------------------------- deployment

class Tracer;

/// Acknowledged writes per document: what the durability check expects.
struct AckLog {
  std::vector<uint32_t> versions;
  std::vector<std::string> last_xml;
  uint64_t user_bytes = 0;
};

/// A running service + loopback server holding a workload's history.
struct Deployment {
  std::string data_dir;
  ServiceOptions options;
  std::unique_ptr<TemporalQueryService> service;
  std::unique_ptr<TxmlServer> server;
  std::vector<std::unique_ptr<DocStream>> streams;
  LabelTable labels;
  AckLog acked;
  /// Latency of every load batch (wire, nanoseconds) and whether it fell
  /// in a traced window.
  std::vector<std::pair<int64_t, bool>> load_batches;
  ServiceStats before_load;
  ServiceStats after_load;
  double setup_s = 0;

  ~Deployment();
  /// Stops the server, then the service.
  void Stop();
};

/// Creates a durable service in `data_dir`, starts the server on an
/// ephemeral loopback port and loads the history through one TxmlClient
/// connection, one WriteBatch per version. With a tracer, batches in
/// every other trace window get a span (the tracing-overhead comparison).
StatusOr<std::unique_ptr<Deployment>> Deploy(const WorkloadSpec& spec,
                                             uint64_t seed,
                                             const std::string& data_dir,
                                             Tracer* tracer);

StatusOr<TxmlClient> Connect(const Deployment& deployment);

// ------------------------------------------------------------------- trace

/// In-memory span store: spans are appended under a mutex and written
/// out once, at exit.
class Tracer {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  /// Ids are handed out before a span ends, so children can name a
  /// parent that is still open.
  uint64_t NewSpanId() { return next_id_.fetch_add(1); }
  uint64_t NewRequestId() { return next_request_.fetch_add(1); }
  void Record(uint64_t id, std::string name, uint64_t request,
              uint64_t parent, int64_t start_ns, int64_t end_ns);
  /// One JSON object per line; false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> next_request_{1};
};

// ---------------------------------------------------------------- metrics

/// name → (value, unit), printed in insertion-independent (sorted) order.
struct Metrics {
  std::map<std::string, std::pair<double, std::string>> values;
  void Set(const std::string& name, double value, const std::string& unit) {
    values[name] = {value, unit};
  }
};

/// Nearest-rank percentile of unsorted samples (copy is sorted); 0 when
/// empty.
double Percentile(std::vector<double> samples, double p);

/// Depth replay of the traced run (depth.cc): re-issues a seeded sample
/// of reads and writes at successively deeper public entry points,
/// records a span around each call and fills the per-layer metrics. It
/// spends half of a run's `seconds`. Runs with no other client active.
Status RunDepthReplay(const WorkloadSpec& spec, uint64_t seed,
                      Deployment* deployment, double seconds, Tracer* tracer,
                      Metrics* metrics);

/// Evaluates `query` on `db` with the scan and lifetime arms pinned to
/// `arm` (kTraversal or kIndex) and no snapshot cache: a different
/// physical plan from the served kAuto one.
StatusOr<std::string> ReferenceAnswer(const TemporalXmlDatabase& db,
                                      const std::string& query,
                                      ScanStrategy arm);

}  // namespace txml::e2e

#endif  // TXML_E2EBENCH_E2E_H_
