// Workload definitions, request streams and deployment (README.md,
// "Workloads").
#include "e2ebench/e2e.h"
#include "src/lang/executor.h"
#include "src/xml/serializer.h"

namespace txml::e2e {

const char* OpName(Op op) {
  switch (op) {
    case Op::kSnapshot: return "snapshot";
    case Op::kHistory: return "history";
    case Op::kLifetime: return "lifetime";
    case Op::kDiff: return "diff";
    case Op::kCurrent: return "current";
    case Op::kPut: return "put";
  }
  return "?";
}

namespace {

void SetMix(WorkloadSpec* spec, int snapshot, int history, int lifetime,
            int diff, int current) {
  spec->mix[static_cast<int>(Op::kSnapshot)] = snapshot;
  spec->mix[static_cast<int>(Op::kHistory)] = history;
  spec->mix[static_cast<int>(Op::kLifetime)] = lifetime;
  spec->mix[static_cast<int>(Op::kDiff)] = diff;
  spec->mix[static_cast<int>(Op::kCurrent)] = current;
}

}  // namespace

bool MakeSpec(const std::string& name, bool smoke, WorkloadSpec* spec) {
  *spec = WorkloadSpec{};
  spec->name = name;
  if (name == "archive_cold") {
    // 32 docs x 128 versions = 4096 distinct versions, 4x the cache. 30
    // items per document, not 60, keep three set-ups of the 4096-version
    // load near 7 s.
    spec->docs = smoke ? 3 : 32;
    spec->versions = smoke ? 20 : 128;
    spec->items = smoke ? 15 : 30;
    SetMix(spec, 400, 250, 150, 200, 0);
  } else if (name == "ingest_mixed") {
    // Three writers on disjoint documents, one reader; fsync per group
    // commit.
    spec->docs = smoke ? 6 : 24;
    spec->versions = smoke ? 6 : 32;
    spec->items = smoke ? 15 : 60;
    spec->readers = 1;
    spec->writers = 3;
    spec->sync = WalSyncMode::kAlways;
    // A 20 s run commits about 3000 puts; the default 10000-record
    // trigger would never checkpoint inside it.
    spec->checkpoint_log_records = smoke ? 100 : 500;
    SetMix(spec, 250, 250, 100, 100, 300);
  } else {
    return false;
  }
  if (smoke && spec->readers > 2) spec->readers = 2;
  return true;
}

Timestamp QueryDate(uint32_t version) {
  return Timestamp::FromDate(2001, 1, 1)
      .AddDays(static_cast<int64_t>(version));
}

namespace {

Timestamp VersionTime(size_t doc, uint32_t version) {
  return QueryDate(version - 1).AddMicros(static_cast<int64_t>(doc) + 1);
}

std::string DayOf(uint32_t version) { return QueryDate(version).ToString(); }

}  // namespace

// ------------------------------------------------------------- DocStream

DocStream::DocStream(const WorkloadSpec& spec, uint64_t seed, size_t doc)
    : doc_(doc), url_("doc" + std::to_string(doc)) {
  TDocGenOptions options;
  options.initial_items = spec.items;
  options.mutations_per_version = kMutationsPerVersion;
  options.seed = seed * 1000003ull + doc * 7919ull + 1;
  gen_ = std::make_unique<TDocGen>(options);
}

DocStream::Version DocStream::Next() {
  current_ = generated_ == 0 ? gen_->InitialDocument()
                             : gen_->NextVersion(*current_);
  ++generated_;
  if (record_labels_) {
    std::vector<std::string> labels;
    for (const auto& record : current_->children()) {
      if (!record->is_element()) continue;
      if (const XmlNode* key = record->FindAttribute("key")) {
        labels.push_back(key->value());
      }
    }
    labels_.push_back(std::move(labels));
  }
  Version version;
  version.number = generated_;
  version.ts = VersionTime(doc_, generated_);
  version.xml = SerializeXml(*current_);
  return version;
}

// --------------------------------------------------------- ReadGenerator

ReadGenerator::ReadGenerator(const WorkloadSpec& spec,
                             const LabelTable* labels, uint64_t seed,
                             uint64_t stream)
    : spec_(spec), labels_(labels), rng_(seed * 6364136223846793005ull +
                                         stream * 1442695040888963407ull +
                                         17) {}

Request ReadGenerator::Next() {
  Request request;
  int draw = static_cast<int>(rng_.Uniform(1000));
  int op = 0;
  for (; op < kOpCount - 1; ++op) {
    if (draw < spec_.mix[op]) break;
    draw -= spec_.mix[op];
  }
  request.op = static_cast<Op>(op);
  request.doc = rng_.Uniform(spec_.docs);
  request.url = "doc" + std::to_string(request.doc);
  // The DIFF's earlier date needs a predecessor, so every date starts at
  // version 2.
  request.version = 2 + static_cast<uint32_t>(rng_.Uniform(spec_.versions - 1));
  const auto& alive = (*labels_)[request.doc][request.version - 1];
  if (!alive.empty()) request.label = alive[rng_.Uniform(alive.size())];

  const std::string doc = "doc(\"" + request.url + "\")";
  const std::string at = "[" + DayOf(request.version) + "]";
  const std::string key_test = "R/@key = \"" + request.label + "\"";
  switch (request.op) {
    case Op::kSnapshot:
      request.query = "SELECT R FROM " + doc + at + "/item R";
      break;
    case Op::kHistory:
      request.query = "SELECT TIME(R), R/price FROM " + doc +
                      "[EVERY]/item R WHERE " + key_test;
      break;
    case Op::kLifetime:
      request.query = "SELECT CREATE TIME(R) FROM " + doc + at +
                      "/item R WHERE " + key_test;
      break;
    case Op::kDiff:
      // One item between the date's version and the one before, as an
      // identity join (Section 6.1's form, which is empty rather than
      // NotFound when the item is missing at either date).
      request.query = "SELECT DIFF(R1, R2) FROM " + doc + "[" +
                      DayOf(request.version - 1) + "]/item R1, " + doc + at +
                      "/item R2 WHERE R1 == R2 AND R2/@key = \"" +
                      request.label + "\"";
      break;
    case Op::kCurrent:
      request.query = "SELECT R FROM " + doc + "/item R";
      break;
    case Op::kPut:
      break;
  }
  return request;
}

namespace {

void Fnv(uint64_t* h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    *h ^= c;
    *h *= 1099511628211ull;
  }
  *h ^= 0xff;
  *h *= 1099511628211ull;
}

}  // namespace

uint64_t RequestStreamDigest(const WorkloadSpec& spec, uint64_t seed,
                             size_t per_client) {
  uint64_t h = 1469598103934665603ull;
  // Readers pick labels from the loaded history, so the table is part of
  // the stream; regenerate it exactly as the load does.
  std::vector<std::unique_ptr<DocStream>> streams;
  LabelTable labels(spec.docs);
  for (size_t d = 0; d < spec.docs; ++d) {
    streams.push_back(std::make_unique<DocStream>(spec, seed, d));
    streams[d]->set_record_labels(true);
    for (size_t v = 0; v < spec.versions; ++v) {
      DocStream::Version version = streams[d]->Next();
      Fnv(&h, version.xml);
    }
    labels[d] = streams[d]->labels();
  }
  for (size_t r = 0; r < spec.readers; ++r) {
    ReadGenerator gen(spec, &labels, seed, r);
    for (size_t i = 0; i < per_client; ++i) Fnv(&h, gen.Next().query);
  }
  for (size_t w = 0; w < spec.writers; ++w) {
    for (size_t i = 0; i < per_client; ++i) {
      size_t owned = (spec.docs - w + spec.writers - 1) / spec.writers;
      size_t d = w + (i % owned) * spec.writers;
      DocStream::Version version = streams[d]->Next();
      Fnv(&h, streams[d]->url());
      Fnv(&h, version.ts.ToString());
      Fnv(&h, version.xml);
    }
  }
  return h;
}

// ------------------------------------------------------------ deployment

Deployment::~Deployment() { Stop(); }

void Deployment::Stop() {
  if (server != nullptr) server->Stop();
  server.reset();
  service.reset();
}

StatusOr<TxmlClient> Connect(const Deployment& deployment) {
  return TxmlClient::Connect("127.0.0.1", deployment.server->port());
}

StatusOr<std::unique_ptr<Deployment>> Deploy(const WorkloadSpec& spec,
                                             uint64_t seed,
                                             const std::string& data_dir,
                                             Tracer* tracer) {
  auto deployment = std::make_unique<Deployment>();
  int64_t start = NowNs();
  deployment->data_dir = data_dir;
  ServiceOptions& options = deployment->options;
  options.snapshot_cache_capacity = kCacheCapacity;
  options.database.snapshot_every = kSnapshotEvery;
  options.durability.data_dir = data_dir;
  options.durability.wal.sync_mode = spec.sync;
  options.durability.checkpoint_log_records = spec.checkpoint_log_records;
  TXML_ASSIGN_OR_RETURN(deployment->service,
                        TemporalQueryService::Create(options));
  deployment->server = std::make_unique<TxmlServer>(
      deployment->service.get(), ServerOptions{});
  TXML_RETURN_IF_ERROR(deployment->server->Start());

  for (size_t d = 0; d < spec.docs; ++d) {
    deployment->streams.push_back(std::make_unique<DocStream>(spec, seed, d));
    deployment->streams[d]->set_record_labels(true);
  }
  deployment->acked.versions.assign(spec.docs, 0);
  deployment->acked.last_xml.assign(spec.docs, "");
  deployment->before_load = deployment->service->Stats();

  // One loader connection sending one WriteBatch per version: the
  // documents' commit times interleave, and a batch is one group commit,
  // so with an fsync per commit (sync `always`) set-up time follows the
  // CPU rather than the disk's fsync latency. A batch's latency sums 32
  // or 24 puts, so a scheduling stall of the host moves it far less than
  // it moves the tail of single puts.
  TXML_ASSIGN_OR_RETURN(TxmlClient client, Connect(*deployment));
  for (size_t v = 0; v < spec.versions; ++v) {
    WriteBatchRequest batch;
    for (size_t d = 0; d < spec.docs; ++d) {
      DocStream::Version version = deployment->streams[d]->Next();
      batch.items.push_back(WriteBatchItem{WriteBatchItem::Kind::kPut,
                                           deployment->streams[d]->url(),
                                           version.xml, version.ts});
      deployment->acked.versions[d] = version.number;
      deployment->acked.user_bytes += version.xml.size();
      deployment->acked.last_xml[d] = std::move(version.xml);
    }
    const int64_t t0 = NowNs();
    const bool traced =
        tracer != nullptr && ((t0 - start) / kTraceWindowNs) % 2 == 1;
    const uint64_t span = traced ? tracer->NewSpanId() : 0;
    TXML_ASSIGN_OR_RETURN(QueryResponse response, client.Execute(batch));
    const int64_t t1 = NowNs();
    if (response.payload.find(" failed=\"0\"") == std::string::npos) {
      return Status::Internal("load batch failed: " + response.payload);
    }
    if (traced) {
      tracer->Record(span, "load.batch", tracer->NewRequestId(), 0, t0, t1);
    }
    deployment->load_batches.emplace_back(t1 - t0, traced);
  }
  deployment->after_load = deployment->service->Stats();
  for (auto& stream : deployment->streams) {
    deployment->labels.push_back(stream->labels());
    stream->set_record_labels(false);
  }
  deployment->setup_s = static_cast<double>(NowNs() - start) / 1e9;
  return deployment;
}

StatusOr<std::string> ReferenceAnswer(const TemporalXmlDatabase& db,
                                      const std::string& query,
                                      ScanStrategy arm) {
  QueryContext ctx = db.Context();
  ctx.snapshot_cache = nullptr;
  ExecOptions options;
  options.now = db.latest_commit();
  options.scan_strategy = arm;
  options.lifetime_strategy = arm == ScanStrategy::kIndex
                                  ? LifetimeStrategy::kIndex
                                  : LifetimeStrategy::kTraversal;
  QueryExecutor executor(ctx, options);
  ExecStats stats;
  TXML_ASSIGN_OR_RETURN(XmlDocument results, executor.Execute(query, &stats));
  return SerializeXml(*results.root());
}

}  // namespace txml::e2e
