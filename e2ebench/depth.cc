// Depth replay of the traced run (README.md, "Reading a trace").
//
// Each sampled request is re-issued at successively deeper public entry
// points — wire, service, language, operator, index/storage — with one
// span per call, all children of one per-request root span. A layer's
// self time is the difference between adjacent depths on the same
// request. The order of the depths alternates between samples, so the
// later calls finding a warm snapshot cache does not bias the
// differences one way.
#include <algorithm>
#include <functional>
#include <map>

#include "e2ebench/e2e.h"
#include "src/diff/diff.h"
#include "src/lang/parser.h"
#include "src/query/diff_op.h"
#include "src/query/planner.h"
#include "src/query/scan.h"
#include "src/query/time_ops.h"
#include "src/xml/parser.h"
#include "src/xml/pattern.h"
#include "src/xml/serializer.h"

namespace txml::e2e {
namespace {

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Runs `fn` inside a span and returns the span's duration.
int64_t Timed(Tracer* tracer, const char* name, uint64_t request,
              uint64_t parent, const std::function<void()>& fn) {
  uint64_t id = tracer->NewSpanId();
  int64_t start = NowNs();
  fn();
  int64_t end = NowNs();
  tracer->Record(id, name, request, parent, start, end);
  return end - start;
}

/// The pattern the executor builds for the request's `/item R` FROM item
/// (QueryExecutor's BuildPattern rules): one element test anywhere in the
/// document, projected. The WHERE test on @key is an attribute predicate,
/// which is not pushed down.
Pattern ItemPattern() {
  auto root = PatternNode::Make(PatternNode::Test::kElementName,
                                PatternNode::Axis::kDescendantOrSelf, "item");
  root->projected = true;
  return Pattern(std::move(root));
}

/// The item a lifetime or DIFF request is about, found by reconstructing
/// the version its date selects (outside any span).
StatusOr<Teid> TargetOf(const VersionedDocument& doc, const Request& request) {
  TXML_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> tree,
                        doc.ReconstructVersion(request.version));
  const Timestamp ts = doc.VersionValidity(request.version).start;
  for (const auto& record : tree->children()) {
    if (!record->is_element()) continue;
    const XmlNode* key = record->FindAttribute("key");
    if (key != nullptr && key->value() == request.label) {
      return Teid{Eid{doc.doc_id(), record->xid()}, ts};
    }
  }
  return Status::NotFound("no item with key " + request.label);
}

/// Metric accumulators of the replay (per request, so that differences
/// are taken between depths of the same request).
struct ReadSample {
  std::map<std::string, int64_t> ns;
  double response_kb = 0;
  size_t postings = 0;
  size_t lookups = 0;
};

class Replay {
 public:
  Replay(const WorkloadSpec& spec, uint64_t seed, Deployment* deployment,
         Tracer* tracer)
      : spec_(spec),
        seed_(seed),
        deployment_(deployment),
        tracer_(tracer),
        service_(deployment->service.get()),
        db_(service_->database()) {}

  Status Reads(double budget_s, Metrics* metrics);
  Status Writes(double budget_s, Metrics* metrics);
  Status Folds(double budget_s, Metrics* metrics);

 private:
  /// One depth of one read; returns the failure of the call, if any.
  using Depth = std::function<Status(ReadSample*)>;
  std::vector<Depth> ReadDepths(TxmlClient* client, const Request& request,
                                uint64_t rid, uint64_t root);

  const WorkloadSpec& spec_;
  uint64_t seed_;
  Deployment* deployment_;
  Tracer* tracer_;
  TemporalQueryService* service_;
  const TemporalXmlDatabase& db_;
};

std::vector<Replay::Depth> Replay::ReadDepths(TxmlClient* client,
                                              const Request& request,
                                              uint64_t rid, uint64_t root) {
  QueryRequest wire_request;
  wire_request.query_text = request.query;
  wire_request.pretty = false;
  std::vector<Depth> depths;
  // Depth 0: the wire.
  depths.push_back([=, this](ReadSample* sample) {
    StatusOr<QueryResponse> response = NotRun();
    sample->ns["net.roundtrip"] = Timed(tracer_, "net.roundtrip", rid, root,
                                        [&] {
                                          response =
                                              client->Execute(wire_request);
                                        });
    if (!response.ok()) return response.status();
    sample->response_kb =
        static_cast<double>(response->payload.size()) / 1024.0;
    return Status::OK();
  });
  // Depth 1: the service entry point.
  depths.push_back([=, this](ReadSample* sample) {
    StatusOr<QueryResponse> response = NotRun();
    sample->ns["service.execute"] =
        Timed(tracer_, "service.execute", rid, root,
              [&] { response = service_->Execute(wire_request); });
    return response.status();
  });
  // Depth 2: parse, plan + execute, serialize.
  depths.push_back([=, this](ReadSample* sample) {
    StatusOr<Query> query = NotRun();
    sample->ns["lang.parse"] = Timed(tracer_, "lang.parse", rid, root, [&] {
      query = ParseQuery(request.query);
    });
    if (!query.ok()) return query.status();
    ExecOptions options;
    options.now = db_.latest_commit();
    QueryExecutor executor(db_.Context(), options);
    ExecStats stats;
    StatusOr<XmlDocument> results = NotRun();
    sample->ns["lang.execute"] =
        Timed(tracer_, "lang.execute", rid, root,
              [&] { results = executor.Execute(*query, &stats); });
    if (!results.ok()) return results.status();
    std::string payload;
    sample->ns["xml.serialize"] =
        Timed(tracer_, "xml.serialize", rid, root,
              [&] { payload = SerializeXml(*results->root()); });
    return Status::OK();
  });
  // Depth 3: the operator the planner would run for this FROM item.
  depths.push_back([=, this](ReadSample* sample) -> Status {
    const QueryContext ctx = db_.Context();
    const VersionedDocument* doc = db_.store().FindByUrl(request.url);
    if (doc == nullptr) return Status::NotFound(request.url);
    const std::vector<const VersionedDocument*> docs = {doc};
    Pattern pattern = ItemPattern();
    const Timestamp at = QueryDate(request.version);
    if (request.op == Op::kCurrent) {
      return Status::OK();  // no temporal operator below the executor
    }
    if (request.op == Op::kHistory) {
      ScanPlan plan =
          PlanScan(ctx, pattern, ScanKind::kAll, docs, ScanStrategy::kAuto);
      StatusOr<std::vector<ScanMatch>> matches = NotRun();
      sample->ns["query.scanall"] =
          Timed(tracer_, "query.scanall", rid, root, [&] {
            matches = plan.strategy == ScanStrategy::kIndex
                          ? TPatternScanAll(ctx, pattern)
                          : TPatternScanAllTraversal(ctx, pattern, docs);
          });
      return matches.status();
    }
    ScanPlan plan =
        PlanScan(ctx, pattern, ScanKind::kSnapshot, docs, ScanStrategy::kAuto);
    StatusOr<std::vector<ScanMatch>> matches = NotRun();
    sample->ns["query.scan"] = Timed(tracer_, "query.scan", rid, root, [&] {
      matches = plan.strategy == ScanStrategy::kIndex
                    ? TPatternScan(ctx, pattern, at)
                    : TPatternScanTraversal(ctx, pattern, at, docs);
    });
    if (!matches.ok()) return matches.status();
    if (request.op != Op::kLifetime && request.op != Op::kDiff) {
      return Status::OK();
    }
    TXML_ASSIGN_OR_RETURN(Teid teid, TargetOf(*doc, request));
    if (request.op == Op::kLifetime) {
      StatusOr<Timestamp> created = NotRun();
      sample->ns["query.lifetime"] =
          Timed(tracer_, "query.lifetime", rid, root, [&] {
            created = CreTime(ctx, teid, LifetimeStrategy::kAuto);
          });
      return created.status();
    }
    // The item at the version before the date's against the item at the
    // date.
    const Teid from{teid.eid, doc->VersionValidity(request.version - 1).start};
    const Teid to = teid;
    StatusOr<XmlDocument> delta = NotRun();
    sample->ns["query.diff"] = Timed(tracer_, "query.diff", rid, root,
                                     [&] { delta = DiffOp(ctx, from, to); });
    // An item missing at the earlier date makes the served join empty and
    // this call NotFound; both did the same lookups.
    return delta.ok() || delta.status().IsNotFound() ? Status::OK()
                                                     : delta.status();
  });
  // Depth 4: posting lookups for the pattern's terms, and the delta-chain
  // reconstruction of the version the date selects.
  depths.push_back([=, this](ReadSample* sample) -> Status {
    Pattern pattern = ItemPattern();
    const TemporalFullTextIndex& fti = db_.fti();
    const Timestamp at = QueryDate(request.version);
    sample->ns["index.lookup"] = Timed(tracer_, "index.lookup", rid, root, [&] {
      for (const PatternNode* node : pattern.NodesPreorder()) {
        TermKind kind = node->test == PatternNode::Test::kWord
                            ? TermKind::kWord
                            : TermKind::kElementName;
        std::vector<const Posting*> postings;
        switch (request.op) {
          case Op::kHistory:
            postings = fti.LookupH(kind, node->term);
            break;
          case Op::kCurrent:
            postings = fti.LookupCurrent(kind, node->term);
            break;
          default:
            postings = fti.LookupT(kind, node->term, at);
            break;
        }
        sample->postings += postings.size();
        ++sample->lookups;
      }
    });
    if (request.op == Op::kHistory || request.op == Op::kCurrent) {
      return Status::OK();
    }
    const VersionedDocument* doc = db_.store().FindByUrl(request.url);
    if (doc == nullptr) return Status::NotFound(request.url);
    StatusOr<std::unique_ptr<XmlNode>> tree = NotRun();
    sample->ns["storage.reconstruct"] =
        Timed(tracer_, "storage.reconstruct", rid, root,
              [&] { tree = doc->ReconstructVersion(request.version); });
    return tree.status();
  });
  return depths;
}

double MedianOf(const std::vector<ReadSample>& samples,
                const std::function<bool(const ReadSample&, double*)>& get) {
  std::vector<double> values;
  for (const ReadSample& sample : samples) {
    double value = 0;
    if (get(sample, &value)) values.push_back(value);
  }
  return Percentile(values, 50);
}

/// Median of one span over the samples that have it.
double MedianSpanUs(const std::vector<ReadSample>& samples,
                    const std::string& name) {
  return MedianOf(samples, [&](const ReadSample& s, double* v) {
    auto it = s.ns.find(name);
    if (it == s.ns.end()) return false;
    *v = Us(it->second);
    return true;
  });
}

Status Replay::Reads(double budget_s, Metrics* metrics) {
  TXML_ASSIGN_OR_RETURN(TxmlClient client, Connect(*deployment_));
  ReadGenerator gen(spec_, &deployment_->labels, seed_ ^ 0x5eedf00dull,
                    /*stream=*/1000);
  std::vector<ReadSample> samples;
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  while (NowNs() < deadline || samples.size() < 4) {
    Request request = gen.Next();
    uint64_t rid = tracer_->NewRequestId();
    uint64_t root = tracer_->NewSpanId();
    int64_t start = NowNs();
    std::vector<Depth> depths = ReadDepths(&client, request, rid, root);
    if (samples.size() % 2 == 1) std::reverse(depths.begin(), depths.end());
    ReadSample sample;
    for (Depth& depth : depths) TXML_RETURN_IF_ERROR(depth(&sample));
    tracer_->Record(root, std::string("read.") + OpName(request.op), rid, 0,
                    start, NowNs());
    samples.push_back(std::move(sample));
  }

  auto diff_us = [](const ReadSample& s, double* v, const char* outer,
                    std::initializer_list<const char*> inner) {
    auto it = s.ns.find(outer);
    if (it == s.ns.end()) return false;
    int64_t self = it->second;
    for (const char* name : inner) {
      auto child = s.ns.find(name);
      if (child == s.ns.end()) return false;
      self -= child->second;
    }
    *v = Us(self);
    return true;
  };
  metrics->Set("net.roundtrip_us", MedianSpanUs(samples, "net.roundtrip"),
               "us");
  metrics->Set("net.self_us",
               MedianOf(samples,
                        [&](const ReadSample& s, double* v) {
                          return diff_us(s, v, "net.roundtrip",
                                         {"service.execute"});
                        }),
               "us");
  metrics->Set("net.response_kb",
               MedianOf(samples,
                        [](const ReadSample& s, double* v) {
                          *v = s.response_kb;
                          return true;
                        }),
               "kB");
  metrics->Set("service.execute_us", MedianSpanUs(samples, "service.execute"),
               "us");
  metrics->Set("service.self_us",
               MedianOf(samples,
                        [&](const ReadSample& s, double* v) {
                          return diff_us(s, v, "service.execute",
                                         {"lang.parse", "lang.execute",
                                          "xml.serialize"});
                        }),
               "us");
  metrics->Set("lang.parse_us", MedianSpanUs(samples, "lang.parse"), "us");
  metrics->Set("lang.execute_us", MedianSpanUs(samples, "lang.execute"), "us");
  metrics->Set("xml.serialize_us", MedianSpanUs(samples, "xml.serialize"),
               "us");
  metrics->Set("query.scan_us", MedianSpanUs(samples, "query.scan"), "us");
  metrics->Set("query.scanall_us", MedianSpanUs(samples, "query.scanall"),
               "us");
  metrics->Set("query.lifetime_us", MedianSpanUs(samples, "query.lifetime"),
               "us");
  metrics->Set("query.diff_us", MedianSpanUs(samples, "query.diff"), "us");
  metrics->Set("index.lookup_us", MedianSpanUs(samples, "index.lookup"),
               "us");
  size_t postings = 0;
  size_t lookups = 0;
  for (const ReadSample& s : samples) {
    postings += s.postings;
    lookups += s.lookups;
  }
  metrics->Set("index.postings_per_lookup",
               lookups == 0 ? 0
                            : static_cast<double>(postings) /
                                  static_cast<double>(lookups),
               "count");
  metrics->Set("storage.reconstruct_us",
               MedianSpanUs(samples, "storage.reconstruct"), "us");
  metrics->Set("trace.read_samples", static_cast<double>(samples.size()),
               "count");
  return Status::OK();
}

Status Replay::Writes(double budget_s, Metrics* metrics) {
  TXML_ASSIGN_OR_RETURN(TxmlClient client, Connect(*deployment_));
  std::vector<double> parse_us, diff_us, script_ops, net_put_us, put_us,
      put_self_us, wal_bytes;
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  AckLog& acked = deployment_->acked;
  for (size_t i = 0; NowNs() < deadline || i < 2; ++i) {
    const size_t d = i % spec_.docs;
    DocStream& stream = *deployment_->streams[d];
    const VersionedDocument* doc = db_.store().FindByUrl(stream.url());
    if (doc == nullptr) return Status::NotFound(stream.url());
    uint64_t rid = tracer_->NewRequestId();
    uint64_t root = tracer_->NewSpanId();
    int64_t start = NowNs();
    DocStream::Version first = stream.Next();
    DocStream::Version second = stream.Next();

    // Depth 2, on the first version: parse the body, diff it against the
    // stored current version (the commit path's own work, on a copy).
    StatusOr<XmlDocument> parsed = NotRun();
    parse_us.push_back(Us(Timed(tracer_, "xml.parse", rid, root, [&] {
      parsed = ParseXml(first.xml);
    })));
    TXML_RETURN_IF_ERROR(parsed.status());
    XidAllocator xids(doc->next_xid());
    StatusOr<DiffResult> diff = NotRun();
    diff_us.push_back(Us(Timed(tracer_, "diff.diff", rid, root, [&] {
      diff = DiffTrees(*doc->current(), parsed->root(), &xids, first.ts);
    })));
    TXML_RETURN_IF_ERROR(diff.status());
    script_ops.push_back(static_cast<double>(diff->script.size()));

    // Depths 0 and 1 on consecutive versions, alternating which one goes
    // over the wire.
    int64_t wire_ns = 0;
    int64_t local_ns = 0;
    for (int k = 0; k < 2; ++k) {
      const DocStream::Version& version = k == 0 ? first : second;
      PutRequest put;
      put.url = stream.url();
      put.xml_text = version.xml;
      put.timestamp = version.ts;
      const bool wire = (k == 0) == (i % 2 == 0);
      const DurabilityStats before = service_->Stats().durability;
      StatusOr<QueryResponse> response = NotRun();
      int64_t ns = Timed(tracer_, wire ? "net.put" : "service.put", rid, root,
                         [&] {
                           response = wire ? client.Execute(put)
                                           : service_->Execute(put);
                         });
      TXML_RETURN_IF_ERROR(response.status());
      const DurabilityStats after = service_->Stats().durability;
      if (after.checkpoints_completed == before.checkpoints_completed) {
        wal_bytes.push_back(
            static_cast<double>(after.wal_bytes - before.wal_bytes));
      }
      (wire ? wire_ns : local_ns) = ns;
      acked.versions[d] = version.number;
      acked.last_xml[d] = version.xml;
      acked.user_bytes += version.xml.size();
    }
    net_put_us.push_back(Us(wire_ns));
    put_us.push_back(Us(local_ns));
    put_self_us.push_back(Us(wire_ns - local_ns));
    tracer_->Record(root, "write.put", rid, 0, start, NowNs());
  }

  std::vector<double> checkpoint_ms;
  for (int i = 0; i < 3; ++i) {
    Status status = Status::OK();
    checkpoint_ms.push_back(
        static_cast<double>(Timed(tracer_, "storage.checkpoint",
                                  tracer_->NewRequestId(), 0,
                                  [&] { status = service_->Checkpoint(); })) /
        1e6);
    TXML_RETURN_IF_ERROR(status);
  }

  metrics->Set("xml.parse_us", Percentile(parse_us, 50), "us");
  metrics->Set("diff.diff_us", Percentile(diff_us, 50), "us");
  metrics->Set("diff.script_ops_per_write", Percentile(script_ops, 50),
               "count");
  metrics->Set("net.put_us", Percentile(net_put_us, 50), "us");
  metrics->Set("service.put_us", Percentile(put_us, 50), "us");
  metrics->Set("net.put_self_us", Percentile(put_self_us, 50), "us");
  metrics->Set("storage.wal_bytes_per_write", Percentile(wal_bytes, 50),
               "bytes");
  metrics->Set("storage.checkpoint_ms", Percentile(checkpoint_ms, 50), "ms");
  metrics->Set("trace.write_samples", static_cast<double>(put_us.size()),
               "count");
  return Status::OK();
}

Status Replay::Folds(double budget_s, Metrics* metrics) {
  // A private database fed the workload's write stream (version-major
  // over the documents, up to what the service acknowledged), folding its
  // FTI differential at the service's threshold.
  DatabaseOptions options = deployment_->options.database;
  TemporalXmlDatabase db(options);
  const size_t threshold = deployment_->options.fti_compact_min_postings;
  std::vector<std::unique_ptr<DocStream>> streams;
  for (size_t d = 0; d < spec_.docs; ++d) {
    streams.push_back(std::make_unique<DocStream>(spec_, seed_, d));
  }
  std::vector<double> fold_us;
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  bool progressed = true;
  while (progressed && NowNs() < deadline) {
    progressed = false;
    for (size_t d = 0; d < spec_.docs && NowNs() < deadline; ++d) {
      if (streams[d]->generated() >= deployment_->acked.versions[d]) continue;
      DocStream::Version version = streams[d]->Next();
      TXML_RETURN_IF_ERROR(
          db.PutDocumentAt(streams[d]->url(), version.xml, version.ts)
              .status());
      progressed = true;
      if (db.fti().differential_posting_count() >= threshold) {
        fold_us.push_back(Us(Timed(tracer_, "index.fold", tracer_->NewRequestId(), 0,
                                   [&] { db.CompactFti(); })));
      }
    }
  }
  metrics->Set("index.fold_us", Percentile(fold_us, 50), "us");
  metrics->Set("index.folds_replayed", static_cast<double>(fold_us.size()),
               "count");
  return Status::OK();
}

}  // namespace

Status RunDepthReplay(const WorkloadSpec& spec, uint64_t seed,
                      Deployment* deployment, double seconds, Tracer* tracer,
                      Metrics* metrics) {
  // Half of the run: a quarter on reads, a tenth on write pairs and
  // checkpoints, the rest on the fold replay.
  Replay replay(spec, seed, deployment, tracer);
  TXML_RETURN_IF_ERROR(replay.Reads(seconds * 0.25, metrics));
  TXML_RETURN_IF_ERROR(replay.Writes(seconds * 0.1, metrics));
  return replay.Folds(seconds * 0.15, metrics);
}

}  // namespace txml::e2e
