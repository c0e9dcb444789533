// txml_e2e: the end-to-end benchmark program (README.md).
//
//   txml_e2e --workload archive_cold|ingest_mixed --seed N
//            --seconds S --trace 0|1 --scratch DIR [--trace-out FILE]
//            [--git-sha SHA] [--smoke] [--digest]
//
// Sets the workload up three times (setup_s is the median), runs the
// closed loop for S seconds against an in-process TxmlServer on loopback,
// checks a seeded sample of answers against executors with pinned planner
// arms and every acknowledged put against a reopened data directory, and
// prints one JSON line of run context and, last, the result line. --trace 1
// halves the closed loop (alternating traced and untraced windows) and
// spends the other half on the depth replay of depth.cc.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "e2ebench/e2e.h"
#include "src/xml/serializer.h"

namespace txml::e2e {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool smoke = false;
  bool digest_only = false;
  std::string scratch;
  std::string trace_out;
  std::string git_sha = "unknown";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "txml_e2e: %s\nusage: txml_e2e --workload NAME --seed N "
               "--seconds S --trace 0|1 --scratch DIR [--trace-out FILE] "
               "[--git-sha SHA] [--smoke] [--digest]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = std::atoi(value().c_str());
    } else if (flag == "--scratch") {
      args.scratch = value();
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else if (flag == "--git-sha") {
      args.git_sha = value();
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--digest") {
      args.digest_only = true;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) Usage("--trace must be 0 or 1");
  if (args.scratch.empty() && !args.digest_only) {
    Usage("--scratch is required");
  }
  return args;
}

// ------------------------------------------------------------- helpers

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

/// Peak resident set size of the process so far (ru_maxrss is in KiB on
/// Linux).
double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---------------------------------------------------------- closed loop

struct OpRecord {
  Op op;
  int64_t ns;
  bool traced;
};

/// A served answer kept for the correctness check. For ingest_mixed,
/// [lo, hi] bounds the version count of the document the answer may
/// reflect: versions acknowledged before the request was sent, and
/// versions whose put had started when the answer arrived.
struct CheckSample {
  Request request;
  std::string payload;
  uint32_t lo = 0;
  uint32_t hi = 0;
};

struct ClientResult {
  std::vector<OpRecord> ops;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<CheckSample> checks;
  ExecStats stats;
  std::string first_error;
};

constexpr size_t kCheckEvery = 16;
constexpr size_t kChecksPerClient = 32;

struct LoopResult {
  std::vector<ClientResult> clients;
  double elapsed_s = 0;
  ServiceStats before;
  ServiceStats after;
  std::vector<double> differential_postings;
};

void AddStats(ExecStats* into, const ExecStats& from) {
  into->snapshot_reconstructions += from.snapshot_reconstructions;
  into->snapshot_cache_hits += from.snapshot_cache_hits;
  into->rows_considered += from.rows_considered;
  into->rows_emitted += from.rows_emitted;
}

LoopResult RunClosedLoop(const WorkloadSpec& spec, uint64_t seed,
                         Deployment* deployment, double seconds,
                         Tracer* tracer) {
  LoopResult result;
  const size_t clients = spec.readers + spec.writers;
  result.clients.resize(clients);
  // Per-document version counters shared by writers and the reader
  // (ingest_mixed): started before a put is sent, acked after it returns.
  std::vector<std::atomic<uint32_t>> started(spec.docs);
  std::vector<std::atomic<uint32_t>> acked(spec.docs);
  for (size_t d = 0; d < spec.docs; ++d) {
    started[d] = deployment->acked.versions[d];
    acked[d] = deployment->acked.versions[d];
  }
  std::vector<uint64_t> written_bytes(spec.writers, 0);
  result.before = deployment->service->Stats();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  auto traced_now = [&](int64_t t) {
    return tracer != nullptr && ((t - start) / kTraceWindowNs) % 2 == 1;
  };

  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ClientResult& out = result.clients[c];
      auto client = Connect(*deployment);
      if (!client.ok()) {
        out.first_error = client.status().ToString();
        out.attempted = out.failed = 1;
        return;
      }
      const bool writer = c >= spec.readers;
      ReadGenerator reads(spec, &deployment->labels, seed, c);
      const size_t w = c - spec.readers;
      std::vector<size_t> owned;
      if (writer) {
        for (size_t d = w; d < spec.docs; d += spec.writers) {
          owned.push_back(d);
        }
      }
      for (uint64_t i = 0; NowNs() < deadline; ++i) {
        Request request;
        if (writer) {
          request.op = Op::kPut;
          request.doc = owned[i % owned.size()];
          request.put = deployment->streams[request.doc]->Next();
          started[request.doc] = request.put.number;
        } else {
          request = reads.Next();
        }
        const uint32_t lo = acked[request.doc].load();
        const int64_t t0 = NowNs();
        const bool traced = traced_now(t0);
        const uint64_t span = traced ? tracer->NewSpanId() : 0;
        StatusOr<QueryResponse> response = NotRun();
        if (writer) {
          PutRequest put;
          put.url = deployment->streams[request.doc]->url();
          put.xml_text = request.put.xml;
          put.timestamp = request.put.ts;
          response = client->Execute(put);
        } else {
          QueryRequest query;
          query.query_text = request.query;
          query.pretty = false;
          response = client->Execute(query);
        }
        const int64_t t1 = NowNs();
        if (traced) {
          tracer->Record(span, std::string("client.") + OpName(request.op),
                         tracer->NewRequestId(), 0, t0, t1);
        }
        ++out.attempted;
        if (!response.ok()) {
          ++out.failed;
          if (out.first_error.empty()) {
            out.first_error = request.query + ": " +
                              response.status().ToString();
          }
          continue;
        }
        out.ops.push_back(OpRecord{request.op, t1 - t0, traced});
        if (writer) {
          acked[request.doc] = request.put.number;
          deployment->acked.versions[request.doc] = request.put.number;
          written_bytes[w] += request.put.xml.size();
          deployment->acked.last_xml[request.doc] =
              std::move(request.put.xml);
          continue;
        }
        AddStats(&out.stats, response->stats);
        if (i % kCheckEvery == c % kCheckEvery &&
            out.checks.size() < kChecksPerClient) {
          const uint32_t hi = started[request.doc].load();
          out.checks.push_back(CheckSample{std::move(request),
                                           std::move(response->payload), lo,
                                           hi});
        }
      }
    });
  }
  // The differential's size is a gauge; sample it while the loop runs.
  while (NowNs() < deadline) {
    result.differential_postings.push_back(static_cast<double>(
        deployment->service->Stats().fti.differential_postings));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  for (std::thread& t : threads) t.join();
  result.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  result.after = deployment->service->Stats();
  for (uint64_t bytes : written_bytes) deployment->acked.user_bytes += bytes;
  return result;
}

// ---------------------------------------------------------------- checks

/// How a served answer relates to the reference answers: byte-equal to
/// the traversal-pinned one, else byte-equal to the index-pinned one,
/// else a mismatch. The two pinned plans are the arms the served kAuto
/// plan chooses between, so a served answer must equal one of them.
enum class Agreement { kNone = 0, kIndex = 1, kTraversal = 2 };

Agreement Compare(const TemporalXmlDatabase& db, const std::string& query,
                  const std::string& served) {
  for (ScanStrategy arm : {ScanStrategy::kTraversal, ScanStrategy::kIndex}) {
    auto expected = ReferenceAnswer(db, query, arm);
    if (expected.ok() && *expected == served) {
      return arm == ScanStrategy::kTraversal ? Agreement::kTraversal
                                             : Agreement::kIndex;
    }
  }
  return Agreement::kNone;
}

struct CheckTally {
  uint64_t checked = 0;
  uint64_t traversal_equal = 0;
  uint64_t index_equal = 0;
  uint64_t mismatched = 0;
};

/// Re-evaluates the sampled answers with the pinned executors. Read-only
/// workloads are checked on the served database; ingest_mixed on a
/// private replay of each document's stream, at every version count the
/// answer may reflect.
CheckTally CheckAnswers(const WorkloadSpec& spec, uint64_t seed,
                        const Deployment& deployment,
                        const std::vector<CheckSample>& checks,
                        std::string* first_error) {
  CheckTally tally;
  auto record = [&](const CheckSample& check, Agreement agreement,
                    const std::string& why) {
    ++tally.checked;
    switch (agreement) {
      case Agreement::kTraversal:
        ++tally.traversal_equal;
        return;
      case Agreement::kIndex:
        ++tally.index_equal;
        return;
      case Agreement::kNone:
        ++tally.mismatched;
        if (first_error->empty()) {
          *first_error =
              "answer mismatch (" + why + "): " + check.request.query;
        }
        return;
    }
  };
  if (spec.writers == 0) {
    for (const CheckSample& check : checks) {
      record(check,
             Compare(deployment.service->database(), check.request.query,
                     check.payload),
             "differs from both pinned arms");
    }
    return tally;
  }
  std::map<size_t, std::vector<const CheckSample*>> by_doc;
  for (const CheckSample& check : checks) {
    by_doc[check.request.doc].push_back(&check);
  }
  for (auto& [doc, samples] : by_doc) {
    uint32_t last = 0;
    for (const CheckSample* s : samples) last = std::max(last, s->hi);
    TemporalXmlDatabase db(deployment.options.database);
    DocStream stream(spec, seed, doc);
    std::vector<Agreement> best(samples.size(), Agreement::kNone);
    Status replay = Status::OK();
    while (stream.generated() < last && replay.ok()) {
      DocStream::Version version = stream.Next();
      replay = db.PutDocumentAt(stream.url(), version.xml, version.ts).status();
      for (size_t i = 0; i < samples.size() && replay.ok(); ++i) {
        const CheckSample& s = *samples[i];
        if (best[i] == Agreement::kTraversal || version.number < s.lo ||
            version.number > s.hi) {
          continue;
        }
        best[i] = std::max(best[i], Compare(db, s.request.query, s.payload));
      }
    }
    for (size_t i = 0; i < samples.size(); ++i) {
      record(*samples[i], best[i],
             replay.ok() ? "no version in [lo, hi] agrees with a pinned arm"
                         : "replay: " + replay.ToString());
    }
  }
  return tally;
}

/// Reopens the data directory through TemporalQueryService::Create and
/// compares every document with the acknowledged writes.
uint64_t CheckDurability(const WorkloadSpec& spec, Deployment* deployment,
                         std::string* first_error) {
  deployment->Stop();
  auto reopened = TemporalQueryService::Create(deployment->options);
  if (!reopened.ok()) {
    *first_error = "reopen: " + reopened.status().ToString();
    return spec.docs;
  }
  uint64_t missing = 0;
  for (size_t d = 0; d < spec.docs; ++d) {
    const std::string& url = deployment->streams[d]->url();
    const VersionedDocument* doc =
        (*reopened)->database().store().FindByUrl(url);
    bool ok = doc != nullptr &&
              doc->version_count() == deployment->acked.versions[d] &&
              SerializeXml(*doc->current()) == deployment->acked.last_xml[d];
    if (!ok) {
      ++missing;
      if (first_error->empty()) {
        *first_error = "acknowledged writes of " + url + " not recovered";
      }
    }
  }
  return missing;
}

// ---------------------------------------------------------------- output

#ifdef TXML_LOCK_RANK
constexpr const char* kLockRank = "\"ON\"";
#else
constexpr const char* kLockRank = "\"OFF\"";
#endif
#ifdef TXML_FAILPOINTS
constexpr const char* kFailpoints = "\"ON\"";
#else
constexpr const char* kFailpoints = "\"OFF\"";
#endif

void PrintContext(const Args& args, const WorkloadSpec& spec,
                  uint64_t digest) {
  std::string sync(WalSyncModeToString(spec.sync));
  std::printf(
      "{\"context\": {\"workload\": %s, \"seed\": %" PRIu64
      ", \"seconds\": %s, \"trace\": %d, \"smoke\": %s, \"git_sha\": %s, "
      "\"build_type\": %s, \"txml_lock_rank\": %s, \"txml_failpoints\": %s, "
      "\"nproc\": %u, \"readers\": %zu, \"writers\": %zu, "
      "\"wal_sync\": %s, \"checkpoint_log_records\": %" PRIu64
      ", \"snapshot_cache_capacity\": %zu, \"docs\": %zu, "
      "\"versions_per_doc\": %zu, \"items_per_doc\": %zu, "
      "\"snapshot_every\": %u, \"request_digest\": \"%016" PRIx64 "\"}}\n",
      JsonString(spec.name).c_str(), args.seed,
      JsonNumber(args.seconds).c_str(), args.trace,
      args.smoke ? "true" : "false", JsonString(args.git_sha).c_str(),
      JsonString(TXML_E2E_BUILD_TYPE).c_str(),
      kLockRank, kFailpoints,
      std::thread::hardware_concurrency(), spec.readers, spec.writers,
      JsonString(sync).c_str(), spec.checkpoint_log_records, kCacheCapacity,
      spec.docs, spec.versions, spec.items, kSnapshotEvery, digest);
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const Metrics& metrics) {
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics.values) {
    if (!first) line += ", ";
    first = false;
    line += JsonString(name) + ": {\"value\": " + JsonNumber(value.first) +
            ", \"unit\": " + JsonString(value.second) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int Run(const Args& args) {
  WorkloadSpec spec;
  if (!MakeSpec(args.workload, args.smoke, &spec)) {
    Usage(("unknown workload " + args.workload).c_str());
  }
  const uint64_t digest = RequestStreamDigest(spec, args.seed, 64);
  if (args.digest_only) {
    std::printf("%016" PRIx64 "\n", digest);
    return 0;
  }
  PrintContext(args, spec, digest);
  std::fflush(stdout);

  std::error_code ec;
  fs::remove_all(args.scratch, ec);
  fs::create_directories(args.scratch, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.scratch.c_str(),
                 ec.message().c_str());
    return 1;
  }
  Tracer tracer;
  Tracer* tracer_or_null = args.trace == 1 ? &tracer : nullptr;

  // Set-up, three times; setup_s is the median. The write latencies of
  // every load are kept (they are the write stream of the read-only
  // workloads).
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  std::vector<std::pair<int64_t, bool>> load_batches;
  std::unique_ptr<Deployment> deployment;
  for (int rep = 0; rep < kSetups; ++rep) {
    if (deployment != nullptr) {
      // Free the previous set-up and hand its memory back to the OS, so
      // that peak_rss_mb measures one deployment rather than whatever
      // the allocator kept of the earlier ones.
      const std::string data_dir = deployment->data_dir;
      deployment.reset();
      fs::remove_all(data_dir, ec);
#ifdef __GLIBC__
      malloc_trim(0);
#endif
    }
    auto deployed = Deploy(spec, args.seed,
                           args.scratch + "/rep" + std::to_string(rep),
                           tracer_or_null);
    if (!deployed.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   deployed.status().ToString().c_str());
      return 1;
    }
    deployment = std::move(*deployed);
    setup_s.push_back(deployment->setup_s);
    load_batches.insert(load_batches.end(), deployment->load_batches.begin(),
                        deployment->load_batches.end());
  }

  const double loop_s = args.trace == 1 ? args.seconds * 0.5 : args.seconds;
  LoopResult loop =
      RunClosedLoop(spec, args.seed, deployment.get(), loop_s, tracer_or_null);
  // Before the checks, whose replays and reopen are not the service's.
  const double peak_rss_mb = PeakRssMb();

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  std::vector<CheckSample> checks;
  ExecStats exec;
  std::vector<double> latency_us[kOpCount];
  std::vector<double> read_us, read_traced_us, write_us, write_traced_us;
  for (ClientResult& client : loop.clients) {
    attempted += client.attempted;
    failed += client.failed;
    if (first_error.empty()) first_error = client.first_error;
    AddStats(&exec, client.stats);
    for (CheckSample& check : client.checks) checks.push_back(std::move(check));
    for (const OpRecord& op : client.ops) {
      const double us = static_cast<double>(op.ns) / 1e3;
      if (op.traced) {
        (op.op == Op::kPut ? write_traced_us : read_traced_us).push_back(us);
        continue;
      }
      latency_us[static_cast<int>(op.op)].push_back(us);
      (op.op == Op::kPut ? write_us : read_us).push_back(us);
    }
  }
  const uint64_t completed = attempted - failed;
  if (spec.writers == 0) {
    // Read-only workloads write only while loading their history: their
    // write latencies are those of the load batches.
    for (const auto& [ns, traced] : load_batches) {
      (traced ? write_traced_us : write_us)
          .push_back(static_cast<double>(ns) / 1e3);
    }
  }
  const CheckTally tally =
      CheckAnswers(spec, args.seed, *deployment, checks, &first_error);
  failed += tally.mismatched;

  Metrics metrics;
  if (args.trace == 1) {
    Status replay = RunDepthReplay(spec, args.seed, deployment.get(),
                                   args.seconds, &tracer, &metrics);
    if (!replay.ok()) {
      ++failed;
      if (first_error.empty()) first_error = "replay: " + replay.ToString();
    }
  }

  Status checkpoint = deployment->service->Checkpoint();
  if (!checkpoint.ok()) {
    ++failed;
    if (first_error.empty()) first_error = checkpoint.ToString();
  }
  const double disk_bytes =
      static_cast<double>(DirectoryBytes(deployment->data_dir));
  const double user_bytes = static_cast<double>(deployment->acked.user_bytes);
  const uint64_t unrecovered =
      CheckDurability(spec, deployment.get(), &first_error);
  failed += unrecovered;

  // The write stream's window: the last load for read-only workloads,
  // the closed loop for ingest_mixed.
  const ServiceStats& w0 =
      spec.writers == 0 ? deployment->before_load : loop.before;
  const ServiceStats& w1 =
      spec.writers == 0 ? deployment->after_load : loop.after;
  const ServiceStats& r0 = loop.before;
  const ServiceStats& r1 = loop.after;
  const double reads = static_cast<double>(read_us.size() +
                                           read_traced_us.size());

  if (args.trace == 0) {
    metrics.Set("setup_s", Percentile(setup_s, 50), "s");
    metrics.Set("ops_per_s", static_cast<double>(completed) / loop.elapsed_s,
                "1/s");
    metrics.Set("read_p50_us", Percentile(read_us, 50), "us");
    metrics.Set("read_p99_us", Percentile(read_us, 99), "us");
    metrics.Set("write_p50_us", Percentile(write_us, 50), "us");
    metrics.Set("write_p99_us", Percentile(write_us, 99), "us");
    metrics.Set("snapshot_p50_us",
                Percentile(latency_us[static_cast<int>(Op::kSnapshot)], 50),
                "us");
    metrics.Set("history_p50_us",
                Percentile(latency_us[static_cast<int>(Op::kHistory)], 50),
                "us");
    metrics.Set("lifetime_p50_us",
                Percentile(latency_us[static_cast<int>(Op::kLifetime)], 50),
                "us");
    metrics.Set("diff_p50_us",
                Percentile(latency_us[static_cast<int>(Op::kDiff)], 50), "us");
    metrics.Set("peak_rss_mb", peak_rss_mb, "MB");
    metrics.Set("disk_bytes_per_user_byte", Ratio(disk_bytes, user_bytes),
                "ratio");
  } else {
    uint64_t waits = 0;
    uint64_t acquires = 0;
    for (size_t s = 0; s < w1.commit_path.shards.size(); ++s) {
      waits += w1.commit_path.shards[s].waits;
      acquires += w1.commit_path.shards[s].acquires;
      if (s < w0.commit_path.shards.size()) {
        waits -= w0.commit_path.shards[s].waits;
        acquires -= w0.commit_path.shards[s].acquires;
      }
    }
    const double hits = static_cast<double>(r1.snapshot_cache.hits -
                                            r0.snapshot_cache.hits);
    const double misses = static_cast<double>(r1.snapshot_cache.misses -
                                              r0.snapshot_cache.misses);
    metrics.Set("service.cache_hit_ratio", Ratio(hits, hits + misses),
                "ratio");
    metrics.Set("service.evictions_per_read",
                Ratio(static_cast<double>(r1.snapshot_cache.evictions -
                                          r0.snapshot_cache.evictions),
                      reads),
                "ratio");
    metrics.Set("service.stripe_wait_frac",
                Ratio(static_cast<double>(waits),
                      static_cast<double>(acquires)),
                "ratio");
    metrics.Set("service.write_window_commits", static_cast<double>(acquires),
                "count");
    const double syncs =
        static_cast<double>(w1.commit_path.syncs - w0.commit_path.syncs);
    metrics.Set("service.records_per_sync",
                Ratio(static_cast<double>(w1.commit_path.records_written -
                                          w0.commit_path.records_written),
                      syncs),
                "ratio");
    metrics.Set("service.syncs", syncs, "count");
    metrics.Set("service.fti_folds",
                static_cast<double>(w1.fti.compactions - w0.fti.compactions),
                "count");
    metrics.Set("service.checkpoints",
                static_cast<double>(w1.durability.checkpoints_completed -
                                    w0.durability.checkpoints_completed),
                "count");
    metrics.Set("query.reconstructions_per_read",
                Ratio(static_cast<double>(exec.snapshot_reconstructions),
                      reads),
                "ratio");
    metrics.Set("query.rows_considered_per_emitted",
                Ratio(static_cast<double>(exec.rows_considered),
                      static_cast<double>(exec.rows_emitted)),
                "ratio");
    // The wire response carries no planner counters; the service's own
    // totals do.
    const double index_scans =
        static_cast<double>(r1.planner.scans_index - r0.planner.scans_index);
    const double traversal_scans = static_cast<double>(
        r1.planner.scans_traversal - r0.planner.scans_traversal);
    metrics.Set("query.index_scan_frac",
                Ratio(index_scans, index_scans + traversal_scans), "ratio");
    metrics.Set("index.differential_postings",
                Percentile(loop.differential_postings, 50), "count");
    metrics.Set("trace.read_p50_untraced_us", Percentile(read_us, 50), "us");
    metrics.Set("trace.read_p50_traced_us", Percentile(read_traced_us, 50),
                "us");
    metrics.Set("trace.write_p50_untraced_us", Percentile(write_us, 50),
                "us");
    metrics.Set("trace.write_p50_traced_us", Percentile(write_traced_us, 50),
                "us");
    if (!args.trace_out.empty()) {
      fs::create_directories(fs::path(args.trace_out).parent_path(), ec);
      if (!tracer.WriteJsonLines(args.trace_out)) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      }
    }
  }

  fs::remove_all(args.scratch, ec);
  const double error_frac =
      Ratio(static_cast<double>(failed), static_cast<double>(attempted));
  std::printf("{\"checks\": {\"error_frac\": %s, \"answers_checked\": %" PRIu64
              ", \"traversal_equal\": %" PRIu64 ", \"index_equal\": %" PRIu64
              ", \"mismatched\": %" PRIu64 ", \"docs_reopened\": %zu"
              ", \"docs_unrecovered\": %" PRIu64 ", \"read_samples\": %zu"
              ", \"write_samples\": %zu}}\n",
              JsonNumber(error_frac).c_str(), tally.checked,
              tally.traversal_equal, tally.index_equal, tally.mismatched, spec.docs, unrecovered,
              read_us.size(), write_us.size());
  std::fprintf(stderr,
               "%s seed %" PRIu64 ": %" PRIu64 " attempted, %" PRIu64
               " failed (error_frac %.6f); answers: %" PRIu64
               " checked, %" PRIu64 " equal the traversal arm, %" PRIu64
               " the index arm\n",
               spec.name.c_str(), args.seed, attempted, failed, error_frac,
               tally.checked, tally.traversal_equal, tally.index_equal);
  if (!first_error.empty()) {
    std::fprintf(stderr, "first error: %s\n", first_error.c_str());
  }
  for (const auto& [name, value] : metrics.values) {
    std::fprintf(stderr, "  %-36s %14.3f %s\n", name.c_str(), value.first,
                 value.second.c_str());
  }
  PrintResult(failed == 0, std::max<uint64_t>(attempted, 1), failed, metrics);
  return 0;
}

}  // namespace
}  // namespace txml::e2e

int main(int argc, char** argv) {
  return txml::e2e::Run(txml::e2e::ParseArgs(argc, argv));
}
