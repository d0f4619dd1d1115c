#include "obs/run_logger.h"

#include "common/json_writer.h"

namespace gl::obs {

RunLogger::RunLogger(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")) {
  if (file_ == nullptr) {
    std::fprintf(stderr, "RunLogger: cannot open %s for writing\n",
                 path.c_str());
  }
}

RunLogger::RunLogger(std::string* sink) : sink_(sink) {}

RunLogger::~RunLogger() {
  if (file_ != nullptr) std::fclose(file_);
}

std::string RunLogger::EpochLine(const EpochRecord& rec) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Key("schema");
  w.String(EpochRecord::kSchema);
  w.Key("scheduler");
  w.String(rec.scheduler);
  w.Key("scenario");
  w.String(rec.scenario);
  w.Key("epoch");
  w.Int(rec.epoch);

  w.Key("metrics");
  w.BeginObject();
  w.Key("active_servers");
  w.Int(rec.active_servers);
  w.Key("active_switches");
  w.Int(rec.active_switches);
  w.Key("server_watts");
  w.Double(rec.server_watts);
  w.Key("network_watts");
  w.Double(rec.network_watts);
  w.Key("total_watts");
  w.Double(rec.total_watts);
  w.Key("avg_active_utilization");
  w.Double(rec.avg_active_utilization);
  w.Key("mean_tct_ms");
  w.Double(rec.mean_tct_ms);
  w.Key("p99_tct_ms");
  w.Double(rec.p99_tct_ms);
  w.Key("queue_tct_ms");
  w.Double(rec.queue_tct_ms);
  w.Key("network_tct_ms");
  w.Double(rec.network_tct_ms);
  w.Key("energy_per_request_j");
  w.Double(rec.energy_per_request_j);
  w.Key("migrations");
  w.Int(rec.migrations);
  w.Key("placed");
  w.Int(rec.placed_containers);
  w.Key("unplaced");
  w.Int(rec.unplaced_containers);
  w.Key("audit_findings");
  w.Int(rec.audit_findings);
  w.EndObject();

  w.Key("counters");
  w.BeginObject();
  for (const auto& cv : rec.counters) {
    w.Key(cv.name);
    w.UInt(cv.value);
  }
  w.EndObject();

  if (rec.has_hash) {
    w.Key("hash");
    w.BeginObject();
    w.Key("placement");
    w.Hex64(rec.hash_placement);
    w.Key("loads");
    w.Hex64(rec.hash_loads);
    w.Key("power");
    w.Hex64(rec.hash_power);
    w.Key("migration");
    w.Hex64(rec.hash_migration);
    w.Key("rng");
    w.Hex64(rec.hash_rng);
    w.EndObject();
  }

  // Informational tail: gl_report diff strips everything from "timings"
  // on before comparing two streams. wall_ms and the informational gauges
  // live inside it — the deterministic prefix carries no timing- or
  // environment-dependent byte.
  w.Key("timings");
  w.BeginObject();
  w.Key("wall_ms");
  w.Double(rec.wall_ms);
  if (!rec.info_gauges.empty()) {
    w.Key("gauges");
    w.BeginObject();
    for (const auto& gv : rec.info_gauges) {
      w.Key(gv.name);
      w.Double(gv.value);
    }
    w.EndObject();
  }
  w.EndObject();

  w.EndObject();
  return out;
}

void RunLogger::WriteEpoch(const EpochRecord& rec) {
  std::string line = EpochLine(rec);
  line.push_back('\n');
  MutexLock lock(mu_);
  if (file_ != nullptr) {
    std::fwrite(line.data(), 1, line.size(), file_);
  } else if (sink_ != nullptr) {
    sink_->append(line);
  }
  ++lines_;
}

std::uint64_t RunLogger::lines_written() const {
  MutexLock lock(mu_);
  return lines_;
}

}  // namespace gl::obs
