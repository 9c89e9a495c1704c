// vcbench — host cost of VC-ASGD training jobs, end to end and per layer.
//
//   vcbench --workload NAME --seed N --seconds S --trace 0|1
//           [--smoke] [--perturb] [--commit SHA] [--out FILE]
//
// --trace 0 times complete untraced training jobs (run_experiment on the
// workload's ExperimentSpec, seeded from --seed) for about S seconds, at
// least two jobs (three for the pooled workload), and reports the
// end-to-end metrics, per-epoch wall and CPU as means over the jobs. --trace 1
// runs one untraced job and then the layer replay (replay.hpp), and reports
// the per-layer metrics. Every job's outputs are checked; the last stdout
// line is one JSON object {correct, attempted, failed, metrics}, and the exit
// code is nonzero when any check failed.
//
// --smoke shrinks each workload to a seconds-long preset for the self-test.
// --perturb makes the checks fail on purpose, so the self-test can prove
// they bite: with --trace 0 the second job runs another seed, with --trace 1
// the replay skips one validation.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "common/wire_codec.hpp"
#include "core/trainer.hpp"
#include "replay.hpp"
#include "tensor/gemm_kernels.hpp"

namespace {

using namespace vcdl;
using vcbench::Clock;
using vcbench::Metric;
using vcbench::since;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string hex(std::uint64_t x) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(x));
  return buf;
}

std::string num(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Workload {
  ExperimentSpec spec;
  double chance = 0.0;        // accuracy of a uniform guess
  std::size_t min_jobs = 2;   // untraced jobs per run, however short --seconds
};

// The three workloads (README.md gives the reasons for each choice).
Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke) {
  Workload w;
  ExperimentSpec& s = w.spec;
  s.seed = seed;
  s.alpha = "0.95";
  if (name == "img-p5c5t2-serial" || name == "img-p3c3t8-pool4") {
    const bool serial = name == "img-p5c5t2-serial";
    s.parameter_servers = serial ? 5 : 3;
    s.clients = serial ? 5 : 3;
    s.tasks_per_client = serial ? 2 : 8;
    s.store = serial ? "strong" : "eventual";
    s.wire_codec = serial ? "delta" : "full";
    s.worker_threads = serial ? 1 : 4;
    // Pooled wall time swings with hypervisor steal on a shared host; three
    // jobs dilute one disturbed job.
    w.min_jobs = serial ? 2 : 3;
    s.param_shards = 1;
    s.num_shards = 50;
    // Two epochs: after one, the mean subtask accuracy is still within a
    // point or two of chance.
    s.max_epochs = 2;
    if (smoke) {
      s.data.train = 400;
      s.data.validation = 100;
      s.data.test = 100;
      s.num_shards = 10;
      s.learning_rate = 0.01;
    }
    w.chance = 1.0 / static_cast<double>(s.data.classes);
  } else if (name == "ts-fleet1k-q8") {
    s.workload = ExperimentSpec::Workload::timeseries;
    s.model_kind = ExperimentSpec::ModelKind::mlp;
    s.mlp.hidden = {64, 32};
    s.timeseries.train = 10000;
    s.parameter_servers = 5;
    s.clients = 1000;
    s.tasks_per_client = 2;
    s.num_shards = 1000;
    s.local_epochs = 2;
    s.work_per_subtask = 180.0;
    s.wire_codec = "delta_q8";
    s.param_shards = 4;
    s.store = "eventual";
    s.worker_threads = 1;
    s.max_epochs = 4;
    // Every unit of an epoch trains from the same published copy, so an
    // epoch advances the model by about one subtask's two steps; at the
    // default 3e-3 the job ends at chance on some seeds.
    s.learning_rate = 0.03;
    if (smoke) {
      s.timeseries.train = 1000;
      s.clients = 100;
      s.num_shards = 100;
    }
    w.chance = 1.0 / static_cast<double>(s.timeseries.regimes);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

struct Job {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t epochs = 0;
  double virtual_h_per_epoch = 0.0;
  double final_acc = 0.0;
  std::uint64_t params_hash = 0;
  std::uint64_t metrics_fingerprint = 0;
  std::string error;  // empty = the job passed its output check
  TrainResult result;
};

Job run_job(const Workload& w) {
  Job job;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  try {
    job.result = run_experiment(w.spec);
  } catch (const std::exception& e) {
    job.error = std::string("threw: ") + e.what();
    return job;
  }
  job.wall_s = since(t0);
  job.cpu_s = cpu_seconds() - cpu0;
  const TrainResult& r = job.result;
  job.epochs = r.epochs.size();
  job.params_hash = params_hash(r.final_params);
  job.metrics_fingerprint = r.metrics.fingerprint();
  if (job.epochs != w.spec.max_epochs) {
    job.error = "finished " + std::to_string(job.epochs) + " of " +
                std::to_string(w.spec.max_epochs) + " epochs";
    return job;
  }
  job.virtual_h_per_epoch =
      r.final_epoch().end_time / 3600.0 / static_cast<double>(job.epochs);
  job.final_acc = r.final_epoch().mean_subtask_acc;
  if (!(job.final_acc > w.chance)) {
    job.error = "final_acc " + num(job.final_acc) + " not above chance " +
                num(w.chance);
  }
  return job;
}

/// Median host wall and CPU seconds of the set-up run() does before its
/// first event, over `reps` repetitions.
std::pair<double, double> time_setup(const ExperimentSpec& spec, int reps) {
  std::vector<double> wall, cpu;
  for (int i = 0; i < reps; ++i) {
    const double cpu0 = cpu_seconds();
    const auto t0 = Clock::now();
    const vcbench::JobInputs in = vcbench::build_inputs(spec);
    wall.push_back(since(t0));
    cpu.push_back(cpu_seconds() - cpu0);
  }
  return {median(wall), median(cpu)};
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  bool perturb = false;
  std::string commit = "unknown";
  std::string out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = std::stoi(value());
    else if (k == "--commit") a.commit = value();
    else if (k == "--out") a.out = value();
    else if (k == "--smoke") a.smoke = true;
    else if (k == "--perturb") a.perturb = true;
    else throw std::invalid_argument("unknown argument: " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace is 0 or 1");
  return a;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed, args.smoke);
  const std::string host =
      "{\"cpu\": " + quoted(cpu_model()) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"simd\": " + quoted(ops::simd_tier_name(ops::active_simd_tier())) +
      ", \"build_type\": " + quoted(VCBENCH_BUILD_TYPE) +
      ", \"commit\": " + quoted(args.commit) + "}";
  std::cout << "vcbench workload=" << args.workload << " seed=" << args.seed
            << " trace=" << args.trace << (args.smoke ? " smoke" : "") << "\n"
            << "host " << host << "\n";

  const auto [setup_wall, setup_cpu] = time_setup(w.spec, 15);

  std::vector<Job> jobs;
  std::vector<Metric> metrics;
  std::vector<Metric> extra;  // printed, not in BENCHMARK.json
  std::vector<std::string> problems;
  if (args.trace == 0) {
    // Another job starts only while it is expected to end within --seconds
    // (at the mean job time so far), so a run's length stays near --seconds
    // however long one job takes.
    const auto t0 = Clock::now();
    while (jobs.size() < w.min_jobs ||
           since(t0) / static_cast<double>(jobs.size()) *
                   static_cast<double>(jobs.size() + 1) <= args.seconds) {
      Workload job_w = w;
      if (args.perturb && jobs.size() == 1) job_w.spec.seed += 1;
      jobs.push_back(run_job(job_w));
    }
  } else {
    jobs.push_back(run_job(w));
  }

  // Output check: every job passed its own check and all agree on the final
  // parameters and the metrics snapshot.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Job& j = jobs[i];
    if (j.error.empty() && (j.params_hash != jobs[0].params_hash ||
                            j.metrics_fingerprint != jobs[0].metrics_fingerprint)) {
      j.error = "outputs differ from job 1";
    }
    std::cout << "job " << i + 1 << " wall_s=" << num(j.wall_s)
              << " cpu_s=" << num(j.cpu_s) << " epochs=" << j.epochs
              << " virtual_h_per_epoch=" << num(j.virtual_h_per_epoch)
              << " final_acc=" << num(j.final_acc)
              << " params_hash=" << hex(j.params_hash)
              << " metrics_fingerprint=" << hex(j.metrics_fingerprint)
              << (j.error.empty() ? " ok" : " FAILED: " + j.error) << "\n";
    if (!j.error.empty()) problems.push_back("job " + std::to_string(i + 1) + ": " + j.error);
  }
  std::size_t failed = 0;
  for (const Job& j : jobs) failed += j.error.empty() ? 0 : 1;
  const Job& first = jobs[0];

  if (args.trace == 0) {
    std::vector<double> wall, cpu;
    for (const Job& j : jobs) {
      // A failed job may have stopped early; time only the passing ones.
      if (!j.error.empty() && failed < jobs.size()) continue;
      const double epochs = static_cast<double>(std::max<std::size_t>(1, j.epochs));
      wall.push_back((j.wall_s - setup_wall) / epochs);
      cpu.push_back((j.cpu_s - setup_cpu) / epochs);
    }
    // The mean over jobs, i.e. the run's timed seconds over its epochs: on a
    // shared host the share of jobs slowed by other tenants varies from run
    // to run, and the mean moves less with it than the median or the minimum.
    metrics = {
        {"wall_s_per_epoch", mean(wall), "s"},
        {"cpu_s_per_epoch", mean(cpu), "s"},
        {"setup_s", setup_wall, "s"},
        {"virtual_h_per_epoch", first.virtual_h_per_epoch, "h"},
    };
    extra.push_back({"median_wall_s_per_epoch", median(wall), "s"});
    extra.push_back({"median_cpu_s_per_epoch", median(cpu), "s"});
  } else if (first.error.empty()) {
    const vcbench::ReplayReport rep =
        vcbench::replay_layers(w.spec, first.result, first.wall_s, args.perturb);
    metrics = rep.metrics;
    extra = rep.layer_table;
    for (const Metric& m : rep.seconds) {
      extra.push_back({"seconds." + m.name, m.value, "s"});
    }
    for (const std::string& m : rep.mismatches) {
      problems.push_back("replay drift: " + m);
    }
    if (!rep.mismatches.empty()) failed = 1;
  }
  // Deterministic per seed but spread widely across seeds (README.md), so
  // reported beside the metrics rather than as metrics.
  extra.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
  extra.push_back({"final_acc", first.final_acc, "fraction"});
  extra.push_back({"failed_ratio",
                   static_cast<double>(failed) / static_cast<double>(jobs.size()),
                   "fraction"});

  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " " << num(m.value) << " " << m.unit << "\n";
  }
  for (const Metric& m : extra) {
    std::cout << "info " << m.name << " " << num(m.value) << " " << m.unit << "\n";
  }
  for (const std::string& p : problems) std::cerr << "vcbench: CHECK FAILED: " << p << "\n";

  const bool correct = problems.empty();
  const auto metric_json = [](const std::vector<Metric>& ms) {
    std::string s = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      s += (i ? ", " : "") + quoted(ms[i].name) + ": {\"value\": " +
           num(ms[i].value) + ", \"unit\": " + quoted(ms[i].unit) + "}";
    }
    return s + "}";
  };
  if (!args.out.empty()) {
    std::ofstream f(args.out);
    f << "{\"workload\": " << quoted(args.workload) << ", \"seed\": " << args.seed
      << ", \"trace\": " << args.trace << ", \"smoke\": " << (args.smoke ? "true" : "false")
      << ", \"host\": " << host << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"params_hash\": " << quoted(hex(first.params_hash))
      << ", \"metrics_fingerprint\": " << quoted(hex(first.metrics_fingerprint))
      << ", \"jobs\": [";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      f << (i ? ", " : "") << "{\"wall_s\": " << num(jobs[i].wall_s)
        << ", \"cpu_s\": " << num(jobs[i].cpu_s) << ", \"error\": " << quoted(jobs[i].error) << "}";
    }
    f << "], \"metrics\": " << metric_json(metrics) << ", \"info\": " << metric_json(extra)
      << "}\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << jobs.size() << ", \"failed\": " << failed
            << ", \"metrics\": " << metric_json(metrics) << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "vcbench: " << e.what() << "\n";
    return 2;
  }
}
