// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints one JSON document on stdout: the metrics (end-to-end with
// --trace 0, per-layer with --trace 1), the operation and check counts,
// and the seeded inputs. perfbench/run.py builds this program and turns
// the document into the benchmark's one-line result. Exit code 0 when
// every operation and check passed, 1 when one failed, 2 on bad usage.
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "json.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload <";
    const auto& names = pb::workload_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
        std::cerr << (i ? "|" : "") << names[i];
    }
    std::cerr << "> --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    pb::RunOptions options;
    bool have_workload = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string_view arg = argv[i];
            if (i + 1 >= argc) return usage("missing value for " + std::string(arg));
            const std::string value = argv[++i];
            if (arg == "--workload") {
                options.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
                options.trace = value == "1";
            } else {
                return usage("unknown argument " + std::string(arg));
            }
        }
    } catch (const std::exception&) {
        return usage("malformed number");
    }
    if (!have_workload) return usage("--workload is required");
    if (!(options.seconds > 0.0 && options.seconds <= 600.0)) {
        return usage("--seconds must be in (0, 600]");
    }

    pb::WorkloadReport report;
    try {
        report = pb::run_workload(options);
    } catch (const std::invalid_argument& e) {
        return usage(e.what());
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }

    using tp::bench::Json;
    Json metrics = Json::object();
    for (const pb::Metric& m : report.metrics) {
        metrics.raw(m.name,
                    Json::object().field("value", m.value).field("unit", m.unit).str());
    }
    Json failures = Json::array();
    for (const std::string& f : report.failures) {
        failures.item_raw(Json::object().field("what", f).str());
    }
    const bool correct = report.failed == 0 && report.attempted > 0;
    std::cout << Json::object()
                     .field("workload", options.workload)
                     .field("seed", options.seed)
                     .field("seconds", options.seconds)
                     .field("trace", options.trace)
                     .field("correct", correct)
                     .field("attempted", report.attempted)
                     .field("failed", report.failed)
                     .raw("failures", failures.str())
                     .raw("info", report.info.str())
                     .raw("metrics", metrics.str())
                     .str()
              << "\n";
    return correct ? 0 : 1;
}
