// perfbench: runs one benchmark workload and prints its result as one
// JSON line.
//
//   perfbench --workload <train-cora|serve-cora|reduce-exact>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the chosen workload's end-to-end metrics; --trace 1
// runs the traced per-layer breakdown instead. Exits 1 on bad arguments
// or a failed run, 0 otherwise (a wrong output is reported as
// "correct": false).

#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return options;
}

void print(const Result& result) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  const char* sep = "";
  for (const auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.first)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), metric.first, metric.second.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse(argc, argv);
    using Run = void (*)(const Options&, Result&);
    using Layers = double (*)(const Options&, Result&);
    struct Workload {
      const char* name;
      Run run;
      Layers layers;
    };
    static constexpr Workload kWorkloads[] = {
        {"train-cora", perfbench::train_cora, perfbench::train_cora_layers},
        {"serve-cora", perfbench::serve_cora, perfbench::serve_cora_layers},
        {"reduce-exact", perfbench::reduce_exact,
         perfbench::reduce_exact_layers},
    };
    const Workload* chosen = nullptr;
    for (const Workload& w : kWorkloads) {
      if (options.workload == w.name) chosen = &w;
    }
    if (chosen == nullptr) {
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "'");
    }

    Result result;
    if (!options.trace) {
      chosen->run(options, result);
    } else {
      // Every traced run reports the whole per-layer set: the chosen
      // workload's layers first, then the other workloads' layers.
      const double overhead_pct = chosen->layers(options, result);
      for (const Workload& w : kWorkloads) {
        if (&w != chosen) (void)w.layers(options, result);
      }
      result.add("obs.trace_overhead_pct", overhead_pct, "%");
    }
    if (result.attempted == 0) throw std::runtime_error("no operation ran");
    print(result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
